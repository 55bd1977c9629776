"""The benchmark tracer wraps library functions by name; keep them resolvable.

``benchmarks/tracer.py`` looks every ``TARGETS`` entry up with ``getattr``
and no default, so ``benchmarks/run.py --trace 1`` fails if one is deleted or
renamed. The tracer is loaded from its source without writing bytecode.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = keep
        del sys.modules[spec.name]
    return module


def test_every_trace_target_resolves():
    targets = _load_tracer().TARGETS
    assert targets
    missing = []
    for module_name, fn_name, _ in targets:
        module = importlib.import_module(f"tunneltimes.{module_name}")
        if not callable(getattr(module, fn_name, None)):
            missing.append(f"{module_name}.{fn_name}")
    assert not missing, f"tracer targets missing from tunneltimes: {missing}"
