"""The benchmark tracer wraps library functions by name; keep them resolvable.

``benchmarks/tracer.py`` looks every ``TARGETS`` entry up with ``getattr``
and no default, so ``benchmarks/run.py --trace 1`` fails if one is deleted or
renamed. The tracer is loaded from its source without writing bytecode.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import tunneltimes.cli  # noqa: F401  (install() wraps every target module)
from tunneltimes import propagator
from tunneltimes.errors import InsufficientFluxError
from tunneltimes.propagator import GridSpec
from tunneltimes.wavepacket import Packet

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


def test_point_step_counter_reads_measure_arrival_arguments(barrier):
    # The tracer reads spec and n_steps as measure_arrival's positional
    # arguments 2 and 4; empirical_delay must keep passing them that way.
    tracer = _load_tracer().Tracer()
    spec = GridSpec(-130.0, 120.0, 0.1, 0.005)
    tracer.install()
    try:
        with pytest.raises(InsufficientFluxError):
            # a 20-step window: the barrier run raises before the free run,
            # since empirical_delay runs a traced measure_arrival serially
            propagator.empirical_delay(Packet(1.0, 30.0), barrier, 60.0,
                                       spec, 20)
    finally:
        tracer.uninstall()
    assert tracer.work["propagator.measure_arrival"] == len(spec.x) * 20
