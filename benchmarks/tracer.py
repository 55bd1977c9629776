"""Span tracer for the benchmark's traced runs.

``Tracer.install`` replaces each public function named in ``TARGETS`` by a
wrapper in every loaded ``tunneltimes`` module that refers to it (modules
import each other's functions by name, so one function can sit in several
module namespaces). A wrapper records one span per call: name, start, end,
parent span and operation id, plus the amount of work the call was given.
``uninstall`` puts the originals back. Spans stay in memory; ``summarize``
turns them into per-name call counts, inclusive and self times and work.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


def _points(args, kwargs) -> int:
    return getattr(args[0], "size", 1)


def _point_steps(args, kwargs) -> int:
    # measure_arrival(packet, barrier, spec, detector_x, n_steps)
    spec, n_steps = args[2], args[4]
    return len(spec.x) * int(n_steps)


# (module, function, work counter). Spans are named "<module>.<function>";
# the module is the layer.
TARGETS = [
    ("cli", "main", None),
    ("closedform", "age_difference", None),
    ("phasetime", "phase_time", None),
    ("phasetime", "phase_time_grid", _points),
    ("scattering", "amplitude_grid", _points),
    ("special", "sinhc_w", _points),
    ("special", "cosh_w", _points),
    ("special", "psi_w", _points),
    ("special", "chi_w", _points),
    ("wavepacket", "f_amp", _points),
    ("wavepacket", "f_amp_deriv", _points),
    ("wavepacket", "momentum_density", _points),
    ("quadrature", "oracle_inverse_velocity", None),
    ("quadrature", "oracle_tunneling_time", None),
    ("quadrature", "oracle_delay_B", None),
    ("quadrature", "pv_integrate", None),
    ("propagator", "empirical_delay", None),
    ("propagator", "measure_arrival", _point_steps),
    ("resonances", "build_decomposition", None),
    ("resonances", "find_poles", None),
    ("resonances", "winding_count", None),
    ("resonances", "verify_remainder", None),
]

# pv_integrate's integrand is a closure, not a module function; the
# pv_integrate wrapper wraps it under this span name.
INTEGRAND = "quadrature.integrand"


@dataclass
class NameStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: int = 0
    errors: dict = field(default_factory=lambda: defaultdict(int))
    results: int = 0


class Tracer:
    def __init__(self):
        self.spans: list = []      # (name, start, end, parent, op_id)
        self.work: dict = defaultdict(int)
        self.errors: dict = defaultdict(int)   # (name, exception class) -> count
        self.results: dict = defaultdict(int)  # name -> summed len(result)
        self.op_id = 0
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, name, fn, work=None, count_result=False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            if work is not None:
                self.work[name] += work(args, kwargs)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.op_id)
            if count_result:
                self.results[name] += len(result)
            return result

        return traced

    def _wrap_pv(self, fn):
        wrap = self._wrap

        def pv_integrate(integrand, *args, **kwargs):
            return fn(wrap(INTEGRAND, integrand, _points), *args, **kwargs)

        return self._wrap("quadrature.pv_integrate", pv_integrate)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "tunneltimes" or n.startswith("tunneltimes."))]
        for mod_name, fn_name, work in TARGETS:
            name = f"{mod_name}.{fn_name}"
            orig = getattr(sys.modules[f"tunneltimes.{mod_name}"], fn_name)
            if name == "quadrature.pv_integrate":
                wrapper = self._wrap_pv(orig)
            else:
                wrapper = self._wrap(name, orig, work,
                                     count_result=(name == "resonances.find_poles"))
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def summarize(self) -> dict[str, NameStats]:
        """Per-name stats; self time is a span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[str, NameStats] = defaultdict(NameStats)
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            s = stats[name]
            s.calls += 1
            s.total_s += end - start
            s.self_s += end - start - child[sid]
        for name, n in self.work.items():
            stats[name].work = n
        for (name, exc), n in self.errors.items():
            stats[name].errors[exc] += n
        for name, n in self.results.items():
            stats[name].results = n
        return stats

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,name,start_us,end_us,parent,op_id\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{sid},{name},{(start - t0) * 1e6:.1f},"
                         f"{(end - t0) * 1e6:.1f},{parent},{op}\n")
