"""tunneltimes benchmark: one workload, one seed, a fixed measuring time.

    python3 benchmarks/run.py --workload spectra --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
One process, one thread, closed loop: each operation starts after the
previous one returned. A pass runs every operation of the workload once and
checks each output against ``references.json``; passes repeat until the
measuring time is used up.

Untraced passes run under a calibration sampler (``calibrate.py``) and their
times are given in calibrated seconds: measured time divided by the
slowdown the machine showed during the same pass. ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` alternates untraced and traced passes and
prints the per-layer metrics. Lines before the last are a table of every
metric with its unit; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. README.md lists the metrics and
what they mean.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy loads, so one operation uses one core.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
from tracer import NameStats, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 9
# A fresh process times its import of tunneltimes.cli plus the parser build
# under a sampler with the pure-Python kernel (the mixed one would load numpy
# before the timed import), and prints (time minus sampler time, slowdown).
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, {bench!r}); import calibrate as k; "
    "s = k.Sampler(k.python_kernel, k.PY_REF_S); m = s.mark(); s.start(); "
    "t = time.perf_counter(); import tunneltimes.cli as c; c.build_parser(); "
    "el = time.perf_counter() - t; s.stop(); stolen, slow = s.since(m); "
    "print(repr(el - stolen), repr(slow))")
# Stop starting operations after this long, so a run ends inside 180 s even
# when operations run into their time limits.
RUN_DEADLINE_S = 150.0

class OpTimeout(BaseException):
    """Raised by SIGALRM inside an operation that ran past its time limit."""


def _on_alarm(signum, frame):
    raise OpTimeout()


@dataclass
class Pass:
    op_s: list = field(default_factory=list)       # time of each op, sampler time excluded
    outcomes: list = field(default_factory=list)   # (key, status, message)
    bytes_written: int = 0
    slowdown: float | None = None                  # machine slowdown seen by the sampler

    @property
    def wall_s(self) -> float:
        return sum(self.op_s)


def run_op(op, ref, deadline: float, sampler=None):
    """(elapsed_s, status, message, extracted data) of one operation; the
    sampler's own time inside the operation is not part of elapsed_s."""
    from workloads import FAILED, WRONG

    limit = min(op.limit_s, deadline - time.monotonic())
    if limit <= 0.0:
        return 0.0, FAILED, "run deadline passed before the operation", None
    mark = sampler.mark() if sampler else None

    def net(elapsed):
        return elapsed - sampler.since(mark)[0] if sampler else elapsed

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, limit)
    start = time.perf_counter()
    try:
        result = op.run()
        elapsed = net(time.perf_counter() - start)
    except OpTimeout:
        return net(time.perf_counter() - start), FAILED, f"time limit {limit:.0f} s", None
    except Exception as exc:  # every program error is an outcome to report
        return net(time.perf_counter() - start), FAILED, repr(exc), None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
    try:
        data = op.extract(result)
        status, message = op.compare(data, ref)
    except Exception as exc:  # unreadable output counts as a wrong one
        return elapsed, WRONG, f"output check raised {exc!r}", None
    return elapsed, status, message, data


def run_pass(ops, refs, deadline, tracer=None, sampler=None) -> Pass:
    p = Pass()
    if sampler:
        mark = sampler.mark()
        sampler.start()
    try:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = i
            elapsed, status, message, data = run_op(op, refs[op.key], deadline, sampler)
            p.op_s.append(elapsed)
            p.outcomes.append((op.key, status, message))
            if isinstance(data, dict):
                p.bytes_written += data.get("bytes", 0)
    finally:
        if sampler:
            sampler.stop()
            p.slowdown = sampler.since(mark)[1]
    return p


def calibrated_ops(passes: list[Pass]) -> list[list[float]]:
    """Each pass's op times divided by the slowdown seen during that pass."""
    fallback = statistics.median([p.slowdown for p in passes if p.slowdown] or [1.0])
    return [[t / (p.slowdown or fallback) for t in p.op_s] for p in passes]


def measure_setup() -> tuple[float, float]:
    """(calibrated, measured) time of one fresh-process import of
    tunneltimes.cli plus parser build."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE.format(bench=str(BENCH_DIR))],
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60, check=True)
    elapsed, slowdown = proc.stdout.split()[-2:]
    elapsed = float(elapsed)
    return (elapsed / float(slowdown) if slowdown != "None" else elapsed), elapsed


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh
                       if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads_pinned": {v: os.environ[v] for v in THREAD_VARS}}


def layer_metrics(stats, n_passes: int, bytes_written: float) -> dict:
    """Per-layer metrics per traced pass, from summed tracer stats."""
    def st(name):
        return stats.get(name, NameStats())

    def per_pass(x):
        return x / n_passes

    def ns_per_work(names):
        work = sum(st(n).work for n in names)
        return sum(st(n).total_s for n in names) * 1e9 / work if work else 0.0

    special = [n for n in stats if n.startswith("special.")]
    ad, pv, itg = st("closedform.age_difference"), st("quadrature.pv_integrate"), \
        st("quadrature.integrand")
    ma, wc = st("propagator.measure_arrival"), st("resonances.winding_count")
    fp = st("resonances.find_poles")
    m = {
        "cli.main.calls": per_pass(st("cli.main").calls),
        "cli.self_ms": per_pass(st("cli.main").self_s * 1e3),
        "cli.bytes_written": bytes_written,
        "closedform.age_difference.calls": per_pass(ad.calls),
        "closedform.age_difference.us_per_call":
            ad.total_s * 1e6 / ad.calls if ad.calls else 0.0,
        "closedform.self_ms": per_pass(ad.self_s * 1e3),
        "phasetime.phase_time.calls": per_pass(st("phasetime.phase_time").calls),
        "phasetime.phase_time_grid.points": per_pass(st("phasetime.phase_time_grid").work),
        "phasetime.phase_time_grid.ns_per_point": ns_per_work(["phasetime.phase_time_grid"]),
        "scattering.amplitude_grid.calls": per_pass(st("scattering.amplitude_grid").calls),
        "scattering.amplitude_grid.points": per_pass(st("scattering.amplitude_grid").work),
        "scattering.amplitude_grid.ns_per_point": ns_per_work(["scattering.amplitude_grid"]),
        "special.points": per_pass(sum(st(n).work for n in special)),
        "special.ns_per_point": ns_per_work(special),
    }
    for fn in ("f_amp", "f_amp_deriv", "momentum_density"):
        name = f"wavepacket.{fn}"
        m[f"{name}.points"] = per_pass(st(name).work)
        m[f"{name}.ns_per_point"] = ns_per_work([name])
    m.update({
        "quadrature.pv_integrate.calls": per_pass(pv.calls),
        "quadrature.pv_integrate.ms": per_pass(pv.total_s * 1e3),
        "quadrature.integrand_calls": per_pass(itg.calls),
        "quadrature.integrand_points": per_pass(itg.work),
        "quadrature.points_per_integrand_call": itg.work / itg.calls if itg.calls else 0.0,
        # pv_integrate's only traced children are its integrand calls
        "quadrature.self_ms": per_pass(pv.self_s * 1e3),
        "quadrature.nonconvergence": per_pass(pv.errors.get("NonConvergenceError", 0)),
        "propagator.measure_arrival.calls": per_pass(ma.calls),
        "propagator.measure_arrival.ms": per_pass(ma.total_s * 1e3),
        "propagator.point_steps": per_pass(ma.work),
        "propagator.ns_per_point_step": ns_per_work(["propagator.measure_arrival"]),
        "resonances.find_poles.ms": per_pass(fp.total_s * 1e3),
        "resonances.winding_count.calls": per_pass(wc.calls),
        "resonances.winding_count.ms": per_pass(wc.total_s * 1e3),
        "resonances.build_decomposition.ms":
            per_pass(st("resonances.build_decomposition").total_s * 1e3),
        "resonances.verify_remainder.ms":
            per_pass(st("resonances.verify_remainder").total_s * 1e3),
        "resonances.poles_found": per_pass(fp.results),
        "resonances.count_mismatch": per_pass(fp.errors.get("CountMismatchError", 0)),
    })
    return m


def merge_stats(total, stats) -> None:
    for name, s in stats.items():
        t = total[name]
        t.calls += s.calls
        t.total_s += s.total_s
        t.self_s += s.self_s
        t.work += s.work
        t.results += s.results
        for exc, n in s.errors.items():
            t.errors[exc] += n


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_start = time.monotonic()

    if not (SRC / "tunneltimes" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'tunneltimes'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tunneltimes

    if Path(tunneltimes.__file__).resolve().parent != (SRC / "tunneltimes").resolve():
        print(f"error: imported tunneltimes from {tunneltimes.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(BENCH_DIR / "references.json", encoding="utf-8") as fh:
        refs = json.load(fh)

    variant = workloads.variant_for(args.workload, args.seed)
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    ops = workloads.WORKLOADS[args.workload](variant, str(work_dir))
    missing = [op.key for op in ops if op.key not in refs]
    if missing:
        print(f"error: no reference for {missing}; run benchmarks/make_references.py",
              file=sys.stderr)
        return 2

    sampler = calibrate.Sampler(calibrate.make_mixed_kernel(), calibrate.MIXED_REF_S)
    setup_times: list[tuple[float, float]] = []
    deadline = t_start + RUN_DEADLINE_S
    passes: list[Pass] = []
    traced: list[Pass] = []
    totals = defaultdict(NameStats)
    last_tracer = None
    durations = []
    t_measure = time.monotonic()
    try:
        while True:
            t0 = time.monotonic()
            if args.trace and len(passes) > len(traced):
                last_tracer = Tracer()
                last_tracer.install()
                try:
                    traced.append(run_pass(ops, refs, deadline, last_tracer))
                finally:
                    last_tracer.uninstall()
                merge_stats(totals, last_tracer.summarize())
            else:
                passes.append(run_pass(ops, refs, deadline, sampler=sampler))
                # Spread the set-up samples over the run, between passes.
                if len(setup_times) < SETUP_REPEATS and not args.trace:
                    setup_times.append(measure_setup())
            durations.append(time.monotonic() - t0)
            elapsed = time.monotonic() - t_measure
            enough = len(passes) + len(traced) >= (2 if args.trace else 1)
            if enough and (elapsed + statistics.median(durations) > args.seconds
                           or time.monotonic() > deadline):
                break
        while len(setup_times) < SETUP_REPEATS and not args.trace:
            setup_times.append(measure_setup())
        if last_tracer is not None:
            last_tracer.write_spans(str(OUT_DIR / f"spans-{args.workload}-{args.seed}.csv"))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    every = passes + traced
    outcomes = [o for p in every for o in p.outcomes]
    attempted = len(outcomes)
    counted = (workloads.KNOWN_FAILURE, workloads.FAILED, workloads.WRONG)
    failed = sum(1 for _, status, _ in outcomes if status in counted)
    correct = not any(status in (workloads.FAILED, workloads.WRONG)
                      for _, status, _ in outcomes)
    reported = set()
    for key, status, message in outcomes:
        if status != workloads.OK and (key, status, message) not in reported:
            reported.add((key, status, message))
            print(f"{status}: {key}: {message}", file=sys.stderr)

    # Times are calibrated per pass (calibrate.py, README.md): on the shared
    # host the machine's own speed moves uncalibrated times by 25% or more
    # between runs a few minutes apart.
    calibrated = calibrated_ops(passes)
    wall = statistics.median(sum(c) for c in calibrated)
    op_median = [statistics.median(ts) for ts in zip(*calibrated)]
    slowdown = statistics.median([p.slowdown for p in passes if p.slowdown] or [1.0])
    metrics = {g: sum(t for op, t in zip(ops, op_median) if op.group == g)
               for g in workloads.GROUPS}
    metrics["ops_failed_ratio"] = failed / attempted
    metrics["raw_wall_s"] = statistics.median(p.wall_s for p in passes)
    metrics["machine_slowdown"] = slowdown
    if args.trace:
        n = len(traced)
        metrics |= layer_metrics(totals, n, sum(p.bytes_written for p in traced) / n)
        # Traced passes run without the sampler; they take the untraced
        # passes' median slowdown.
        metrics["trace.wall_s"] = statistics.median(p.wall_s for p in traced) / slowdown
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall
    else:
        metrics |= {"wall_s": wall,
                    "setup_s": statistics.median(c for c, _ in setup_times),
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    pass_times = sorted(p.wall_s for p in passes)
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    reported_names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    print(f"# workload={args.workload} seed={args.seed} variant={variant} "
          f"trace={args.trace} passes={len(passes)} traced_passes={len(traced)} "
          f"loop=closed clients=1")
    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    for op in ops:
        print(f"# op {op.group}: {op.key}")
    print(f"# attempted={attempted} failed={failed} correct={str(correct).lower()}")
    print(f"# untraced pass times, uncalibrated (s): n={len(pass_times)} "
          f"min={pass_times[0]:.4f} median={statistics.median(pass_times):.4f} "
          f"max={pass_times[-1]:.4f}; sampler kernel runs: {len(sampler.samples)}")
    if setup_times:
        print(f"# set-up times, uncalibrated (s): n={len(setup_times)} "
              f"median={statistics.median(r for _, r in setup_times):.4f}")
    for name, value in metrics.items():
        print(f"{name:45s} {value:>18.6f} {units[name]}")
    result = {name: {"value": metrics[name], "unit": units[name]} for name in reported_names}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
