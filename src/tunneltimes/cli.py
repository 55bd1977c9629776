"""Command-line driver: sweeps, figure data, oracle comparisons, pole reports.

All commands are deterministic (no random state anywhere): re-running with
the same configuration produces byte-identical files. CSV output uses comma
separators, '.' decimals, 17 significant digits, LF line endings, one leading
'#' comment line naming the units and the full parameter set, then a header
row. JSON reports are sorted and indented.

Exit codes: 0 ok, 2 configuration error, 3 domain/physics error,
4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings

import numpy as np

from .closedform import age_difference, budget_grid
from .errors import (
    CountMismatchError,
    DomainError,
    GridTooSmallError,
    ImaginaryResidueError,
    InsufficientFluxError,
    NonConvergenceError,
    PoleProximityError,
    RegimeViolationError,
    ValidityWarning,
)
from .phasetime import phase_time, phase_time_grid
from .propagator import empirical_delay, suggest_grid
from .quadrature import (
    QuadratureConfig,
    oracle_delay_B,
    oracle_inverse_velocity,
    oracle_tunneling_time,
)
from .resonances import build_decomposition, lorentzian_delay, verify_remainder
from .scattering import Barrier
from .wavepacket import Packet

_PHYSICS_ERRORS = (
    DomainError,
    PoleProximityError,
    RegimeViolationError,
    NonConvergenceError,
    ImaginaryResidueError,
    GridTooSmallError,
    InsufficientFluxError,
)

DEFAULTS = {
    "a": 15.0,
    "mass": 1.0,
    "two_mV": 1.0,
    "height": None,       # wins over two_mV when set
    "k0_min": 0.01,
    "k0_max": 1.5,
    "k0_step": 0.01,
    "L0": [150.0, 300.0],
    "k0_list": [0.3, 0.7, 1.1],
    "detector_x": 30.0,
    "out": "out.csv",
}


class ConfigError(Exception):
    pass


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _number(key: str, value) -> float:
    try:
        if math.isfinite(x := float(value)):
            return x
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{key} must be finite and numeric, got {value!r}")


def load_config(args: argparse.Namespace) -> dict:
    """Defaults < config file < flags, every number checked and a float."""
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        unknown = set(file_cfg) - set(DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(file_cfg)
    for key in ("a", "mass", "two_mV", "height", "k0_min", "k0_max",
                "k0_step", "detector_x", "out"):
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    if getattr(args, "L0", None):
        cfg["L0"] = args.L0
    if getattr(args, "k0", None):
        cfg["k0_list"] = args.k0
    for key in ("a", "mass", "two_mV", "height", "k0_min", "k0_max",
                "k0_step", "detector_x"):
        if key != "height" or cfg[key] is not None:
            cfg[key] = _number(key, cfg[key])
    for key in ("L0", "k0_list"):
        if not isinstance(cfg[key], list):
            raise ConfigError(f"{key} must be a list, got {cfg[key]!r}")
        cfg[key] = [_number(key, x) for x in cfg[key]]
    if not cfg["L0"]:
        raise ConfigError("L0 needs at least one packet width")
    if not isinstance(cfg["out"], str):
        raise ConfigError(f"out must be a file path, got {cfg['out']!r}")
    for key in ("re_min", "re_max", "im_min", "im_max"):
        if hasattr(args, key):
            _number(key, getattr(args, key))
    return cfg


def _barrier(cfg: dict) -> Barrier:
    if cfg["height"] is not None:
        return Barrier(height=cfg["height"], width=cfg["a"], mass=cfg["mass"])
    return Barrier.from_two_mv(cfg["two_mV"], cfg["a"], cfg["mass"])


def _k0_grid(cfg: dict) -> np.ndarray:
    lo, hi, step = cfg["k0_min"], cfg["k0_max"], cfg["k0_step"]
    if step <= 0.0 or hi < lo:
        raise ConfigError(f"bad k0 range: [{lo}, {hi}] step {step}")
    n = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return lo + np.arange(n) * step


def _param_comment(cfg: dict, barrier: Barrier) -> str:
    return ("# natural units: hbar=1; a={a} m={m} two_mV={t} "
            "(V={v}); deterministic output".format(
                a=_fmt(barrier.width), m=_fmt(barrier.mass),
                t=_fmt(barrier.l0_sq), v=_fmt(barrier.height)))


def _write_csv(path: str, comment: str, header: list[str], columns) -> None:
    """One row per element of the broadcast columns, in C order."""
    cols = np.broadcast_arrays(*columns)
    line = ",".join(["%.17g"] * len(cols)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(comment + "\n" + ",".join(header) + "\n")
        # 64 leading-axis slices at a time keep few Python floats alive
        for i in range(0, len(cols[0]), 64):
            block = np.stack([c[i:i + 64] for c in cols], axis=-1)
            rows = block.reshape(-1, len(cols)).tolist()
            fh.writelines(line % tuple(row) for row in rows)


SWEEP_COLUMNS = [
    "k0", "L0", "a", "m", "two_mV", "tau_ph", "t_tunnel", "t_outside",
    "t_age", "t_age0", "dtau_A", "dtau_B", "bp_tunnel_term",
    "bp_outside_term", "valid_ratio",
]


def _closed_grid(cfg: dict, barrier: Barrier, l0s):
    """k0 grid and the closed-form budget over k0 (rows) x l0s (columns)."""
    k0s = _k0_grid(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        return k0s, budget_grid(k0s[:, None], l0s, barrier)


def cmd_sweep(cfg: dict, args: argparse.Namespace) -> int:
    barrier = _barrier(cfg)
    k0s, tb = _closed_grid(cfg, barrier, sorted(cfg["L0"]))
    tau = phase_time_grid(k0s, barrier)[:, None]
    _write_csv(cfg["out"], _param_comment(cfg, barrier), SWEEP_COLUMNS, [
        tb.k0, tb.L0, barrier.width, barrier.mass, barrier.l0_sq, tau,
        tb.t_tunnel, tb.t_outside, tb.t_age, tb.t0, tb.dtau_A, tb.dtau_B,
        tb.bp_tunnel_term, tb.bp_outside_term, tb.validity_ratio,
    ])
    return 0


def cmd_figure(cfg: dict, args: argparse.Namespace) -> int:
    barrier = _barrier(cfg)
    l0s = sorted(cfg["L0"])
    if args.which == "fig3":
        k0s, tb = _closed_grid(cfg, barrier, l0s)
        header = ["k0"] + [f"t_tunnel_L{int(l0)}" for l0 in l0s]
        columns = [k0s, *tb.t_tunnel.T]
    else:
        k0s, tb = _closed_grid(cfg, barrier, l0s[:1])
        header = ["k0", "t_age", "t_age0"]
        columns = [k0s, tb.t_age[:, 0], tb.t0[:, 0]]
    _write_csv(cfg["out"], _param_comment(cfg, barrier), header, columns)
    return 0


def cmd_oracle_compare(cfg: dict, args: argparse.Namespace) -> int:
    barrier = _barrier(cfg)
    l0s = sorted(cfg["L0"])
    qcfg = QuadratureConfig()
    report: dict = {"units": "natural, hbar=1", "barrier": {
        "a": barrier.width, "m": barrier.mass, "two_mV": barrier.l0_sq},
        "rows": [], "gap_ratios": []}
    all_pass = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        gaps: dict = {}
        for k0 in cfg["k0_list"]:
            tau = phase_time(k0, barrier)
            for l0 in l0s:
                packet = Packet(k0, l0)
                tb = age_difference(packet, barrier)
                checks = [
                    ("v_inv", tb.v_inv, oracle_inverse_velocity,
                     1e-3 * abs(tb.v_inv)),
                    ("t_tunnel", tb.t_tunnel, oracle_tunneling_time,
                     0.05 * abs(tau)),
                    ("dtau_B", tb.dtau_B, oracle_delay_B,
                     0.05 * barrier.mass / k0 ** 2),
                ]
                for name, closed, oracle_fn, tol in checks:
                    note = ""
                    try:
                        oracle = oracle_fn(packet, barrier, qcfg)
                        gap = abs(closed - oracle)
                        ok = gap <= tol
                    except NonConvergenceError as exc:
                        # unresolvable structure (e.g. the near-branch-point
                        # pole of a vanishing barrier) counts as a failure;
                        # the message names where refinement stalled
                        oracle = None
                        gap = None
                        ok = False
                        note = str(exc)
                    all_pass = all_pass and ok
                    gaps[(name, k0, l0)] = gap
                    report["rows"].append({
                        "quantity": name, "k0": k0, "L0": l0,
                        "closed": closed, "oracle": oracle, "gap": gap,
                        "tolerance": tol, "pass": ok, "note": note,
                        "validity_ratio": tb.validity_ratio,
                        "validity_warning": not tb.valid,
                    })
        for (name, k0, l0), gap in sorted(gaps.items()):
            l0_double = 2.0 * l0
            gap_d = gaps.get((name, k0, l0_double))
            if gap and gap_d is not None:
                report["gap_ratios"].append({
                    "quantity": name, "k0": k0, "L0_pair": [l0, l0_double],
                    "ratio": gap_d / gap,
                })
    report["all_pass"] = all_pass
    with open(cfg["out"], "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0 if all_pass else 4


def cmd_resonances(cfg: dict, args: argparse.Namespace) -> int:
    barrier = _barrier(cfg)
    rect = (args.re_min, args.re_max, args.im_min, args.im_max)
    dec = build_decomposition(barrier, search_rect=rect)
    rep = verify_remainder(dec)
    e_samples = [float(e) for e in dec.energies[:: max(1, len(dec.energies) // 25)]]
    report = {
        "units": "natural, hbar=1",
        "barrier": {"a": barrier.width, "m": barrier.mass,
                    "two_mV": barrier.l0_sq},
        "search_rect": list(rect),
        "poles": [
            {
                "parity": p.parity,
                "k_pole": [p.k_pole.real, p.k_pole.imag],
                "E_R": p.E_R,
                "Gamma": p.Gamma,
                "lifetime": p.lifetime,
                "residual": p.residual,
            }
            for p in dec.poles
        ],
        "remainder_check": rep,
        "lorentzian_delay_curve": [
            {"E0": e, "delay": lorentzian_delay(e, dec)} for e in e_samples
        ],
    }
    with open(cfg["out"], "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0 if rep["ok"] else 4


def cmd_propagate(cfg: dict, args: argparse.Namespace) -> int:
    barrier = _barrier(cfg)
    l0 = min(cfg["L0"])
    detector = cfg["detector_x"]
    rows = []
    sidecar = {"detector_x": detector, "L0": l0, "grids": {}}
    starved = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        for k0 in cfg["k0_list"]:
            packet = Packet(k0, l0)
            spec, n_steps = suggest_grid(packet, barrier, detector)
            tb = age_difference(packet, barrier)
            try:
                delay, rec, _ = empirical_delay(packet, barrier, detector,
                                                spec, n_steps)
            except InsufficientFluxError:
                starved += 1
                continue
            rows.append([k0, delay, tb.dtau_A + tb.dtau_B,
                         rec.transmitted_fraction])
            sidecar["grids"][_fmt(k0)] = {
                "x_min": spec.x_min, "x_max": spec.x_max, "dx": spec.dx,
                "dt": spec.dt, "n_steps": n_steps,
                "norm_drift": rec.norm_drift,
                "wall_probability": rec.wall_probability,
            }
    if starved == len(cfg["k0_list"]):
        raise InsufficientFluxError("no requested k0 produced measurable flux")
    _write_csv(cfg["out"], _param_comment(cfg, barrier),
               ["k0", "empirical_delay", "closed_form_delay",
                "transmitted_fraction"], list(zip(*rows)))
    with open(cfg["out"] + ".gridinfo.json", "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tunneltimes",
        description="Square-barrier tunneling times: sweeps, figure data, "
                    "oracle comparisons, resonance reports, propagation runs.",
        epilog="Barrier height: --height (V) takes precedence over --two-m-v "
               "(2mV) when both are given. All outputs are deterministic.",
    )
    parser.add_argument("--config", help="JSON config file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--a", type=float, help="barrier width")
        p.add_argument("--mass", type=float, help="particle mass")
        p.add_argument("--two-m-v", dest="two_mV", type=float,
                       help="barrier height as 2mV")
        p.add_argument("--height", type=float,
                       help="barrier height V (wins over --two-m-v)")
        p.add_argument("--k0-min", dest="k0_min", type=float)
        p.add_argument("--k0-max", dest="k0_max", type=float)
        p.add_argument("--k0-step", dest="k0_step", type=float)
        p.add_argument("--l0", dest="L0", type=float, action="append",
                       help="packet width; repeat for several")
        p.add_argument("--k0", type=float, action="append",
                       help="explicit k0 (repeatable; oracle/propagate)")
        p.add_argument("--out", help="output file path")

    p_sweep = sub.add_parser("sweep", help="full TimeBudget table as CSV")
    common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_fig = sub.add_parser("figure", help="tunneling-time / age-difference curves")
    p_fig.add_argument("which", choices=["fig3", "fig4"])
    common(p_fig)
    p_fig.set_defaults(func=cmd_figure)

    p_oc = sub.add_parser("oracle-compare",
                          help="closed forms vs quadrature oracles (JSON)")
    common(p_oc)
    p_oc.set_defaults(func=cmd_oracle_compare)

    p_res = sub.add_parser("resonances", help="pole report (JSON)")
    common(p_res)
    p_res.add_argument("--re-min", type=float, default=0.5)
    p_res.add_argument("--re-max", type=float, default=3.0)
    p_res.add_argument("--im-min", type=float, default=-1.0)
    p_res.add_argument("--im-max", type=float, default=0.0)
    p_res.set_defaults(func=cmd_resonances)

    p_prop = sub.add_parser("propagate",
                            help="time-domain delay measurements (CSV)")
    common(p_prop)
    p_prop.add_argument("--detector-x", dest="detector_x", type=float)
    p_prop.set_defaults(func=cmd_propagate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CountMismatchError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 4
    except _PHYSICS_ERRORS as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
