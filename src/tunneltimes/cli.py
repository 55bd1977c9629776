"""Command-line driver: sweeps, figure data, oracle comparisons, pole reports.

All commands are deterministic (no random state anywhere): re-running with
the same configuration produces byte-identical files. CSV output uses comma
separators, LF line endings, one leading '#' comment line naming the units
and the full parameter set, then a header row. Each cell equals printf
'%.17g' of its value (see csvformat). JSON reports are standard JSON,
sorted and indented, with null for each value a command could not compute.

Exit codes: 0 ok, 2 configuration error (an output that cannot be opened
included), 3 any other TunnelTimesError, 4 verification failure. An exit-3
message starts "domain error:" for a DomainError and with the class name
for any other error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import warnings

import numpy as np

from .closedform import age_difference, budget_grid
from .errors import (
    CountMismatchError,
    DomainError,
    InsufficientFluxError,
    NonConvergenceError,
    TunnelTimesError,
    ValidityWarning,
)
from .propagator import empirical_delay, grid_errors
from .quadrature import (
    oracle_delay_B,
    oracle_inverse_velocity,
    oracle_tunneling_time,
)
from .resonances import (SEARCH_RECT, build_decomposition, lorentzian_delay,
                         verify_remainder)
from .scattering import Barrier
from .wavepacket import Packet

MAX_K0_ROWS = 10**6  # a k0 grid larger than this is a configuration error

_RECT_KEYS = ("re_min", "re_max", "im_min", "im_max")

# key (the flag's dest) -> flag, default, argparse keywords (type float unless
# given); the search rectangle is flag-only, the rest are config-file keys
FLAGS = {
    "a": ("--a", 15.0, {"help": "barrier width"}),
    "mass": ("--mass", 1.0, {"help": "particle mass"}),
    "two_mV": ("--two-m-v", 1.0, {"help": "barrier height as 2mV"}),
    "height": ("--height", None,
               {"help": "barrier height V (wins over --two-m-v)"}),
    "k0_min": ("--k0-min", 0.01, {}),
    "k0_max": ("--k0-max", 1.5, {}),
    "k0_step": ("--k0-step", 0.01, {}),
    "L0": ("--l0", [150.0, 300.0],
           {"action": "append", "help": "packet width; repeatable"}),
    "k0_list": ("--k0", [0.3, 0.7, 1.1],
                {"action": "append", "metavar": "K0",
                 "help": "packet k0; repeatable"}),
    "detector_x": ("--detector-x", 30.0, {"help": "detector position"}),
    "out": ("--out", "out.csv", {"type": str, "help": "output file path"}),
    **{key: ("--" + key.replace("_", "-"), default, {})
       for key, default in zip(_RECT_KEYS, SEARCH_RECT)},
}

DEFAULTS = {key: default for key, (_, default, _) in FLAGS.items()
            if key not in _RECT_KEYS}

_NUMBER_FLAGS = {flag for flag, _, kwargs in FLAGS.values()
                 if kwargs.get("type", float) is float}
_NEGATIVE = re.compile(r"-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


class ConfigError(TunnelTimesError):
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
    """Each FLAGS key from its flag, else the config file, else its default,
    checked by its default's type."""
    cfg = dict(DEFAULTS)
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, ValueError) as exc:  # JSON and UTF-8 decoding errors included
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(file_cfg) - set(DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(file_cfg)
    for key, (_, default, _) in FLAGS.items():
        value = getattr(args, key, None)
        if value is None:
            value = cfg.get(key, default)
        if isinstance(default, list):
            if not isinstance(value, list) or not value:
                raise ConfigError(
                    f"{key} must be a non-empty list, got {value!r}")
            value = [_number(key, x) for x in value]
            if len(set(value)) < len(value):
                raise ConfigError(f"{key} repeats a value: {value}")
        elif isinstance(default, str):
            if not isinstance(value, str):
                raise ConfigError(f"{key} must be a file path, got {value!r}")
        elif value is not None or default is not None:
            value = _number(key, value)
        cfg[key] = value
    return cfg


def _barrier(cfg: dict) -> Barrier:
    if cfg["height"] is not None:
        return Barrier(height=cfg["height"], width=cfg["a"], mass=cfg["mass"])
    return Barrier.from_two_mv(cfg["two_mV"], cfg["a"], cfg["mass"])


def _k0_grid(cfg: dict) -> np.ndarray:
    lo, hi, step = cfg["k0_min"], cfg["k0_max"], cfg["k0_step"]
    if step <= 0.0 or hi < lo:
        raise ConfigError(f"bad k0 range: [{lo}, {hi}] step {step}")
    n = (hi - lo) / step + 1e-9
    if not n < MAX_K0_ROWS:  # also catches an infinite quotient
        raise ConfigError(f"k0 grid of {n:.3g} rows exceeds {MAX_K0_ROWS}")
    return lo + np.arange(int(math.floor(n)) + 1) * step


def _open_out(path: str):
    try:
        return open(path, "wb")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _json_ready(obj):
    """obj with each non-finite float as None, which JSON writes as null."""
    if isinstance(obj, dict):
        return {key: _json_ready(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(value) for value in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _write_json(path: str, obj) -> None:
    with _open_out(path) as fh:
        fh.write((json.dumps(_json_ready(obj), allow_nan=False, indent=2,
                             sort_keys=True) + "\n").encode())


def _param_comment(barrier: Barrier) -> str:
    return ("# natural units: hbar=1; a={a} m={m} two_mV={t} "
            "(V={v}); deterministic output".format(
                a=_fmt(barrier.width), m=_fmt(barrier.mass),
                t=_fmt(barrier.l0_sq), v=_fmt(barrier.height)))


def _write_csv(path: str, comment: str, header: list[str], columns) -> None:
    """One row per element of the broadcast columns, in C order; each cell
    is '%.17g' of its value."""
    # imported here, like scipy.linalg in the propagator, so start-up does
    # not load the formatter
    from .csvformat import BLOCK_CELLS, csv_rows

    cols = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in columns))
    # leading-axis slices per block, so no whole-table array is built
    step = max(1, BLOCK_CELLS // (math.prod(cols[0].shape[1:]) * len(cols)))
    with _open_out(path) as fh:
        fh.write(f"{comment}\n{','.join(header)}\n".encode())
        for i in range(0, len(cols[0]), step):
            block = np.stack([c[i:i + step] for c in cols], axis=-1)
            fh.write(csv_rows(block.reshape(-1, len(cols))))


def _closed_grid(cfg: dict, barrier: Barrier, l0s):
    """k0 grid and the closed-form budget over k0 (rows) x l0s (columns)."""
    k0s = _k0_grid(cfg)
    return k0s, budget_grid(k0s[:, None], l0s, barrier)


def cmd_sweep(cfg: dict, args: argparse.Namespace) -> int:
    barrier = _barrier(cfg)
    k0s, tb = _closed_grid(cfg, barrier, sorted(cfg["L0"]))
    columns = {
        "k0": tb.k0, "L0": tb.L0, "a": barrier.width, "m": barrier.mass,
        "two_mV": barrier.l0_sq, "tau_ph": tb.tau_ph, "t_tunnel": tb.t_tunnel,
        "t_outside": tb.t_outside, "t_age": tb.t_age, "t_age0": tb.t0,
        "dtau_A": tb.dtau_A, "dtau_B": tb.dtau_B,
        "bp_tunnel_term": tb.bp_tunnel_term,
        "bp_outside_term": tb.bp_outside_term,
        "valid_ratio": tb.validity_ratio}
    _write_csv(cfg["out"], _param_comment(barrier), list(columns),
               columns.values())
    return 0


def cmd_figure(cfg: dict, args: argparse.Namespace) -> int:
    barrier = _barrier(cfg)
    l0s = sorted(cfg["L0"])
    if args.which == "fig3":
        k0s, tb = _closed_grid(cfg, barrier, l0s)
        header = ["k0"] + [
            f"t_tunnel_L{np.format_float_positional(l0, trim='-')}"
            for l0 in l0s]
        columns = [k0s, *tb.t_tunnel.T]
    else:
        k0s, tb = _closed_grid(cfg, barrier, l0s[:1])
        header = ["k0", "t_age", "t_age0"]
        columns = [k0s, tb.t_age[:, 0], tb.t0[:, 0]]
    _write_csv(cfg["out"], _param_comment(barrier), header, columns)
    return 0


def cmd_oracle_compare(cfg: dict, args: argparse.Namespace) -> int:
    barrier = _barrier(cfg)
    l0s = sorted(cfg["L0"])
    report: dict = {"units": "natural, hbar=1", "barrier": {
        "a": barrier.width, "m": barrier.mass, "two_mV": barrier.l0_sq},
        "rows": [], "gap_ratios": []}
    for k0 in cfg["k0_list"]:
        for l0 in l0s:
            packet = Packet(k0, l0)
            tb = age_difference(packet, barrier)
            checks = [
                ("v_inv", tb.v_inv, oracle_inverse_velocity,
                 1e-3 * abs(tb.v_inv)),
                ("t_tunnel", tb.t_tunnel, oracle_tunneling_time,
                 0.05 * abs(tb.tau_ph)),
                ("dtau_B", tb.dtau_B, oracle_delay_B,
                 0.05 * barrier.mass / (k0 * k0)),
            ]
            for name, closed, oracle_fn, tol in checks:
                note = ""
                try:
                    oracle = oracle_fn(packet, barrier)
                    gap = abs(closed - oracle)
                except NonConvergenceError as exc:
                    # unresolvable structure (e.g. the near-branch-point
                    # pole of a vanishing barrier), or an integrand that is
                    # rounding noise and so not conj-even, counts as a
                    # failure; the message names where refinement stalled
                    oracle = gap = None
                    note = str(exc)
                report["rows"].append({
                    "quantity": name, "k0": k0, "L0": l0,
                    "closed": closed, "oracle": oracle, "gap": gap,
                    "tolerance": tol, "pass": gap is not None and gap <= tol,
                    "note": note, "validity_ratio": tb.validity_ratio,
                    "validity_warning": not tb.valid,
                })
    gaps = {(r["quantity"], r["k0"], r["L0"]): r["gap"]
            for r in report["rows"]}
    for (name, k0, l0), gap in sorted(gaps.items()):
        l0_double = 2.0 * l0
        gap_d = gaps.get((name, k0, l0_double))
        if gap and gap_d is not None:
            report["gap_ratios"].append({
                "quantity": name, "k0": k0, "L0_pair": [l0, l0_double],
                "ratio": gap_d / gap,
            })
    report["all_pass"] = all(r["pass"] for r in report["rows"])
    _write_json(cfg["out"], report)
    return 0 if report["all_pass"] else 4


def cmd_resonances(cfg: dict, args: argparse.Namespace) -> int:
    rect = tuple(cfg[key] for key in _RECT_KEYS)
    if not (rect[0] < rect[1] and rect[2] < rect[3]):
        raise ConfigError(
            "search rectangle needs re_min < re_max and im_min < im_max")
    barrier = _barrier(cfg)
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
    _write_json(cfg["out"], report)
    return 0 if rep["ok"] else 4


def cmd_propagate(cfg: dict, args: argparse.Namespace) -> int:
    barrier = _barrier(cfg)
    l0 = min(cfg["L0"])
    detector = cfg["detector_x"]
    rows = []
    sidecar = {"detector_x": detector, "L0": l0, "grids": {}}
    for k0 in cfg["k0_list"]:
        packet = Packet(k0, l0)
        tb = age_difference(packet, barrier)
        try:
            delay, rec, _ = empirical_delay(packet, barrier, detector)
        except InsufficientFluxError:
            continue
        rows.append([k0, delay, tb.dtau_A + tb.dtau_B,
                     rec.transmitted_fraction])
        spec = rec.spec
        cn_error, lattice_error = grid_errors(packet, barrier, spec)
        sidecar["grids"][_fmt(k0)] = {
            "x_min": spec.x_min, "x_max": spec.x_max, "dx": spec.dx,
            "dt": spec.dt, "n_steps": rec.n_steps,
            "norm_drift": rec.norm_drift,
            "wall_probability": rec.wall_probability,
            "cn_phase_error": cn_error,
            "lattice_dispersion_error": lattice_error,
        }
    if not rows:
        raise InsufficientFluxError("no requested k0 produced measurable flux")
    _write_csv(cfg["out"], _param_comment(barrier),
               ["k0", "empirical_delay", "closed_form_delay",
                "transmitted_fraction"], list(zip(*rows)))
    _write_json(cfg["out"] + ".gridinfo.json", sidecar)
    return 0


_BARRIER_KEYS = ("a", "mass", "two_mV", "height")
_GRID_KEYS = (*_BARRIER_KEYS, "k0_min", "k0_max", "k0_step", "L0", "out")

# command -> handler, help, the keys it reads (each becomes one flag)
COMMANDS = {
    "sweep": (cmd_sweep, "full TimeBudget table as CSV", _GRID_KEYS),
    "figure": (cmd_figure, "tunneling-time / age-difference curves",
               _GRID_KEYS),
    "oracle-compare": (cmd_oracle_compare,
                       "closed forms vs quadrature oracles (JSON)",
                       (*_BARRIER_KEYS, "L0", "k0_list", "out")),
    "resonances": (cmd_resonances, "pole report (JSON)",
                   (*_BARRIER_KEYS, *_RECT_KEYS, "out")),
    "propagate": (cmd_propagate,
                  "time-domain delay measurements at the smallest L0 (CSV)",
                  (*_BARRIER_KEYS, "L0", "k0_list", "detector_x", "out")),
}

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
    for name, (func, help_text, keys) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == "figure":
            p.add_argument("which", choices=["fig3", "fig4"])
        for key in keys:
            flag, _, kwargs = FLAGS[key]
            p.add_argument(flag, dest=key, **{"type": float, **kwargs})
        p.set_defaults(func=func)
    return parser


def _attach_numbers(argv) -> list[str]:
    """argv with each number flag followed by a negative number written
    FLAG=VALUE: argparse's negative-number pattern has no exponent, so it
    takes a word like -1e-3 for an option and leaves the flag without its
    value."""
    out: list[str] = []
    for word in argv:
        if out and out[-1] in _NUMBER_FLAGS and _NEGATIVE.fullmatch(word):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(
        _attach_numbers(sys.argv[1:] if argv is None else argv))
    try:
        with warnings.catch_warnings():
            # closed forms past the validity gate are still written
            warnings.simplefilter("ignore", ValidityWarning)
            return args.func(load_config(args), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CountMismatchError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 4
    except TunnelTimesError as exc:
        label = "domain error" if isinstance(exc, DomainError) else type(exc).__name__
        print(f"{label}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
