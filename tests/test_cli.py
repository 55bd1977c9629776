import csv
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import tunneltimes
from tunneltimes import (cli, closedform, errors, phasetime, propagator,
                         quadrature, resonances)
from tunneltimes.cli import main


# The CLI's exit-code contract, one row per command: exit code, argv
# without --out, the start of stderr and a reason. An empty prefix means the
# command answers: no stderr, --out written; any other means it fails and
# writes nothing. CI runs the same rows through the installed console script.
with open(Path(__file__).with_name("cli_exit_codes.tsv"), newline="") as _f:
    EXIT_CODE_ROWS = list(csv.DictReader(_f, delimiter="\t", quoting=csv.QUOTE_NONE))
EXIT_CODES = {row["argv"]: int(row["code"]) for row in EXIT_CODE_ROWS}


def run_row(argv, out):
    """main on a row of cli_exit_codes.tsv, its exit code checked there."""
    assert main([*argv.split(), "--out", str(out)]) == EXIT_CODES[argv]


def _count_calls(monkeypatch, fn):
    """Replace fn by a call-recording wrapper in every package module."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for mod in (cli, closedform, phasetime, propagator, quadrature):
        for name, val in list(vars(mod).items()):
            if val is fn:
                monkeypatch.setattr(mod, name, counting)
    return calls


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    header = lines[1].split(",")
    rows = [[float(x) for x in ln.split(",")] for ln in lines[2:]]
    return header, rows


class TestSweep:
    def test_default_grid_row_count_and_identity(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert len(rows) == 300  # 150 k0 values x 2 packet widths
        cols = {name: i for i, name in enumerate(header)}
        for row in rows:
            assert abs(row[cols["t_age"]]
                       - (row[cols["t_tunnel"]] + row[cols["t_outside"]])) \
                <= 1e-9 * max(1.0, abs(row[cols["t_age"]]))
        k0s = [row[cols["k0"]] for row in rows]
        assert k0s == sorted(k0s)

    def test_byte_determinism(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["sweep", "--k0-min", "0.1", "--k0-max", "0.5",
                "--k0-step", "0.1"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert main(["sweep", "--out", str(out)]) == 2
        assert f"config error: cannot write {out}" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_one_grid_pass_without_scalar_phase_time(self, tmp_path,
                                                     monkeypatch):
        # the whole (k0, L0) grid goes through the array kernels at once
        grid_calls = _count_calls(monkeypatch, phasetime.phase_time_grid)
        scalar_calls = _count_calls(monkeypatch, phasetime.phase_time)
        out = tmp_path / "s.csv"
        assert main(["sweep", "--k0-min", "0.002", "--k0-max", "1.0",
                     "--k0-step", "0.002", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 1000  # 500 k0 values x 2 packet widths
        assert 0 < len(grid_calls) <= 3
        assert scalar_calls == []

    def test_thick_barrier_writes_no_nan(self, tmp_path):
        # kappa a > 355 at small k0: sinh(2 kappa a) overflows there
        out = tmp_path / "thick.csv"
        assert main(["sweep", "--a", "400", "--k0-max", "0.1",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert all(math.isfinite(x) for row in rows for x in row)

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k0_min": 0.2, "k0_max": 0.4,
                                   "k0_step": 0.1, "L0": [100.0]}))
        out = tmp_path / "s.csv"
        assert main(["--config", str(cfg), "sweep", "--k0-max", "0.3",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 2  # k0 in {0.2, 0.3}, single L0

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert main(["--config", str(cfg), "sweep",
                     "--out", str(tmp_path / "s.csv")]) == 2

    @pytest.mark.parametrize("body", ['["a"]', "5", "null", "[]", '"ab"'])
    def test_config_file_not_an_object_exits_2(self, tmp_path, capsys, body):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(body)
        out = tmp_path / "s.csv"
        assert main(["--config", str(cfg), "sweep", "--out", str(out)]) == 2
        assert "config file must hold a JSON object" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("body", [None, '{"a": 1', b"\xff"])
    def test_unreadable_config_file_exits_2(self, tmp_path, capsys, body):
        # missing, malformed JSON, not UTF-8
        cfg = tmp_path / "cfg.json"
        if body is not None:
            (cfg.write_bytes if isinstance(body, bytes) else cfg.write_text)(body)
        out = tmp_path / "s.csv"
        assert main(["--config", str(cfg), "sweep", "--out", str(out)]) == 2
        assert "config error: cannot read config file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["sweep"], ["resonances"]])
    def test_search_rect_is_not_a_config_key(self, tmp_path, capsys,
                                             command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"re_min": 0.6}))
        out = tmp_path / "x.out"
        assert main(["--config", str(cfg), *command, "--out", str(out)]) == 2
        assert "unknown config keys: ['re_min']" in capsys.readouterr().err
        assert not out.exists()

    def test_two_mv_past_the_float_square(self, tmp_path):
        # (2mV)^2 overflows a Python float; tau_ph is the Hartman limit
        out = tmp_path / "s.csv"
        assert main(["sweep", "--two-m-v", "1e200", "--k0-min", "0.01",
                     "--k0-max", "0.01", "--k0-step", "1.0",
                     "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert rows[0][header.index("tau_ph")] == pytest.approx(2e-98, rel=1e-12)

    def test_height_flag_wins(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--two-m-v", "9.0", "--height", "0.5",
                     "--k0-min", "0.5", "--k0-max", "0.5", "--k0-step", "1.0",
                     "--out", str(out)]) == 0
        header, rows = read_csv(out)
        two_mv = rows[0][header.index("two_mV")]
        assert two_mv == pytest.approx(1.0)  # from V=0.5, m=1


class TestConfigValidation:
    @pytest.mark.parametrize("command", [["sweep"], ["figure", "fig3"],
                                         ["figure", "fig4"], ["propagate"]])
    def test_empty_l0_list_exits_2(self, tmp_path, capsys, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"L0": []}))
        out = tmp_path / "x.csv"
        code = main(["--config", str(cfg), *command, "--out", str(out)])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["oracle-compare"], ["propagate"]])
    def test_empty_k0_list_exits_2(self, tmp_path, capsys, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k0_list": []}))
        out = tmp_path / "x.out"
        code = main(["--config", str(cfg), *command, "--out", str(out)])
        assert code == 2
        assert "k0_list" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("k0_step", float("nan")),
                                            ("L0", [150.0, float("inf")])])
    def test_non_finite_config_value_exits_2(self, tmp_path, capsys, key,
                                             value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))  # NaN/Infinity literals
        out = tmp_path / "x.csv"
        code = main(["--config", str(cfg), "figure", "fig4",
                     "--out", str(out)])
        assert code == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("file_cfg", [
        {"a": "wide"}, {"L0": 150}, {"k0_list": [0.5, "x"]},
    ])
    @pytest.mark.parametrize("command", [["sweep"], ["oracle-compare"]])
    def test_malformed_config_value_exits_2(self, tmp_path, capsys, file_cfg,
                                            command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(file_cfg))
        out = tmp_path / "x.out"
        code = main(["--config", str(cfg), *command, "--out", str(out)])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_non_string_out_exits_2(self, tmp_path, capsys, monkeypatch):
        # an integer would reach open() as a file descriptor
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": 5}))
        code = main(["--config", str(cfg), "sweep"])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_repeated_config_list_value_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k0_list": [0.7, 1.1, 0.7]}))
        out = tmp_path / "x.json"
        code = main(["--config", str(cfg), "oracle-compare", "--out",
                     str(out)])
        assert code == 2
        assert "k0_list repeats a value" in capsys.readouterr().err
        assert not out.exists()


# (command, flag) pairs of flags the command does not read
UNREAD_FLAGS = [
    (["sweep"], "--k0"),
    (["figure", "fig3"], "--k0"),
    (["oracle-compare"], "--k0-min"),
    (["oracle-compare"], "--k0-max"),
    (["oracle-compare"], "--k0-step"),
    (["resonances"], "--k0-min"),
    (["resonances"], "--k0-max"),
    (["resonances"], "--k0-step"),
    (["resonances"], "--l0"),
    (["resonances"], "--k0"),
    (["propagate"], "--k0-min"),
    (["propagate"], "--k0-max"),
    (["propagate"], "--k0-step"),
]

_BARRIER_FLAGS = ["--a", "--mass", "--two-m-v", "--height"]
_GRID_FLAGS = [*_BARRIER_FLAGS, "--k0-min", "--k0-max", "--k0-step", "--l0",
               "--out"]
READ_FLAGS = {
    ("sweep",): _GRID_FLAGS,
    ("figure", "fig3"): _GRID_FLAGS,
    ("oracle-compare",): [*_BARRIER_FLAGS, "--l0", "--k0", "--out"],
    ("resonances",): [*_BARRIER_FLAGS, "--re-min", "--re-max", "--im-min",
                      "--im-max", "--out"],
    ("propagate",): [*_BARRIER_FLAGS, "--l0", "--k0", "--detector-x", "--out"],
}

# flag -> config key, value on the command line, value it must give
FLAG_VALUES = {
    "--a": ("a", "12.5", 12.5),
    "--mass": ("mass", "1.5", 1.5),
    "--two-m-v": ("two_mV", "0.75", 0.75),
    "--height": ("height", "0.25", 0.25),
    "--k0-min": ("k0_min", "0.2", 0.2),
    "--k0-max": ("k0_max", "0.9", 0.9),
    "--k0-step": ("k0_step", "0.05", 0.05),
    "--l0": ("L0", "120", [120.0]),
    "--k0": ("k0_list", "0.45", [0.45]),
    "--detector-x": ("detector_x", "27", 27.0),
    "--out": ("out", "flag.out", "flag.out"),
    "--re-min": ("re_min", "0.6", 0.6),
    "--re-max": ("re_max", "2.5", 2.5),
    "--im-min": ("im_min", "-0.8", -0.8),
    "--im-max": ("im_max", "0.05", 0.05),
}

# a value for every config key, none equal to a default or a flag value
FILE_CONFIG = {
    "a": 14.0, "mass": 1.1, "two_mV": 1.2, "height": 0.4, "k0_min": 0.02,
    "k0_max": 1.4, "k0_step": 0.02, "L0": [200.0, 400.0], "k0_list": [0.9],
    "detector_x": 31.0, "out": "file.out",
}


class TestPerCommandFlags:
    @pytest.mark.parametrize("command, flag", UNREAD_FLAGS, ids=[
        f"{command[0]} {flag}" for command, flag in UNREAD_FLAGS])
    def test_unread_flag_exits_2(self, tmp_path, capsys, command, flag):
        out = tmp_path / "x.out"
        with pytest.raises(SystemExit) as exc:
            main([*command, flag, "0.5", "--out", str(out)])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        pytest.param(command, flag, id=f"{command[0]} {flag}")
        for command, flags in READ_FLAGS.items() for flag in flags])
    def test_read_flag_wins_over_config_file(self, tmp_path, command, flag):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(FILE_CONFIG))
        key, text, want = FLAG_VALUES[flag]
        args = cli.build_parser().parse_args(
            ["--config", str(cfg_path), *command, flag, text])
        cfg = cli.load_config(args)
        if key in cli.DEFAULTS:
            assert cfg[key] == want
            for other in FILE_CONFIG.keys() - {key}:
                assert cfg[other] == FILE_CONFIG[other]
        else:
            # the search rectangle is flag-only; it must reach the report
            assert getattr(args, key) == want
            out = tmp_path / "r.json"
            assert main(["resonances", flag, text, "--out", str(out)]) == 0
            rect = json.loads(out.read_text())["search_rect"]
            order = ["re_min", "re_max", "im_min", "im_max"]
            assert rect[order.index(key)] == want

    @pytest.mark.parametrize("command, flag", [
        pytest.param(command, flag, id=f"{command[0]} {flag}")
        for command, flags in READ_FLAGS.items() for flag in flags
        if flag != "--out"])
    def test_negative_exponent_form_is_a_value(self, command, flag):
        # argparse's own negative-number pattern does not match -1e-3
        key, _, want = FLAG_VALUES[flag]
        args = cli.build_parser().parse_args(
            cli._attach_numbers([*command, flag, "-1e-3"]))
        assert getattr(args, key) == ([-1e-3] if isinstance(want, list)
                                      else -1e-3)

    def test_each_command_accepts_exactly_its_flags(self, command_flags):
        assert command_flags == {command[0]: set(flags)
                                 for command, flags in READ_FLAGS.items()}
        assert sum(map(len, command_flags.values())) == 42

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_no_value_carries_over_between_calls(self, tmp_path):
        # one parser serves every call of main: a flag or config value of
        # one call must not reach the next
        grid = ["--k0-min", "0.1", "--k0-max", "0.5", "--k0-step", "0.1"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"a": 7.0, "two_mV": 2.0, "L0": [40.0]}))
        runs = [["sweep", *grid],
                ["figure", "fig3", "--a", "5", "--mass", "2", "--l0", "20",
                 "--k0-min", "0.2", "--k0-max", "0.3", "--k0-step", "0.05"],
                ["sweep", *grid], ["--config", str(cfg_path), "sweep", *grid],
                ["sweep", *grid]]
        outs = []
        for i, argv in enumerate(runs):
            out = tmp_path / f"{i}.csv"
            assert main([*argv, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[2] == outs[4]
        assert outs[0].startswith(b"# natural units: hbar=1; a=15 m=1 two_mV=1 ")
        assert outs[3].startswith(b"# natural units: hbar=1; a=7 m=1 two_mV=2 ")
        args = cli.build_parser().parse_args(["sweep"])
        assert args.config is None
        assert all(getattr(args, key) is None for key in cli._GRID_KEYS)


class TestFigure:
    def test_fig3_columns_and_values(self, tmp_path, barrier):
        from tunneltimes.closedform import age_difference
        from tunneltimes.wavepacket import Packet

        out = tmp_path / "fig3.csv"
        assert main(["figure", "fig3", "--k0-min", "1.0", "--k0-max", "1.2",
                     "--k0-step", "0.1", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["k0", "t_tunnel_L150", "t_tunnel_L300"]
        for row in rows:
            assert row[1] == pytest.approx(
                age_difference(Packet(row[0], 150.0), barrier).t_tunnel,
                rel=1e-12)

    def test_fig3_fractional_widths_name_distinct_columns(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert main(["figure", "fig3", "--l0", "150.7", "--l0", "150.2",
                     "--k0-min", "1.0", "--k0-max", "1.0", "--k0-step", "1.0",
                     "--out", str(out)]) == 0
        header, _ = read_csv(out)
        assert header == ["k0", "t_tunnel_L150.2", "t_tunnel_L150.7"]

    def test_fig4_hartman_dip(self, tmp_path):
        out = tmp_path / "fig4.csv"
        assert main(["figure", "fig4", "--k0-min", "0.5", "--k0-max", "0.5",
                     "--k0-step", "1.0", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert rows[0][1] < rows[0][2]  # t_age < t_age0


class TestOracleCompare:
    def test_midrange_passes(self, tmp_path):
        out = tmp_path / "oc.json"
        code = main(["oracle-compare", "--k0", "0.7", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["all_pass"]
        assert len(report["rows"]) == 6  # 3 quantities x 2 widths
        assert report["gap_ratios"]
        for row in report["rows"]:
            assert not row["validity_warning"]

    def test_vanishing_barrier_flags_and_fails(self, tmp_path):
        out = tmp_path / "oc.json"
        code = main(["oracle-compare", "--k0", "0.7", "--two-m-v", "2e-12",
                     "--l0", "150", "--out", str(out)])
        assert code == 4
        report = json.loads(out.read_text())
        assert not report["all_pass"]
        assert all(row["validity_warning"] for row in report["rows"])
        stalled = [row for row in report["rows"] if row["oracle"] is None]
        assert stalled
        for row in stalled:
            assert "refinement level" in row["note"]
            assert "max_panels=" in row["note"]

    def test_noise_level_barrier_fails_its_delay_B_row(self, tmp_path):
        # at 2mV = 1e-100 the delay-B integrand is rounding noise, not
        # conj-even at the residue nodes: the row fails with the guard's note
        out = tmp_path / "oc.json"
        code = main(["oracle-compare", "--k0", "0.7", "--two-m-v", "1e-100",
                     "--l0", "150", "--out", str(out)])
        assert code == 4
        rows = {row["quantity"]: row for row in json.loads(out.read_text())["rows"]}
        assert rows["dtau_B"]["oracle"] is None
        assert "not conj-even" in rows["dtau_B"]["note"]


    def test_thick_barrier_delay_B_row_passes(self, tmp_path):
        # cosh(kappa a/2) overflows at a = 1500; the amplitudes take their
        # thick-barrier limit, so delay-B's quadrature converges
        out = tmp_path / "oc.json"
        code = main(["oracle-compare", "--a", "1500", "--k0", "0.5",
                     "--l0", "150", "--out", str(out)])
        report = json.loads(out.read_text())
        assert code == (0 if report["all_pass"] else 4)
        rows = {row["quantity"]: row for row in report["rows"]}
        assert rows["dtau_B"]["pass"] and rows["v_inv"]["pass"]


class TestResonancesCmd:
    def test_report(self, tmp_path):
        out = tmp_path / "res.json"
        assert main(["resonances", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert any(0.9 <= p["k_pole"][0] <= 1.3 for p in report["poles"])
        assert all(p["residual"] < 1e-10 for p in report["poles"])
        assert report["remainder_check"]["ok"]
        assert report["remainder_check"]["max_modulus_error"] < 1e-6
        assert report["lorentzian_delay_curve"]

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "res.json"
        assert main(["resonances", "--out", str(out)]) == 2
        assert f"config error: cannot write {out}" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_thick_barrier_answers(self, tmp_path):
        out = tmp_path / "res.json"
        assert main(["resonances", "--a", "60", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert len(report["poles"]) == 54
        assert report["remainder_check"]["ok"]
        assert all(p["residual"] < 1e-10 for p in report["poles"])

    @pytest.mark.parametrize("flags, n_poles", [
        (["--a", "100"], 90),
        (["--two-m-v", "4", "--a", "60"], 42),
        (["--a", "60", "--re-max", "6"], 112),
        (["--two-m-v", "0.25", "--a", "120"], 112),
    ])
    def test_thicker_and_taller_barriers_answer(self, tmp_path, flags, n_poles):
        # floor(a sqrt(re_max^2 - 2mV) / pi) over-barrier poles; each used
        # to end in a count mismatch (winding 43 / 21 / 54 against a harvest
        # of 44 / 20 / 56), and 112 poles exceed the old two-parity cap of 64;
        # at 2mV = 0.25 a root 6.8e-4 inside Re k = 0.5 read winding 55 for 56
        out = tmp_path / "res.json"
        assert main(["resonances", *flags, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert len(report["poles"]) == n_poles
        assert report["remainder_check"]["ok"]
        assert all(p["residual"] < 1e-10 for p in report["poles"])

    @pytest.mark.parametrize("flags", [["--two-m-v", "0"], ["--a", "0"]])
    def test_no_barrier_reports_no_poles_quietly(self, tmp_path, capsys,
                                                 flags):
        out = tmp_path / "res.json"
        assert main(["resonances", *flags, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads(out.read_text())
        assert report["poles"] == []
        assert report["remainder_check"]["ok"]

    @pytest.mark.parametrize("flags", [["--a", "1e9"], ["--a", "1e300"],
                                       ["--a", "1.7e308"], ["--re-max", "1e200"]])
    def test_too_many_pole_indices_fail_fast(self, tmp_path, capsys, flags):
        # the pole-index count is checked before any seed array exists
        out = tmp_path / "res.json"
        tracemalloc.start()
        try:
            code = main(["resonances", *flags, "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert "pole indices" in capsys.readouterr().err
        assert peak < 10_000_000
        assert not out.exists()

    @pytest.mark.parametrize("flags, n_poles", [
        (["--two-m-v", "4", "--a", "350"], 249),
        (["--a", "1000", "--re-max", "1.2"], 211),
        (["--a", "1000", "--re-min", "1.0", "--re-max", "1.01"], 45),
    ])
    def test_near_top_roots_of_thick_barriers_answer(self, tmp_path, flags,
                                                     n_poles):
        # each used to end in a count mismatch (exit 4)
        out = tmp_path / "res.json"
        assert main(["resonances", *flags, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert len(report["poles"]) == n_poles
        assert report["remainder_check"]["ok"]

    def test_count_mismatch_exits_4_naming_both_counts(self, tmp_path, capsys,
                                                       monkeypatch):
        # a harvest one root short of the winding count
        harvest = resonances._harvest
        monkeypatch.setattr(resonances, "_harvest", lambda *args: harvest(*args)[1:])
        out = tmp_path / "res.json"
        assert main(["resonances", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        found = re.search(r"verification failure: parity \+: "
                          r"winding count (\d+) != harvest (\d+)", err)
        assert found, err
        assert int(found[1]) == int(found[2]) + 1
        assert not out.exists()

    def test_very_thick_barrier_answers(self, tmp_path):
        out = tmp_path / "res.json"
        assert main(["resonances", "--a", "200", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert len(report["poles"]) == 180
        assert report["remainder_check"]["ok"]
        assert all(p["residual"] < 1e-10 for p in report["poles"])


class TestPropagate:
    def test_rows_and_sidecar(self, tmp_path):
        out = tmp_path / "prop.csv"
        code = main(["propagate", "--k0", "1.0", "--l0", "20",
                     "--detector-x", "25", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["k0", "empirical_delay", "closed_form_delay",
                          "transmitted_fraction"]
        assert len(rows) == 1
        assert 0.0 < rows[0][3] <= 1.0
        sidecar = json.loads((tmp_path / "prop.csv.gridinfo.json").read_text())
        assert "1" in sidecar["grids"]
        grid = sidecar["grids"]["1"]
        assert 0.0 <= grid["norm_drift"] < 1e-9
        assert 0.0 <= grid["wall_probability"] < 1.0
        # the error estimates of the grid used, at k_fast = max(k0, kappa0)
        # + max(0.75, 6 pi / L0) on the 2mV = 1 barrier
        k_fast = 1.0 + 6.0 * math.pi / 20.0
        omega = k_fast ** 2 / 2.0
        assert grid["cn_phase_error"] == pytest.approx(
            (omega * grid["dt"]) ** 2 / 12.0, rel=1e-12)
        assert grid["cn_phase_error"] == pytest.approx(1e-3, rel=1e-12)
        assert grid["lattice_dispersion_error"] == pytest.approx(
            (k_fast * grid["dx"]) ** 2 / 6.0, rel=1e-12)

    def test_free_control_row(self, tmp_path):
        out = tmp_path / "prop.csv"
        code = main(["propagate", "--k0", "1.0", "--l0", "20", "--height",
                     "0", "--detector-x", "25", "--out", str(out)])
        assert code == 0
        _, rows = read_csv(out)
        sidecar = json.loads((tmp_path / "prop.csv.gridinfo.json").read_text())
        dt = sidecar["grids"]["1"]["dt"]
        assert abs(rows[0][1]) <= dt
        assert rows[0][2] == pytest.approx(0.0, abs=1e-12)

    def test_sidecar_is_the_records_grid(self, tmp_path, monkeypatch):
        # one suggest_grid call per k0, and the sidecar writes the grid that
        # each barrier run's record names
        suggested = _count_calls(monkeypatch, propagator.suggest_grid)
        records = []
        delay = cli.empirical_delay

        def recording(*args):
            result = delay(*args)
            records.append(result[1])
            return result

        monkeypatch.setattr(cli, "empirical_delay", recording)
        out = tmp_path / "prop.csv"
        assert main(["propagate", "--k0", "1.0", "--k0", "1.2", "--l0", "15",
                     "--detector-x", "20", "--out", str(out)]) == 0
        assert len(suggested) == 2
        sidecar = json.loads((tmp_path / "prop.csv.gridinfo.json").read_text())
        assert len(records) == 2
        for key, rec in zip(("1", "1.2"), records):
            grid = sidecar["grids"][key]
            spec = rec.spec
            assert [grid[name] for name in ("x_min", "x_max", "dx", "dt",
                                            "n_steps")] \
                == [spec.x_min, spec.x_max, spec.dx, spec.dt, rec.n_steps]

    def test_starved_k0_is_skipped(self, tmp_path, monkeypatch):
        delay = cli.empirical_delay

        def starving(packet, *args):
            if packet.k0 != 1.0:
                raise errors.InsufficientFluxError("no flux")
            return delay(packet, *args)

        monkeypatch.setattr(cli, "empirical_delay", starving)
        out = tmp_path / "prop.csv"
        assert main(["propagate", "--k0", "0.5", "--k0", "1.0", "--l0", "20",
                     "--detector-x", "25", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert [row[0] for row in rows] == [1.0]
        sidecar = json.loads((tmp_path / "prop.csv.gridinfo.json").read_text())
        assert list(sidecar["grids"]) == ["1"]

    def test_every_k0_starved_exits_3(self, tmp_path, capsys, monkeypatch):
        def starving(*args):
            raise errors.InsufficientFluxError("no flux")

        monkeypatch.setattr(cli, "empirical_delay", starving)
        out = tmp_path / "prop.csv"
        assert main(["propagate", "--k0", "0.5", "--k0", "1.0",
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "InsufficientFluxError: no requested k0 produced measurable flux\n")
        assert list(tmp_path.iterdir()) == []

    def test_oversized_run_fails_fast(self, tmp_path, capsys):
        # 2.6e5 points x 3.7e5 steps at k0 = 0.01: over half an hour of
        # stepping, refused before any state is built
        out = tmp_path / "prop.csv"
        start = time.perf_counter()
        code = main(["propagate", "--k0", "0.01", "--out", str(out)])
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert "point-steps, more than the 1e+09 allowed" \
            in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_rerun_byte_identical(self, tmp_path):
        args = ["propagate", "--k0", "1.2", "--l0", "15",
                "--detector-x", "20"]
        out1, out2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestExtremeInputs:
    # every row of cli_exit_codes.tsv; many used to end in a traceback (exit
    # 1) or a RuntimeWarning, which pytest makes an error
    @pytest.mark.parametrize("row", EXIT_CODE_ROWS,
                             ids=lambda row: f"{row['argv']}-{row['code']}")
    def test_exit_code(self, tmp_path, capsys, row):
        out = tmp_path / "x.out"
        run_row(row["argv"], out)
        err, prefix = capsys.readouterr().err, row["stderr_prefix"]
        if prefix:
            assert err.startswith(prefix)
            assert list(tmp_path.iterdir()) == []
        else:
            assert err == ""
            assert out.exists()

    def test_underflowing_two_mv_is_the_free_reduction(self, tmp_path):
        out = tmp_path / "s.csv"
        run_row("sweep --mass 1e-300 --height 1e-300", out)
        header, rows = read_csv(out)
        col = {name: i for i, name in enumerate(header)}
        for row in rows:
            assert row[col["two_mV"]] == 0.0
            assert row[col["tau_ph"]] == 1e-300 * 15.0 / row[col["k0"]]
            assert row[col["dtau_A"]] == row[col["dtau_B"]] == 0.0

    def test_oracle_panel_count_past_the_array_size(self, tmp_path):
        # the dtau_B row's first level is 1.4e300 panels; it is refused
        # before it is built, and the row names it
        out = tmp_path / "oc.json"
        run_row("oracle-compare --k0 0.5 --l0 150 --a 1e300", out)
        rows = {row["quantity"]: row for row in json.loads(out.read_text())["rows"]}
        assert "refinement level 0: 1.35282e+300 unresolved panels" \
            in rows["dtau_B"]["note"]

    def test_non_finite_tunneling_integrand_fails_in_one_call(self, tmp_path, monkeypatch):
        # tau_ph is NaN for k >= 1 once a^3 overflows: the t_tunnel row
        # fails on its first level instead of bisecting NaN panels
        calls = []
        grid = quadrature.phase_time_grid

        def counting(k, barrier):
            calls.append(k.size)
            return grid(k, barrier)

        monkeypatch.setattr(quadrature, "phase_time_grid", counting)
        out = tmp_path / "oc.json"
        run_row("oracle-compare --k0 0.5 --l0 150 --a 1e300", out)
        rows = {row["quantity"]: row for row in json.loads(out.read_text())["rows"]}
        assert rows["t_tunnel"]["note"] == ("non-finite integrand at refinement level 0: "
                                            "90 panels span k in [1, 8.5]")
        assert len(calls) == 1


def strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity (not RFC 8259)."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


class TestStandardJson:
    def test_non_finite_values_are_null(self, tmp_path):
        out = tmp_path / "x.json"
        cli._write_json(str(out), {
            "a": [1.5, math.nan, (-math.inf, 2)], "b": np.float64(math.inf),
            "c": {"d": None, "e": True, "f": "NaN"}})
        assert strict_json(out.read_text()) == {
            "a": [1.5, None, [None, 2]], "b": None,
            "c": {"d": None, "e": True, "f": "NaN"}}

    def test_mirror_pole_lifetimes_are_null(self, tmp_path):
        # left of Re k = 0 the 13 poles are mirrors -conj(k) with Gamma < 0,
        # whose lifetime is inf
        out = tmp_path / "r.json"
        assert main(["resonances", "--re-min", "-3", "--re-max", "-0.5",
                     "--out", str(out)]) == 0
        poles = strict_json(out.read_text())["poles"]
        assert len(poles) == 13
        assert all(p["lifetime"] is None and p["Gamma"] < 0.0 for p in poles)

    def test_non_finite_closed_form_is_null(self, tmp_path):
        # tau_ph is NaN for k >= 1 once a^3 overflows, and so are the
        # t_tunnel row's closed value and tolerance
        out = tmp_path / "oc.json"
        assert main(["oracle-compare", "--k0", "1.2", "--l0", "150",
                     "--a", "1e300", "--out", str(out)]) == 4
        rows = {r["quantity"]: r for r in strict_json(out.read_text())["rows"]}
        row = rows["t_tunnel"]
        assert row["closed"] is None and row["tolerance"] is None
        assert row["oracle"] is None and not row["pass"]


PACKAGE_ERRORS = [cls for cls in vars(errors).values()
                  if isinstance(cls, type) and issubclass(cls, Exception)
                  and not issubclass(cls, Warning)
                  and cls.__module__ == errors.__name__]


@pytest.mark.parametrize("cls", PACKAGE_ERRORS, ids=lambda c: c.__name__)
def test_exit_code_follows_the_error_class(tmp_path, capsys, monkeypatch,
                                           cls):
    # every package error is a TunnelTimesError and keeps a builtin base;
    # main picks the exit code by class
    assert len(PACKAGE_ERRORS) == 5
    assert issubclass(cls, tunneltimes.TunnelTimesError)
    assert cls is tunneltimes.TunnelTimesError or len(cls.__bases__) == 2

    def failing(cfg):
        raise cls("raised inside the command")

    monkeypatch.setattr(cli, "_barrier", failing)
    out = tmp_path / "x.csv"
    code = main(["sweep", "--out", str(out)])
    assert code == (4 if cls is errors.CountMismatchError else 3)
    label = {errors.CountMismatchError: "verification failure",
             errors.DomainError: "domain error"}.get(cls, cls.__name__)
    assert f"{label}: raised inside the command" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("module", ["scipy.sparse", "scipy.linalg",
                                    "concurrent.futures"])
def test_cli_import_skips_large_module(module):
    # No module needs scipy.sparse, and only the Crank-Nicolson stepper needs
    # scipy.linalg and concurrent.futures (for the free run); keep CLI
    # start-up free of these imports.
    src = str(Path(tunneltimes.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = f"import sys, tunneltimes.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"
