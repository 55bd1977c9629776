import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tunneltimes
from tunneltimes import cli, closedform, phasetime, quadrature
from tunneltimes.cli import main


def _count_calls(monkeypatch, fn):
    """Replace fn by a call-recording wrapper in every package module."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for mod in (cli, closedform, phasetime, quadrature):
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

    def test_empty_range_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["sweep", "--k0-min", "2.0", "--k0-max", "1.0",
                     "--out", str(out)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [["--k0-min", "0", "--k0-max", "0.1"],
                                     ["--l0", "0"]])
    def test_domain_error_writes_no_file(self, tmp_path, capsys, bad):
        # every value is computed before the output is opened
        out = tmp_path / "bad.csv"
        code = main(["sweep", *bad, "--out", str(out)])
        assert code == 3
        assert "domain error" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("bad", [
        ["--k0-step", "nan"], ["--k0-min", "nan"], ["--k0-max", "nan"],
        ["--k0-max", "inf"], ["--l0", "nan"], ["--l0", "150", "--l0", "inf"],
    ])
    def test_non_finite_flag_exits_2(self, tmp_path, capsys, bad):
        out = tmp_path / "x.csv"
        code = main(["sweep", *bad, "--out", str(out)])
        assert code == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", [
        ["--a", "nan"], ["--two-m-v", "nan"], ["--mass", "nan"],
        ["--height", "inf"],
    ])
    def test_non_finite_barrier_flag_exits_2(self, tmp_path, capsys, bad):
        out = tmp_path / "x.csv"
        code = main(["sweep", *bad, "--out", str(out)])
        assert code == 2
        assert "must be finite" in capsys.readouterr().err
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

    @pytest.mark.parametrize("argv", [
        ["oracle-compare", "--k0", "nan"],
        ["propagate", "--k0", "nan"],
        ["propagate", "--detector-x", "nan"],
        ["resonances", "--re-max", "nan"],
    ])
    def test_non_finite_command_flag_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "x.out"
        code = main([*argv, "--out", str(out)])
        assert code == 2
        assert "config error" in capsys.readouterr().err
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

    def test_rerun_byte_identical(self, tmp_path):
        args = ["propagate", "--k0", "1.2", "--l0", "15",
                "--detector-x", "20"]
        out1, out2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("module", ["scipy.sparse", "scipy.linalg"])
def test_cli_import_skips_large_module(module):
    # No module needs scipy.sparse, and only the Crank-Nicolson stepper needs
    # scipy.linalg; both are large imports, so keep CLI start-up free of them.
    src = str(Path(tunneltimes.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = f"import sys, tunneltimes.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"
