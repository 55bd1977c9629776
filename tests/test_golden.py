"""Byte-exact regeneration of the pinned reference curves.

The golden CSVs and the pole report were generated by the CLI with default
parameters (plus one small free-barrier sweep) after the acceptance suite
verified the physics they encode (resonance peaks, packet dependence near
zero momentum, the age-difference dips). Any change to the closed forms, the
pole search, formatting, or grid conventions shows up here first.
"""

from pathlib import Path

from tunneltimes.cli import main

GOLDEN = Path(__file__).parent / "golden"


def test_fig3_regenerates_identically(tmp_path):
    out = tmp_path / "fig3.csv"
    assert main(["figure", "fig3", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "fig3.csv").read_bytes()


def test_fig4_regenerates_identically(tmp_path):
    out = tmp_path / "fig4.csv"
    assert main(["figure", "fig4", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "fig4.csv").read_bytes()


def test_sweep_regenerates_identically(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "sweep.csv").read_bytes()


def test_free_barrier_sweep_regenerates_identically(tmp_path):
    # V*a = 0 takes the exact free reduction instead of the barrier formulas
    out = tmp_path / "sweep_free.csv"
    assert main(["sweep", "--two-m-v", "0", "--k0-min", "0.05", "--k0-max",
                 "1.5", "--k0-step", "0.05", "--l0", "40", "--l0", "150",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "sweep_free.csv").read_bytes()


def test_resonances_report_regenerates_identically(tmp_path):
    # pins the pole search's seed grid, winding walk and remainder sampling
    out = tmp_path / "resonances.json"
    assert main(["resonances", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "resonances.json").read_bytes()
