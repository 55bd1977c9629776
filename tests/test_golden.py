"""Byte-exact regeneration of the pinned reference curves.

The golden CSVs and the pole report were generated by the CLI with default
parameters (plus one small free-barrier sweep) after the acceptance suite
verified the physics they encode (resonance peaks, packet dependence near
zero momentum, the age-difference dips). Any change to the closed forms, the
pole search, formatting, or grid conventions shows up here first.
"""

from pathlib import Path

import pytest

from tunneltimes.cli import main

GOLDEN = Path(__file__).parent / "golden"

# golden file -> the command that writes it, without --out
COMMANDS = {
    "fig3.csv": "figure fig3",
    "fig4.csv": "figure fig4",
    "sweep.csv": "sweep",
    # V*a = 0 takes the exact free reduction instead of the barrier formulas
    "sweep_free.csv": "sweep --two-m-v 0 --k0-min 0.05 --k0-max 1.5 "
                      "--k0-step 0.05 --l0 40 --l0 150",
    # the pole search's index seeds, winding walk and remainder sampling
    "resonances.json": "resonances",
}


@pytest.mark.parametrize("golden", COMMANDS)
def test_regenerates_identically(tmp_path, golden):
    out = tmp_path / golden
    assert main([*COMMANDS[golden].split(), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()
