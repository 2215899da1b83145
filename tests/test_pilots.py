"""Pilot drift: rerun the committed pilot commands and compare with pilot/*.csv.

The statistics are deterministic on one platform but their last ulps move
with the numpy and libm builds, so values are compared at a relative
tolerance of 1e-9 (``discrepancy_pair.csv`` is checked in test_exponents.py).
"""

from __future__ import annotations

import csv
from pathlib import Path

import pytest

from nilorbit import cli

ROOT = Path(__file__).resolve().parent.parent
PILOTS = [
    ("weyl_torus.csv", ["weyl", "torus_boshernitzan.json"]),
    ("average_dependent.csv", ["average", "pointwise_dependent.json"]),
    ("obstruction_pair.csv", ["obstruction", "heisenberg_pair.json", "--N", "1e3,1e4,1e5",
                              "--Mmax", "3"]),
]


@pytest.mark.parametrize("pilot, args", PILOTS, ids=[p for p, _ in PILOTS])
def test_pilot_reproduced(pilot, args, tmp_path):
    out = tmp_path / pilot
    sub, config, *rest = args
    assert cli.main([sub, str(ROOT / "instances" / config), *rest, "--out", str(out)]) == 0
    got = list(csv.reader(out.open()))
    want = list(csv.reader((ROOT / "pilot" / pilot).open()))
    assert got[0] == want[0] and len(got) == len(want)
    for g, w in zip(got[1:], want[1:]):
        assert len(g) == len(w)
        for a, b in zip(g, w):
            if b == "" or a == b:
                assert a == b
            else:
                assert float(a) == pytest.approx(float(b), rel=1e-9), (pilot, g, w)
