"""The benchmark's correctness oracle (``perfbench/oracle.py``) on the
configs the CLI builds, and the obstruction search against its mpmath norms.

The benchmark reads config entries through their ``.hi`` and ``.lo`` and
recomputes the norms of ``obstruction_search(keep_norms=True)``, so a config
entry type or a search that would fail its check fails here first.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp

import nilorbit
from nilorbit import cli, hardy as H, orbits as O
from nilorbit.constants import REGISTRY
from nilorbit.ddmath import BLOCK

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("perfbench_oracle", ROOT / "perfbench" / "oracle.py")
oracle = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)
CONSTANTS = {name: c.decimal for name, c in REGISTRY.items()}
TOL = 1e-9


@pytest.mark.parametrize("path", sorted((ROOT / "instances").glob("*.json")), ids=lambda p: p.stem)
def test_oracle_reads_cli_configs(path):
    """oracle_coords and _lifts on a CLI-built config agree with the engine,
    at the indices the benchmark draws for seed 0."""
    cfg = cli.build_orbit_config(cli.load_config(str(path)))
    for got, want in zip(oracle._lifts(cfg), O.generator_horizontal_lifts(cfg)):
        assert [float(x) for x in got] == pytest.approx([float(x) for x in want], rel=TOL)
    ns = oracle.oracle_indices(0, 10 ** 5)
    _, coords, _ = O.OrbitEngine(cfg).samples(1, max(ns))
    with mp.workprec(oracle.PREC_BITS):
        for n in ns:
            want = oracle.oracle_coords(cfg, n, CONSTANTS, H.floor_at)
            assert max(oracle.circular_distance(x, y) for x, y in zip(coords[n - 1], want)) <= TOL


def test_obstruction_norms_against_mpmath():
    """heisenberg_pair at Mmax 6: 28,560 frequencies, more than one BLOCK.
    The norms are Python floats in np.ndindex order, the argmin is the first
    minimum in that order, and sampled norms (the argmin, both ends and both
    sides of the first block boundary among them) match the 400-bit oracle."""
    doc = cli.load_config(str(ROOT / "instances" / "heisenberg_pair.json"))
    cfg = cli.build_orbit_config(doc)
    plan = cli.build_window(doc, cfg)
    N, M = 10 ** 4, 6
    r = O.obstruction_search(cfg, plan, N, M, keep_norms=True)
    norms = r.norms_by_frequency
    order = [k for k in (tuple(x - M for x in f) for f in np.ndindex(*(2 * M + 1,) * cfg.horiz_dim))
             if any(k)]
    assert len(order) > BLOCK and list(norms) == order
    assert type(r.min_norm) is float and all(type(v) is float for v in norms.values())
    least = min(norms.values())
    first = next(k for k in order if norms[k] == least)
    assert r.argmin == first and r.min_norm == norms[first]
    vecs, scale = oracle._window_vectors(nilorbit, cfg, plan, N, CONSTANTS)
    lifts = oracle._lifts(cfg)
    # the zero frequency precedes the block boundary, so these are flat indices BLOCK -/+ 1/2
    picks = [first, order[0], order[-1], order[BLOCK - 2], order[BLOCK - 1]]
    picks += random.Random(0).sample(order, 60)
    with mp.workprec(oracle.PREC_BITS):
        for k in picks:
            assert norms[k] == pytest.approx(float(oracle._norm(k, vecs, lifts, scale)), rel=TOL), k
