"""Correctness checks for every workload's outputs, with a 400-bit mpmath oracle.

The oracle recomputes what the program reports from the same inputs, in
exact or 400-bit arithmetic:

* orbit coordinates: g(n) = b_1^(a_1(n)) ... b_k^(a_k(n)) x built from the
  matrix log/exp series of each unitriangular generator and reduced to the
  unit cube by integer column operations.  Generator and base-point entries
  are the exact double-double values the engine uses, so the measured error
  is the engine's own.  In ``floor`` mode the exponent is ``hardy.floor_at``;
* obstruction norms: the window polynomial of each frequency, from exact
  symbolic derivatives evaluated in mpmath, the exact binomial change of
  basis and the generators' horizontal entries.  The window length L(N) is
  taken from the library's float evaluation because the search defines its
  norm scale from it.

Seed 0 runs the shipped instances, so their outputs are also compared with
``pilot/*.csv`` at a relative tolerance.
"""

from __future__ import annotations

import csv
import math
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from mpmath import mp, mpf

PREC_BITS = 400
PILOT_RTOL = 1e-9      # pilot CSVs were written on another machine; last-ulp drift is expected
COORD_TOL = 1e-9       # largest accepted circular coordinate error mod 1
NORM_RTOL = 1e-9       # largest accepted relative error of a reported obstruction norm
STAT_TOL = 1e-12       # independent recomputation of a statistic at the smallest N
ORACLE_POINTS = 64
ERR_FLOOR = 1e-30      # below double-double resolution; keeps accuracy digits finite


@dataclass
class CheckResult:
    failures: list[str] = field(default_factory=list)
    stats: dict[str, float] = field(default_factory=dict)
    errors: list[float] = field(default_factory=list)  # one oracle error per checked point

    def fail(self, msg: str) -> None:
        self.failures.append(msg)

    def worst(self, key: str, value: float) -> None:
        self.stats[key] = max(self.stats.get(key, 0.0), value)

    @property
    def ok(self) -> bool:
        return not self.failures


def accuracy_digits(errors: list[float]) -> float:
    """-log10 of the 90th percentile of the oracle errors.

    The largest error is gated by COORD_TOL and NORM_RTOL.  It makes a poor
    metric: for obstruction norms it depends on how much a seed's coefficients
    cancel, and moves by a digit or more from seed to seed.
    """
    p90 = statistics.quantiles(errors, n=10, method="inclusive")[-1]
    return -math.log10(max(p90, ERR_FLOOR))


# --------------------------------------------------------------------------
# CSV helpers

def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def compare_pilot(out: Path, pilot: Path, res: CheckResult) -> None:
    """Same header, labels and empty cells; numbers within PILOT_RTOL."""
    h1, r1 = read_csv(out)
    h2, r2 = read_csv(pilot)
    if h1 != h2 or len(r1) != len(r2):
        res.fail(f"{out.name}: shape differs from pilot {pilot.name}")
        return
    drift = 0.0
    for a_row, b_row in zip(r1, r2):
        for a, b in zip(a_row, b_row):
            try:
                fa, fb = float(a), float(b)
            except ValueError:
                if a != b:
                    res.fail(f"{out.name}: cell {a!r} != pilot {b!r}")
                continue
            drift = max(drift, _rel(fa, fb))
    res.worst("pilot_rel_drift_max", drift)
    if drift > PILOT_RTOL:
        res.fail(f"{out.name}: relative drift {drift:.3g} from pilot exceeds {PILOT_RTOL}")


# --------------------------------------------------------------------------
# exact group arithmetic

def coordinate_order(d: int) -> list[tuple[int, int]]:
    return [(i, i + o) for o in range(1, d) for i in range(d - o)]


def _dd(x) -> mpf:
    return mpf(x.hi) + mpf(x.lo)


def _unit(d: int, entries) -> list[list]:
    m = [[mpf(int(i == j)) for j in range(d)] for i in range(d)]
    for (i, j), v in zip(coordinate_order(d), entries):
        m[i][j] = v
    return m


def _mul(a, b):
    d = len(a)
    return [[mp.fsum(a[i][k] * b[k][j] for k in range(d)) for j in range(d)] for i in range(d)]


def _power(entries, s, d: int):
    """b^s = exp(s log b), both finite series since b - I is nilpotent."""
    nil = _unit(d, entries)
    for i in range(d):
        nil[i][i] = mpf(0)
    log = [[mpf(0)] * d for _ in range(d)]
    term = nil
    for j in range(1, d):
        for r in range(d):
            for c in range(d):
                log[r][c] += (-1) ** (j + 1) * term[r][c] / j
        term = _mul(term, nil)
    out = [[mpf(int(i == j)) for j in range(d)] for i in range(d)]
    term = out
    for j in range(1, d):
        term = _mul(term, log)
        for r in range(d):
            for c in range(d):
                out[r][c] += term[r][c] * s ** j / math.factorial(j)
    return out


def _reduce(m, d: int) -> list:
    for i, j in coordinate_order(d):
        k = mp.floor(m[i][j])
        for r in range(i + 1):
            m[r][j] -= k * m[r][i]
    return [m[i][j] for i, j in coordinate_order(d)]


def eval_mp(f, n: int, constants: dict[str, str]) -> mpf:
    """f(n) for a parsed HardyExpr; named constants use their registered decimals."""
    x = mpf(n)
    ln = mp.log(x)
    total = mpf(0)
    for t in f.terms:
        v = mpf(t.coeff.numerator) / t.coeff.denominator
        if t.const is not None:
            v *= mpf(constants[t.const])
        if t.power != 0:
            v *= x ** (mpf(t.power.numerator) / t.power.denominator)
        if t.logpow != 0:
            v *= ln ** t.logpow
        total += v
    return total


def oracle_coords(cfg, n: int, constants: dict[str, str], floor_at) -> list:
    """Reduced coordinates of orbit point n, factor-major, in coordinate order."""
    exps = []
    for f in cfg.functions:
        if cfg.floor_mode.value == "floor":
            exps.append(mpf(floor_at(f, n)))
        else:
            exps.append(eval_mp(f, n, constants))
    out = []
    pos = 0
    for bi, d in enumerate(cfg.blocks):
        gens = [bi] if len(cfg.blocks) > 1 else range(len(cfg.generators))
        mat = _unit(d, [mpf(0)] * (d * (d - 1) // 2))
        for gi in gens:
            mat = _mul(mat, _power([_dd(v) for v in cfg.generators[gi]], exps[gi], d))
        m = d * (d - 1) // 2
        mat = _mul(mat, _unit(d, [_dd(v) for v in cfg.base_point[pos:pos + m]]))
        pos += m
        out.extend(_reduce(mat, d))
    return out


def circular_distance(x: float, y: mpf) -> float:
    f = float((mpf(x) - y) % 1)
    return min(f, 1.0 - f)


def oracle_indices(seed: int, n_max: int) -> list[int]:
    """Seed-drawn indices in [1, n_max]; the endpoints are always included."""
    rng = random.Random(f"oracle:{seed}")
    picks = {1, n_max}
    while len(picks) < min(ORACLE_POINTS, n_max):
        picks.add(rng.randint(1, n_max))
    return sorted(picks)


def check_coords(cfg, got: dict[int, list], constants, floor_at, res: CheckResult) -> None:
    """Compare the program's coordinates with the oracle.

    ``got`` maps each index to every coordinate vector the program produced
    for it; the error at n is the largest over them.
    """
    err = 0.0
    with mp.workprec(PREC_BITS):
        for n, versions in sorted(got.items()):
            want = oracle_coords(cfg, n, constants, floor_at)
            at_n = max(circular_distance(g, w) for v in versions for g, w in zip(v, want))
            res.errors.append(at_n)
            err = max(err, at_n)
    res.worst("coord_err_max", err)
    if not err <= COORD_TOL:
        res.fail(f"coordinate error {err:.3g} against the oracle exceeds {COORD_TOL}")


def check_recorded(cfg, indices: list[int], samples: list, constants, floor_at,
                   res: CheckResult) -> None:
    """Check the coordinates a CLI run computed at ``indices``.

    ``samples`` holds one ``[n, coords]`` pair per engine chunk of the run
    that covered n (``child.py --record``), so each value is the one the
    CLI's statistic consumed, from the chunk the CLI evaluated.
    """
    got: dict[int, list] = {}
    for n, coords in samples:
        got.setdefault(n, []).append(coords)
    missing = [n for n in indices if n not in got]
    if missing:
        res.fail(f"the run's engine chunks never covered n = {missing[:4]}"
                 f"{' ...' if len(missing) > 4 else ''}")
    check_coords(cfg, got, constants, floor_at, res)


# --------------------------------------------------------------------------
# per-workload output checks

def check_discrepancy(nilorbit, cfg, out: Path, ns: tuple[int, ...], grid: int,
                      res: CheckResult) -> None:
    _, rows = read_csv(out)
    values = {int(r[0]): float(r[2]) for r in rows}
    if sorted(values) != list(ns) or len(rows) != len(ns):
        res.fail(f"discrepancy rows cover N={sorted(values)}, expected {list(ns)}")
        return
    if any(not 0.0 < v <= 1.0 for v in values.values()):
        res.fail("discrepancy outside (0, 1]")
    # independent histogram and anchored-box sums at the smallest N
    n0 = min(values)
    coords = nilorbit.orbits.OrbitEngine(cfg).samples(1, n0)[1]
    dim = coords.shape[1]
    hist, _ = np.histogramdd(coords, bins=grid, range=[(0.0, 1.0)] * dim)
    for ax in range(dim):
        hist = np.cumsum(hist, axis=ax)
    vol = np.ones((grid,) * dim)
    axis = np.arange(1, grid + 1) / grid
    for ax in range(dim):
        shape = [1] * dim
        shape[ax] = grid
        vol = vol * axis.reshape(shape)
    want = float(np.max(np.abs(hist / n0 - vol)))
    if _rel(values[n0], want) > STAT_TOL:
        res.fail(f"discrepancy at N={n0} is {values[n0]!r}, recomputed {want!r}")


def check_average(nilorbit, cfg, doc: dict, out: Path, ns: tuple[int, ...],
                  res: CheckResult) -> None:
    _, rows = read_csv(out)
    if [int(r[0]) for r in rows] != list(ns):
        res.fail(f"average rows cover N={[r[0] for r in rows]}, expected {list(ns)}")
        return
    ks = [t["k"] for t in doc["tests"]]
    # a horizontal character integrates to 1 when k = 0 and to 0 otherwise
    limit = None
    if doc.get("declared_closure") == "full":
        limit = 0j if any(any(k) for k in ks) else 1 + 0j
    prev = None
    for r in rows:
        a = complex(float(r[1]), float(r[2]))
        if abs(a) > 1.0 + 1e-12:
            res.fail(f"|A_N| > 1 at N={r[0]}")
        if limit is not None:
            if complex(float(r[3]), float(r[4])) != limit or abs(float(r[5]) - abs(a - limit)) > STAT_TOL:
                res.fail(f"limit or abs_err inconsistent at N={r[0]}")
        if prev is not None and abs(float(r[6]) - abs(a - prev)) > STAT_TOL:
            res.fail(f"cauchy_inc inconsistent at N={r[0]}")
        prev = a
    # independent product integrand at the smallest N
    n0 = int(rows[0][0])
    _, _, horiz = nilorbit.orbits.OrbitEngine(cfg).samples(1, n0)
    vals = np.ones(n0, dtype=complex)
    h0 = 0
    for d, k in zip(cfg.blocks, ks):
        vals *= np.exp(2j * np.pi * (horiz[:, h0:h0 + d - 1] @ np.asarray(k, dtype=float)))
        h0 += d - 1
    want = complex(math.fsum(vals.real), math.fsum(vals.imag)) / n0
    got = complex(float(rows[0][1]), float(rows[0][2]))
    if abs(got - want) > STAT_TOL:
        res.fail(f"A_N at N={n0} is {got!r}, recomputed {want!r}")


def check_orbit(nilorbit, cfg, out: Path, n: int, seed: int, constants,
                res: CheckResult) -> None:
    header, _ = read_csv(out)
    data = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    m, h = cfg.coords_dim, cfg.horiz_dim
    if header[0] != "n" or data.shape != (n, 1 + m + h):
        res.fail(f"orbit CSV has shape {data.shape}, expected {(n, 1 + m + h)}")
        return
    if not np.array_equal(data[:, 0], np.arange(1, n + 1)):
        res.fail("orbit CSV indices are not 1..N")
    coords = data[:, 1:1 + m]
    if not ((coords >= 0) & (coords < 1)).all():
        res.fail("orbit coordinate outside [0, 1)")
    c0 = 0
    horiz_cols = []
    for d in cfg.blocks:
        horiz_cols.extend(range(c0, c0 + d - 1))
        c0 += d * (d - 1) // 2
    if not np.array_equal(data[:, 1 + m:], coords[:, horiz_cols]):
        res.fail("horizontal columns differ from the coordinate columns")
    check_coords(cfg, {k: [coords[k - 1]] for k in oracle_indices(seed, n)}, constants,
                 nilorbit.hardy.floor_at, res)


def _binomial(mono: list) -> list:
    """Monomial to binomial basis: n^j = sum_i S2(j, i) i! binom(n, i)."""
    d = len(mono) - 1
    s2 = [[0] * (d + 1) for _ in range(d + 1)]
    s2[0][0] = 1
    for j in range(1, d + 1):
        for i in range(1, j + 1):
            s2[j][i] = i * s2[j - 1][i] + s2[j - 1][i - 1]
    return [mp.fsum(mono[j] * s2[j][i] * math.factorial(i) for j in range(i, d + 1))
            for i in range(d + 1)]


def _window_vectors(nilorbit, cfg, plan, N: int, constants) -> tuple[list, int]:
    """Binomial coefficients of each function's window polynomial, and L(N)."""
    hardy = nilorbit.hardy
    orders = iter(plan.orders) if plan is not None else iter(())
    vecs = []
    active = False
    for f in cfg.functions:
        poly, rest = hardy.decompose(f)
        mono = [mpf(0)]
        g = hardy.classify(rest)
        if not (rest.is_zero or g.is_subfractional or g.tends_to is hardy.LimitKind.ZERO):
            active = True
            k = next(orders)
            mono = [eval_mp(hardy.derivative(rest, j), N, constants) / math.factorial(j)
                    for j in range(k + 1)]
        for t in poly.terms:
            c = mpf(t.coeff.numerator) / t.coeff.denominator
            if t.const is not None:
                c *= mpf(constants[t.const])
            a = int(t.power)
            mono += [mpf(0)] * (a + 1 - len(mono))
            for j in range(a + 1):
                mono[j] += c * math.comb(a, j) * mpf(N) ** (a - j)
        vecs.append(_binomial(mono))
    L = hardy.evaluate(plan.L, float(N)) if active else math.sqrt(N)
    return vecs, max(1, int(L))


def _lifts(cfg) -> list[list]:
    lifts = []
    offset = 0
    for gi, entries in enumerate(cfg.generators):
        d = cfg.blocks[gi] if len(cfg.blocks) > 1 else cfg.dim
        row = [mpf(0)] * cfg.horiz_dim
        for i in range(d - 1):
            row[offset + i] = _dd(entries[i])
        lifts.append(row)
        if len(cfg.blocks) > 1:
            offset += d - 1
    return lifts


def _norm(k, vecs, lifts, scale: int) -> mpf:
    width = max(len(v) for v in vecs)
    combined = [mpf(0)] * width
    for v, lift in zip(vecs, lifts):
        c = mp.fsum(kj * u for kj, u in zip(k, lift))
        for j, a in enumerate(v):
            combined[j] += a * c
    best = mpf(0)
    for i in range(1, width):
        frac = combined[i] - mp.floor(combined[i])
        best = max(best, mpf(scale) ** i * min(frac, 1 - frac))
    return best


def check_obstruction(nilorbit, doc: dict, cfg, out: Path, ns: tuple[int, ...], m_max: int,
                      seed: int, instance: str, constants, res: CheckResult) -> None:
    """Reported argmin norm recomputed; 64 seed-drawn frequencies may not beat it.

    The CLI writes only the minimum norm and its argmin.  The norms at the
    drawn frequencies therefore come from a separate in-process
    ``obstruction_search(..., keep_norms=True)`` with the same library, not
    from the CLI run, and are compared with the oracle too: 1 of the 65
    errors per N that enter ``accuracy_digits`` is the CLI's own.  The record
    gives the two apart as ``reported_norm_rel_err_max`` and
    ``library_norm_rel_err_max``.
    """
    _, rows = read_csv(out)
    by_n: dict[int, dict[str, float]] = {}
    for N, stat, value in rows:
        by_n.setdefault(int(N), {})[stat] = float(value)
    dh = cfg.horiz_dim
    if sorted(by_n) != list(ns) or len(rows) != len(ns) * (1 + dh):
        res.fail(f"obstruction rows cover N={sorted(by_n)}, expected {list(ns)}")
        return
    plan = nilorbit.cli.build_window(doc, cfg)
    lifts = _lifts(cfg)
    with mp.workprec(PREC_BITS):
        for N, stats in by_n.items():
            reported = stats["min_cinfty_norm"]
            k = tuple(int(stats[f"argmin_k{j + 1}"]) for j in range(dh))
            if not any(k) or max(map(abs, k)) > m_max:
                res.fail(f"argmin {k} at N={N} is not a nonzero frequency within Mmax")
                continue
            vecs, scale = _window_vectors(nilorbit, cfg, plan, N, constants)
            want = _norm(k, vecs, lifts, scale)
            err = _rel(reported, float(want))
            res.errors.append(err)
            res.worst("reported_norm_rel_err_max", err)
            if err > NORM_RTOL:
                res.fail(f"min norm {reported!r} at N={N} differs from oracle {float(want)!r}")
            library = nilorbit.orbits.obstruction_search(cfg, plan, N, m_max,
                                                         keep_norms=True).norms_by_frequency
            rng = random.Random(f"freq:{seed}:{instance}:{N}")
            for _ in range(ORACLE_POINTS):
                kk = (0,) * dh
                while not any(kk):
                    kk = tuple(rng.randint(-m_max, m_max) for _ in range(dh))
                other = _norm(kk, vecs, lifts, scale)
                lib_err = _rel(library[kk], float(other))
                res.errors.append(lib_err)
                res.worst("library_norm_rel_err_max", lib_err)
                if lib_err > NORM_RTOL:
                    res.fail(f"library norm at {kk}, N={N} differs from oracle {float(other)!r}")
                if other < want * (1 - NORM_RTOL):
                    res.fail(f"frequency {kk} has norm {float(other)!r} below the "
                             f"reported minimum {reported!r} at N={N}")
