"""Command-line front end: JSON experiment configs in, CSV tables out.

Subcommands mirror the library surface: ``classify`` for the growth/condition
checkers, ``window`` for common-window plans, and ``orbit``, ``weyl``,
``discrepancy``, ``obstruction``, ``average`` as drivers over the orbit and
averaging engines.  Outputs are deterministic for a fixed config and
precision regardless of worker count.

Exit codes: 0 ok, 2 config error, 3 precondition error, 4 precision cap
exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import averages as avg
from . import hardy, orbits, windows
from .hardy import HardyParseError, PreconditionError, UnrepresentableCoefficient

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_PRECISION = 4

_ENTRY = {"type": ["number", "string"]}
_TEST = {
    "type": "object",
    "properties": {
        "type": {"enum": ["one", "horizontal_character", "coordinate_character", "bump"]},
        "k": {"type": "array", "items": {"type": "integer"}},
        "m": {"type": "array", "items": {"type": "integer"}},
        "coords": {"type": "array", "items": {"type": "integer"}},
    },
    "required": ["type"],
    "additionalProperties": False,
}
CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "group": {
            "type": "object",
            "properties": {
                "dim": {"type": "integer", "minimum": 2},
                "blocks": {"type": "array", "items": {"type": "integer", "minimum": 2}},
            },
            "required": ["dim"],
            "additionalProperties": False,
        },
        "generators": {"type": "array", "items": {"type": "array", "items": _ENTRY}},
        "functions": {"type": "array", "items": {"type": "string"}},
        "base_point": {"type": "array", "items": _ENTRY},
        "floor_mode": {"enum": ["real", "floor"]},
        "N_grid": {"anyOf": [{"type": "string"},
                             {"type": "array", "items": {"type": "integer", "minimum": 1}}]},
        "tests": {"type": "array", "items": _TEST},
        "declared_closure": {"enum": ["full", "undeclared"]},
        "window": {"anyOf": [{"const": "auto"},
                             {"type": "object",
                              "properties": {"gamma": {"type": ["string", "number"]}},
                              "required": ["gamma"], "additionalProperties": False}]},
        "precision": {"enum": ["double", "dd"]},
        "seed": {"type": "integer"},  # accepted and ignored: no computation draws at random
        "N_cap": {"type": "integer", "minimum": 1},
        "allow_beyond_cap": {"type": "boolean"},
    },
    "required": ["group", "generators", "functions"],
    "additionalProperties": False,
}


class ConfigError(ValueError):
    pass


@contextlib.contextmanager
def _config_errors():
    """A ValueError raised inside, other than a PreconditionError, is a config error."""
    try:
        yield
    except PreconditionError:
        raise
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _is_type(x, name: str) -> bool:
    """JSON Schema's types: a bool is no number, and an integral float is an integer."""
    if name in ("number", "integer"):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            return False
        return name == "number" or isinstance(x, int) or x.is_integer()
    return isinstance(x, {"object": dict, "array": list, "string": str, "boolean": bool}[name])


def _schema_error(x, schema: dict, path: str = "$"):
    """The first violation of a JSON Schema by the JSON value x, as a message
    naming its JSON path, or None.  Interprets exactly the keywords that
    CONFIG_SCHEMA uses."""
    types = schema.get("type")
    types = [types] if isinstance(types, str) else types
    if types and not any(_is_type(x, name) for name in types):
        return f"{path}: {x!r} is not of type {' or '.join(map(repr, types))}"
    if "enum" in schema and x not in schema["enum"]:
        return f"{path}: {x!r} is not one of {schema['enum']!r}"
    if "const" in schema and x != schema["const"]:
        return f"{path}: {schema['const']!r} was expected, got {x!r}"
    if "anyOf" in schema and all(_schema_error(x, s, path) for s in schema["anyOf"]):
        return f"{path}: {x!r} is not valid under any of the given schemas"
    if "minimum" in schema and _is_type(x, "number") and x < schema["minimum"]:
        return f"{path}: {x!r} is less than the minimum of {schema['minimum']}"
    children = []
    if isinstance(x, dict):
        for key in schema.get("required", ()):
            if key not in x:
                return f"{path}: {key!r} is a required property"
        props = schema.get("properties", {})
        for key, value in x.items():
            if key in props:
                children.append((value, props[key], f"{path}.{key}"))
            elif schema.get("additionalProperties") is False:
                return f"{path}: unexpected property {key!r}"
    if isinstance(x, list) and "items" in schema:
        children += [(value, schema["items"], f"{path}[{i}]") for i, value in enumerate(x)]
    return next(filter(None, (_schema_error(*child) for child in children)), None)


def parse_grid(spec) -> tuple[int, ...]:
    """Grid forms: integer list, comma list ('1e3,1e4'), or 'a:b:decade'; never empty."""
    if isinstance(spec, (list, tuple)):
        if not spec:
            raise ConfigError("empty N grid")
        return tuple(int(x) for x in spec)
    text = str(spec)

    def value(x: str) -> int:
        try:
            return int(float(x))
        except (ValueError, OverflowError) as e:
            raise ConfigError(f"bad grid {spec!r}: {e}") from e

    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3 or parts[2] != "decade":
            raise ConfigError(f"grid must be values or 'a:b:decade', got {spec!r}")
        a, b = value(parts[0]), value(parts[1])
        if a < 1 or b < a:
            raise ConfigError(f"bad grid range {spec!r}")
        grid = []
        n = a
        while n <= b:
            grid.append(n)
            n *= 10
        return tuple(grid)
    return tuple(value(x) for x in text.split(","))


def load_config(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    error = _schema_error(doc, CONFIG_SCHEMA)
    if error is not None:
        raise ConfigError(f"config schema violation: {error}")
    return doc


def dump_config(doc: dict) -> str:
    """Canonical serialization; re-parses to an equal document."""
    return json.dumps(doc, indent=2, sort_keys=True)


def build_orbit_config(doc: dict) -> orbits.OrbitConfig:
    dim = doc["group"]["dim"]
    blocks = tuple(doc["group"].get("blocks", [dim]))
    try:
        functions = tuple(hardy.parse(s) for s in doc["functions"])
    except HardyParseError as e:
        raise ConfigError(f"bad function expression: {e}") from e
    layout = orbits.block_layout(blocks, len(doc["generators"]))
    base = doc.get("base_point", [0] * layout.coords_dim)
    with _config_errors():
        return orbits.OrbitConfig(
            dim=dim, blocks=blocks, functions=functions,
            generators=tuple(tuple(orbits.as_entry(v) for v in g) for g in doc["generators"]),
            base_point=tuple(orbits.as_entry(v) for v in base),
            floor_mode=orbits.FloorMode(doc.get("floor_mode", "real")),
            precision=doc.get("precision", "dd"),
            n_cap=doc.get("N_cap", orbits.DEFAULT_N_CAP),
            allow_beyond_cap=doc.get("allow_beyond_cap", False),
        )


def build_window(doc: dict, cfg: orbits.OrbitConfig):
    """The window plan for the config's non-polynomial parts (None if none),
    at the config's pinned gamma or found automatically."""
    spec = doc.get("window", "auto")
    try:
        gamma = None if spec == "auto" else Fraction(str(spec["gamma"]))
    except (ValueError, ZeroDivisionError) as e:
        raise ConfigError(f"window gamma {spec['gamma']!r} is not a rational: {e}") from e
    return windows.window_plan(cfg.functions, gamma)


def build_experiment(doc: dict) -> avg.AverageExperiment:
    cfg = build_orbit_config(doc)
    with _config_errors():
        return avg.AverageExperiment(
            cfg, tuple(doc.get("tests", [{"type": "one"}] * len(cfg.blocks))),
            declared_closure=doc.get("declared_closure", "undeclared"),
            n_grid=parse_grid(doc.get("N_grid", [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6])))


# --------------------------------------------------------------------------
# output helpers

def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


@contextlib.contextmanager
def _output(path):
    """An output file open for writing; an OSError while it is written is a
    config error."""
    try:
        with open(path, "w") as fh:
            yield fh
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e.strerror or e}") from e


def write_csv(path, header: list[str], rows: list[list]) -> None:
    text = ",".join(header) + "\n"
    for row in rows:
        text += ",".join(_fmt(x) for x in row) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with _output(path) as fh:
            fh.write(text)


LONG_HEADER = ["N", "statistic", "value"]


def emit_plot_files(out: str, header: list[str], rows: list[list]) -> None:
    """One two-column `x y` file per series, x = the first column.  Rows in
    the long layout (LONG_HEADER) form one series per statistic, other rows
    one per further column, empty cells left out."""
    long = header == LONG_HEADER
    series: dict[str, list[str]] = {} if long else {name: [] for name in header[1:]}
    for r in rows:
        for name, y in [r[1:]] if long else zip(header[1:], r[1:]):
            if y != "":
                series.setdefault(name, []).append(f"{_fmt(r[0])} {_fmt(y)}")
    stem = Path(out).with_suffix("")
    for name, lines in series.items():
        with _output(f"{stem}.{name}.xy") as fh:
            fh.write("\n".join(lines) + "\n")


def _emit(args, header: list[str], rows: list[list]) -> int:
    """A command's output: the CSV, and its plot files if asked for; EXIT_OK."""
    write_csv(args.out, header, rows)
    if args.emit_plot and args.out:
        emit_plot_files(args.out, header, rows)
    return EXIT_OK


# --------------------------------------------------------------------------
# subcommands

def cmd_classify(args) -> int:
    header = ["expression", "P1", "witness_epsilon", "P2", "P2_limit",
              "tends_to", "degree", "sublinear", "subfractional",
              "strongly_nonpolynomial", "mod1_class", "usable"]
    rows = []
    for text in args.expr:
        f = hardy.parse(text)
        p1 = hardy.check_P1(f)
        p2 = hardy.check_P2(f)
        g = hardy.classify(f)
        try:
            m = hardy.classify_mod1(f)
            mod1 = m.case.value
            usable = True
        except PreconditionError:
            mod1 = "unusable"
            usable = False
        rows.append([str(f), p1.holds, p1.witness_epsilon if p1.holds else "",
                     p2.holds, p2.limit_float() if p2.holds else "",
                     g.tends_to.value, g.polynomial_growth_degree, g.is_sublinear,
                     g.is_subfractional, g.is_strongly_nonpolynomial, mod1, usable])
    return _emit(args, header, rows)


def cmd_window(args) -> int:
    doc = load_config(args.config)
    cfg = build_orbit_config(doc)
    plan = build_window(doc, cfg)
    if plan is None:
        raise PreconditionError("config has no strongly non-polynomial parts to window")
    header = ["function", "order_k", "lower_exp", "lower_logexp",
              "upper_exp", "upper_logexp", "gamma", "member"]
    rows = []
    for f, k in zip(plan.inputs, plan.orders):
        b = windows.class_bounds(f, k)
        rows.append([str(f), k, str(b.lower[0]), str(b.lower[1]),
                     str(b.upper[0]), str(b.upper[1]), str(plan.gamma),
                     windows.member(plan.L, f, k)])
    return _emit(args, header, rows)


def _grid(args, doc) -> tuple[int, ...]:
    if args.N is not None:
        return parse_grid(args.N)
    return parse_grid(doc.get("N_grid", [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6]))


def cmd_orbit(args) -> int:
    doc = load_config(args.config)
    cfg = build_orbit_config(doc)
    N = max(_grid(args, doc))
    if N < 1:
        raise PreconditionError(f"orbit needs N >= 1, got {N}")
    header = (["n"] + [f"coord_{i + 1}" for i in range(cfg.coords_dim)]
              + [f"horiz_{i + 1}" for i in range(cfg.horiz_dim)])

    def text(ns, coords, horiz):
        """The chunk's rows, formatted column by column: a horizontal
        coordinate is a superdiagonal one, so its strings are reused."""
        cols = [list(map(repr, x)) for x in coords.T.tolist()]
        cols += [cols[c] for c in cfg.layout.horiz_cols]
        return "\n".join(map(",".join, zip(map(str, ns.tolist()), *cols))) + "\n"

    chunks = orbits.iter_sample_chunks(cfg, 1, N, text, args.workers)  # checks N before --out opens
    with _output(args.out) if args.out else contextlib.nullcontext(sys.stdout) as sink:
        sink.write(",".join(header) + "\n")
        sink.writelines(chunks)
    return EXIT_OK


def _characters(args, doc, cfg) -> list[tuple[tuple[int, ...], orbits.TestFunction]]:
    """Frequencies on the product horizontal torus, from --m or the config
    tests, each with its character."""
    if args.m:
        try:
            freqs = [tuple(int(x) for x in args.m.split(","))]
        except ValueError as e:
            raise ConfigError(f"--m must be comma-separated integers: {e}") from e
    else:
        freqs = [tuple(t["k"]) for t in doc.get("tests", []) if t["type"] == "horizontal_character"]
        if not freqs:
            raise ConfigError("no frequency given: pass --m or add horizontal_character tests")
        if any(len(k) != cfg.horiz_dim for k in freqs):
            raise ConfigError(
                f"the tests' horizontal characters are block-local; this config's horizontal "
                f"torus has {cfg.horiz_dim} components: pass a frequency with --m")
    with _config_errors():  # a wrong length or a frequency beyond int64
        return [(m, orbits.make_test_function({"type": "horizontal_character", "k": m},
                                              cfg.coords_dim, cfg.horiz_dim)) for m in freqs]


def cmd_weyl(args) -> int:
    doc = load_config(args.config)
    cfg = build_orbit_config(doc)
    characters = _characters(args, doc, cfg)
    grid = _grid(args, doc)
    ends = sorted(set(grid))
    # one pass over the orbit for every character and the whole grid; the
    # same bits as weyl_sum at each N
    series = orbits.chunked_means(
        cfg, [lambda ns, coords, horiz, chi=chi: chi(coords, horiz) for _, chi in characters],
        1, ends, args.workers)
    rows = []
    for (m, _), sums in zip(characters, series):
        label = "k" + "_".join(str(x) for x in m)
        for N in grid:
            s = sums[ends.index(N)]
            rows.append([N, f"weyl_re_{label}", s.real])
            rows.append([N, f"weyl_im_{label}", s.imag])
            rows.append([N, f"weyl_abs_{label}", abs(s)])
    return _emit(args, LONG_HEADER, rows)


def cmd_discrepancy(args) -> int:
    doc = load_config(args.config)
    cfg = build_orbit_config(doc)
    grid_res = args.grid if args.grid is not None else orbits.default_grid_res(cfg.coords_dim)
    grid = _grid(args, doc)
    values = orbits.discrepancy_series(cfg, grid, grid_res, args.workers)
    rows = [[N, f"box_discrepancy_g{grid_res}", d] for N, d in zip(grid, values)]
    return _emit(args, LONG_HEADER, rows)


def cmd_obstruction(args) -> int:
    doc = load_config(args.config)
    cfg = build_orbit_config(doc)
    plan = build_window(doc, cfg)
    rows = []
    for N in _grid(args, doc):
        r = orbits.obstruction_search(cfg, plan, N, args.Mmax)
        rows.append([N, "min_cinfty_norm", r.min_norm])
        for j, kj in enumerate(r.argmin):
            rows.append([N, f"argmin_k{j + 1}", kj])
    return _emit(args, LONG_HEADER, rows)


def cmd_average(args) -> int:
    doc = load_config(args.config)
    exp = build_experiment(doc)
    grid = parse_grid(args.grid) if args.grid is not None else exp.n_grid
    series = avg.convergence_series(exp, grid, args.workers)
    header = ["N", "re(A_N)", "im(A_N)", "re(limit)", "im(limit)", "abs_err", "cauchy_inc"]
    rows = [[r.N, r.value.real, r.value.imag,
             *(("", "") if r.limit is None else (r.limit.real, r.limit.imag)),
             *("" if x is None else x for x in (r.abs_err, r.cauchy_increment))]
            for r in series.rows]  # an empty cell for a missing value
    return _emit(args, header, rows)


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def default_workers() -> int:
    """The number of CPUs this process may run on: its affinity mask where
    the platform has one, else the machine's CPU count, else 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nilorbit",
        description="Growth calculus and equidistribution diagnostics on nilmanifolds")
    sub = p.add_subparsers(dest="command", required=True)
    workers = default_workers()

    c = sub.add_parser("classify", help="run the (P1)/(P2) checkers on expressions")
    c.add_argument("expr", nargs="+")
    c.add_argument("--out", default=None)
    c.set_defaults(fn=cmd_classify, emit_plot=False)

    for name, fn, extra in [
        ("window", cmd_window, ("plot",)),
        ("orbit", cmd_orbit, ("N", "workers")),
        ("weyl", cmd_weyl, ("N", "workers", "m", "plot")),
        ("discrepancy", cmd_discrepancy, ("N", "workers", "grid", "plot")),
        ("obstruction", cmd_obstruction, ("N", "Mmax", "plot")),
        ("average", cmd_average, ("grid", "workers", "plot")),
    ]:
        s = sub.add_parser(name)
        s.add_argument("config")
        s.add_argument("--out", default=None)
        if "plot" in extra:
            s.add_argument("--emit-plot", action="store_true", dest="emit_plot")
        if "N" in extra:
            s.add_argument("--N", default=None, help="grid: list '1e3,1e4' or 'a:b:decade'")
        if "grid" in extra and name == "discrepancy":
            s.add_argument("--grid", type=int, default=None, help="boxes per axis")
        if "grid" in extra and name == "average":
            s.add_argument("--grid", default=None, help="N grid, e.g. '1e3:1e6:decade'")
        if "workers" in extra:
            s.add_argument("--workers", type=_positive_int, default=workers, metavar="W",
                           help=f"processes: the caller and W - 1 (at most {orbits.MAX_HELPERS}) "
                                "forked exponent helpers; 1 runs serially (default: the CPUs "
                                f"this process may run on, {workers} here)")
        if "m" in extra:
            s.add_argument("--m", default=None, help="frequency vector '1,0,0,1'")
        if "Mmax" in extra:
            s.add_argument("--Mmax", type=int, default=3)
        s.set_defaults(fn=fn)
    return p


def _keep_heap() -> None:
    """Keep freed heap pages in the process (glibc ``mallopt``): blocks below
    4 MiB, such as a chunk's 256 KiB arrays, come from the heap instead of
    a fresh ``mmap`` each, and the heap top is returned to the system only
    past 64 MiB free, so a chunk does not fault in its pages again.  Skipped
    where the C library has no ``mallopt``."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 4 << 20)   # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _keep_heap()
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, HardyParseError, UnrepresentableCoefficient) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except orbits.PrecisionCapError as e:
        print(f"precision cap: {e}", file=sys.stderr)
        return EXIT_PRECISION
    except (PreconditionError, windows.WindowSearchError) as e:
        print(f"precondition error: {e}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
