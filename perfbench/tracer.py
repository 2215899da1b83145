"""In-memory spans and counters wrapped around nilorbit's layers.

The tracer rebinds public functions and methods of the imported package to
timing wrappers; the package's source is not modified.  Each wrapped call
records a span ``(id, parent, name, start, end, dd_s)``, where ``dd_s`` is the
time the span spent directly in ddmath kernel calls.  Kernel calls are too
many to keep one span each (the obstruction search makes tens per
frequency), so they are counted per operation and scope, and their time is
charged to the enclosing span.  Scopes: ``engine`` inside
``OrbitEngine.samples``, ``obstruction`` inside ``obstruction_search``,
``other`` elsewhere.

State is per thread; worker-thread spans that start with an empty stack take
as parent the span that created the chunk generator feeding the pool.
"""

from __future__ import annotations

import functools
import itertools
import threading
from time import perf_counter

import numpy as np

# (module, attribute path) of each wrapped callable; the span name is
# "<module>.<attribute path>"
SPANS = {
    "cli": ["main", "load_config", "build_orbit_config", "build_window", "build_experiment",
            "write_csv", "cmd_discrepancy", "cmd_average", "cmd_obstruction", "cmd_orbit",
            "cmd_weyl", "cmd_window"],
    "windows": ["find_common_window", "taylor_window", "order_for_power", "class_bounds",
                "member"],
    "hardy": ["parse", "classify", "decompose", "evaluate_kernel", "evaluate", "evaluate_dd"],
    "orbits": ["OrbitEngine.__init__", "OrbitEngine.exponents",
               "OrbitEngine._generator_matrix", "OrbitEngine._block_product",
               "OrbitEngine._reduce_block", "OrbitEngine.samples", "weyl_sum", "chunked_mean",
               "orbit_discrepancy", "histogram_counts", "discrepancy_from_histogram",
               "obstruction_search", "cinfty_norm", "to_binomial_basis"],
    "averages": ["convergence_series", "multiple_average", "AverageExperiment.orbit_config"],
}
GENERATORS = {"orbits": ["iter_sample_chunks"]}
DD_OPS = ["from_float", "from_fraction", "from_int_array", "to_float", "add", "sub", "neg",
          "abs", "mul", "mul_float", "div", "ldexp", "npow", "floor", "frac", "exp", "ln",
          "pow_fraction", "pow_fraction_ln"]


class _ThreadState:
    __slots__ = ("spans", "stack", "scope", "dd_depth", "dd_calls", "dd_bytes", "counters")

    def __init__(self):
        self.spans = []
        self.stack = []   # frames [span id, dd seconds]
        self.scope = "other"
        self.dd_depth = 0
        self.dd_calls = {}
        self.dd_bytes = 0
        self.counters = {}


def _nbytes(v) -> int:
    if isinstance(v, tuple):
        return sum(_nbytes(x) for x in v)
    return v.nbytes if isinstance(v, np.ndarray) else 0


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self.pool_parent = 0
        self.origin = perf_counter()

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._states.append(st)
            return st

    def count(self, name: str, k: int = 1) -> None:
        c = self._state().counters
        c[name] = c.get(name, 0) + k

    # -- spans ----------------------------------------------------------------

    def _enter(self, st: _ThreadState):
        parent = st.stack[-1][0] if st.stack else self.pool_parent
        frame = [next(self._ids), 0.0]
        st.stack.append(frame)
        return parent, frame, perf_counter()

    def _exit(self, st: _ThreadState, name, parent, frame, t0):
        t1 = perf_counter()
        st.stack.pop()
        st.spans.append((frame[0], parent, name, t0 - self.origin, t1 - self.origin, frame[1]))

    def wrap(self, name: str, fn, scope: str | None = None, on_call=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._state()
            if on_call is not None:
                on_call(tracer, args, kwargs)
            prev = st.scope
            if scope is not None:
                st.scope = scope
            parent, frame, t0 = tracer._enter(st)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(st, name, parent, frame, t0)
                st.scope = prev

        return traced

    def wrap_generator(self, name: str, fn):
        """One span per ``next()``; the generator's creator becomes the pool parent."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._state()
            tracer.pool_parent = st.stack[-1][0] if st.stack else 0
            gen = fn(*args, **kwargs)
            try:
                while True:
                    parent, frame, t0 = tracer._enter(st)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(st, name, parent, frame, t0)
                    yield item
            finally:
                gen.close()

        return traced

    def wrap_dd(self, op: str, fn):
        tracer = self

        def traced(*args):
            st = tracer._state()
            key = (op, st.scope)
            st.dd_calls[key] = st.dd_calls.get(key, 0) + 1
            if st.dd_depth:
                st.dd_depth += 1
                try:
                    out = fn(*args)
                finally:
                    st.dd_depth -= 1
            else:
                st.dd_depth = 1
                t0 = perf_counter()
                try:
                    out = fn(*args)
                finally:
                    dt = perf_counter() - t0
                    st.dd_depth = 0
                    if st.stack:
                        st.stack[-1][1] += dt
                    st.counters["ddmath.time_s"] = st.counters.get("ddmath.time_s", 0.0) + dt
            if st.scope == "engine":
                st.dd_bytes += _nbytes(args) + _nbytes(out)
            return out

        return traced

    # -- output ---------------------------------------------------------------

    def dump(self) -> dict:
        spans, dd_calls, counters, dd_bytes = [], {}, {}, 0
        with self._lock:
            states = list(self._states)
        for st in states:
            spans.extend(st.spans)
            for (op, scope), n in st.dd_calls.items():
                dd_calls[f"{op}@{scope}"] = dd_calls.get(f"{op}@{scope}", 0) + n
            for k, v in st.counters.items():
                counters[k] = counters.get(k, 0) + v
            dd_bytes += st.dd_bytes
        spans.sort()
        return {"spans": spans, "dd_calls": dd_calls, "dd_bytes": dd_bytes,
                "counters": counters}


def _count_samples(tracer, args, kwargs):
    _engine, n0, n1 = args
    tracer.count("orbits.samples.count", n1 - n0 + 1)
    tracer.count("orbits.chunks.count")


def _count_freqs(tracer, args, kwargs):
    cfg, M_max = args[0], args[3]
    tracer.count("orbits.obstruction.freqs.count", (2 * M_max + 1) ** cfg.horiz_dim - 1)


ON_CALL = {"orbits.OrbitEngine.samples": _count_samples,
           "orbits.obstruction_search": _count_freqs}
SCOPES = {"orbits.OrbitEngine.samples": "engine", "orbits.obstruction_search": "obstruction"}


def _rebind(package_modules, old, new) -> None:
    """Point every module-level binding of ``old`` in the package at ``new``."""
    for mod in package_modules:
        for key, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, key, new)


def install(tracer: Tracer, nilorbit) -> None:
    """Wrap the layers of an imported ``nilorbit`` package in place."""
    import importlib

    mods = {name: importlib.import_module(f"nilorbit.{name}")
            for name in ["cli", "windows", "hardy", "orbits", "averages", "ddmath"]}
    package_modules = [nilorbit, *mods.values()]

    for modname, attrs in SPANS.items():
        for attr in attrs:
            name = f"{modname}.{attr}"
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(mods[modname], owner_name) if owner_name else mods[modname]
            fn = vars(owner)[leaf] if owner_name else getattr(owner, leaf)
            wrapped = tracer.wrap(name, fn, SCOPES.get(name), ON_CALL.get(name))
            if owner_name:
                setattr(owner, leaf, wrapped)
            else:
                _rebind(package_modules, fn, wrapped)
    for modname, attrs in GENERATORS.items():
        for attr in attrs:
            fn = getattr(mods[modname], attr)
            _rebind(package_modules, fn, tracer.wrap_generator(f"{modname}.{attr}", fn))

    kernel = mods["ddmath"].DD
    for op in DD_OPS:
        setattr(kernel, op, staticmethod(tracer.wrap_dd(op, getattr(kernel, op))))

    # the closure AverageExperiment.integrand returns is the per-chunk integrand
    exp_cls = mods["averages"].AverageExperiment
    make_integrand = exp_cls.integrand

    @functools.wraps(make_integrand)
    def integrand(self):
        return tracer.wrap("averages.integrand", make_integrand(self))

    exp_cls.integrand = integrand
