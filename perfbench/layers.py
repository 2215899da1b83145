"""Per-layer metrics derived from one traced invocation's spans and counters.

A span's self time is its duration minus the part of its interval that its
child spans cover (children in any thread) minus the time it spent directly
in ddmath kernel calls; a layer's self time sums the self times of its
spans.  The self time of ``orbits.iter_sample_chunks`` spans is time the
consumer waited for the next chunk; it is reported as ``orbits.wait_s``
rather than as work of the orbits layer.
"""

from __future__ import annotations

from collections import defaultdict

LAYERS = ["cli", "windows", "hardy", "ddmath", "orbits", "averages"]
WAIT_SPAN = "orbits.iter_sample_chunks"

# name, unit, better
PER_LAYER = [
    ("orbits.exponents.ns_per_sample", "ns/sample", "lower"),
    ("orbits.generator_poly.ns_per_sample", "ns/sample", "lower"),
    ("orbits.block_product.ns_per_sample", "ns/sample", "lower"),
    ("orbits.reduce.ns_per_sample", "ns/sample", "lower"),
    ("orbits.samples.ns_per_sample", "ns/sample", "lower"),
    ("orbits.samples_fp.ns_per_sample", "ns/sample", "lower"),
    ("orbits.statistic.ns_per_sample", "ns/sample", "lower"),
    ("averages.integrand.ns_per_sample", "ns/sample", "lower"),
    ("orbits.samples.count", "count", "lower"),
    ("orbits.chunks.count", "count", "lower"),
    ("ddmath.exp.calls_per_chunk", "calls/chunk", "lower"),
    ("ddmath.ln.calls_per_chunk", "calls/chunk", "lower"),
    ("ddmath.mul.calls_per_chunk", "calls/chunk", "lower"),
    ("ddmath.add.calls_per_chunk", "calls/chunk", "lower"),
    ("ddmath.bytes_per_sample", "B/sample", "lower"),
    ("orbits.busy_s", "s", "lower"),
    ("orbits.parallel_efficiency", "ratio", "higher"),
    ("orbits.wait_s", "s", "lower"),
    ("orbits.obstruction.us_per_freq", "us/freq", "lower"),
    ("orbits.obstruction.freqs.count", "count", "lower"),
    ("ddmath.scalar_ops_per_freq", "ops/freq", "lower"),
    ("windows.find_common_window.s", "s", "lower"),
    ("windows.taylor_window.calls", "count", "lower"),
    ("hardy.evaluate_kernel.s", "s", "lower"),
    ("cli.import.s", "s", "lower"),
    ("cli.setup.s", "s", "lower"),
    ("cli.format.ns_per_row", "ns/row", "lower"),
    ("cli.bytes_written", "B", "lower"),
    *[(f"{layer}.self_s", "s", "lower") for layer in LAYERS],
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans) -> list[tuple[str, float, float]]:
    """(name, duration, self time) per span."""
    children = defaultdict(list)
    for _sid, parent, _name, start, end, _dd in spans:
        children[parent].append((start, end))
    out = []
    for sid, _parent, name, start, end, dd in spans:
        dur = end - start
        own = dur - _covered(children.get(sid, []), start, end) - dd
        out.append((name, dur, max(own, 0.0)))
    return out


def from_trace(dump: dict, workers: int, rows: int, bytes_written: int) -> dict[str, float]:
    """Metrics of one traced invocation (all names except the probe and overhead ones)."""
    timed = self_times(dump["spans"])
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    for name, dur, self_s in timed:
        total[name] += dur
        own[name] += self_s
        calls[name] += 1
    counters = dump["counters"]
    dd = dump["dd_calls"]
    n = counters.get("orbits.samples.count", 0)
    chunks = counters.get("orbits.chunks.count", 0)
    freqs = counters.get("orbits.obstruction.freqs.count", 0)

    def per(x, base, scale=1.0):
        return x / base * scale if base else 0.0

    def ns(*names):
        return per(sum(total[k] for k in names), n, 1e9)

    def engine_calls(op):
        return per(dd.get(f"{op}@engine", 0), chunks)

    busy = total["orbits.OrbitEngine.samples"]
    m = {
        "orbits.exponents.ns_per_sample": ns("orbits.OrbitEngine.exponents"),
        "orbits.generator_poly.ns_per_sample": ns("orbits.OrbitEngine._generator_matrix"),
        "orbits.block_product.ns_per_sample": ns("orbits.OrbitEngine._block_product"),
        "orbits.reduce.ns_per_sample": ns("orbits.OrbitEngine._reduce_block"),
        "orbits.samples.ns_per_sample": ns("orbits.OrbitEngine.samples"),
        "orbits.samples_fp.ns_per_sample": dump["fp_chunk_ns_per_sample"],
        "orbits.statistic.ns_per_sample": ns("orbits.histogram_counts",
                                             "orbits.discrepancy_from_histogram"),
        "averages.integrand.ns_per_sample": ns("averages.integrand"),
        "orbits.samples.count": n,
        "orbits.chunks.count": chunks,
        "ddmath.exp.calls_per_chunk": engine_calls("exp"),
        "ddmath.ln.calls_per_chunk": engine_calls("ln"),
        "ddmath.mul.calls_per_chunk": engine_calls("mul"),
        "ddmath.add.calls_per_chunk": engine_calls("add"),
        "ddmath.bytes_per_sample": per(dump["dd_bytes"], n),
        "orbits.busy_s": busy,
        "orbits.parallel_efficiency": per(busy, workers * dump["wall_s"]),
        "orbits.wait_s": own[WAIT_SPAN],
        "orbits.obstruction.us_per_freq": per(total["orbits.obstruction_search"], freqs, 1e6),
        "orbits.obstruction.freqs.count": freqs,
        "ddmath.scalar_ops_per_freq": per(
            sum(v for k, v in dd.items() if k.endswith("@obstruction")), freqs),
        "windows.find_common_window.s": total["windows.find_common_window"],
        "windows.taylor_window.calls": calls["windows.taylor_window"],
        "hardy.evaluate_kernel.s": total["hardy.evaluate_kernel"],
        "cli.format.ns_per_row": per(
            sum(v for k, v in own.items() if k.startswith("cli.cmd_"))
            + total["cli.write_csv"], rows, 1e9),
        "cli.bytes_written": bytes_written,
        "ddmath.self_s": counters.get("ddmath.time_s", 0.0),
    }
    for layer in LAYERS:
        if layer != "ddmath":
            m[f"{layer}.self_s"] = sum(v for k, v in own.items()
                                       if k.startswith(layer + ".") and k != WAIT_SPAN)
    return m
