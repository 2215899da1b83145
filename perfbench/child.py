"""One measured process: a CLI invocation, a set-up probe or a traced invocation.

Usage:
    python3 child.py cli   --src SRC --result FILE [--record N,...] -- <nilorbit argv>
    python3 child.py setup --src SRC --result FILE -- <config> [<config> ...]
    python3 child.py trace --src SRC --result FILE [--record N,...] [--fp-chunk CONFIG]
                           -- <nilorbit argv>

Each mode imports ``nilorbit`` from SRC, times its own region with
``time.perf_counter`` and writes a JSON result to FILE.  The exit code is the
CLI's own (0 for the other modes), so a failing command shows as a nonzero
exit.  The trace mode first runs the set-up steps on the command's config
under the tracer, outside the timed region.

``--record`` keeps the coordinates that the CLI's own ``OrbitEngine.samples``
calls compute at the listed indices, in every chunk that covers one, and
writes them to the result as ``samples``.  The coordinate checks compare
these with the oracle: the statistics the CLI writes out do not show them.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import sys
from pathlib import Path
from time import perf_counter


def _import_cli(src: str):
    sys.path.insert(0, src)
    t0 = perf_counter()
    import nilorbit.cli as cli

    import_s = perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"nilorbit imported from {cli.__file__}, not from {src}")
    return cli, import_s


def _maxrss_kb() -> int:
    """Peak resident set of this process image, in KiB.

    ``ru_maxrss`` would also count the pages of the parent at spawn time, so
    the kernel's per-image high-water mark is read where it exists.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _record_samples(indices: list[int]) -> list:
    """Wrap ``OrbitEngine.samples`` to keep its rows at ``indices``.

    Returns the list that fills with ``[n, coords]`` pairs, one per chunk
    that covers n.  The wrapper adds one ``searchsorted`` per chunk to the
    timed region.
    """
    import numpy as np

    from nilorbit import orbits

    wanted = np.asarray(sorted(indices), dtype=np.int64)
    sink: list = []
    inner = orbits.OrbitEngine.samples

    @functools.wraps(inner)
    def samples(self, *args, **kwargs):
        ns, coords, horiz = inner(self, *args, **kwargs)
        if len(ns):
            pos = np.minimum(np.searchsorted(ns, wanted), len(ns) - 1)
            hit = ns[pos] == wanted
            for p, n in zip(pos[hit], wanted[hit]):
                sink.append([int(n), coords[p].tolist()])  # list.append is thread-safe
        return ns, coords, horiz

    orbits.OrbitEngine.samples = samples
    return sink


def run_cli(src: str, argv: list[str], record: list[int]) -> tuple[dict, int]:
    cli, import_s = _import_cli(src)
    sink = _record_samples(record) if record else []
    t0 = perf_counter()
    rc = cli.main(argv)
    wall_s = perf_counter() - t0
    return {"import_s": import_s, "wall_s": wall_s, "rc": rc,
            "maxrss_kb": _maxrss_kb(), "samples": sink}, rc


def _setup_steps(cli, configs: list[str]) -> None:
    """load_config, build_orbit_config, build_window, OrbitEngine on each config."""
    from nilorbit import orbits

    for path in configs:
        doc = cli.load_config(path)
        cfg = cli.build_orbit_config(doc)
        cli.build_window(doc, cfg)
        orbits.OrbitEngine(cfg)


def run_setup(src: str, configs: list[str]) -> tuple[dict, int]:
    """import, then the set-up steps."""
    cli, import_s = _import_cli(src)
    t0 = perf_counter()
    _setup_steps(cli, configs)
    steps_s = perf_counter() - t0
    return {"import_s": import_s, "steps_s": steps_s, "setup_s": import_s + steps_s}, 0


def _fp_chunk_ns(cli, config: str) -> float:
    """ns/sample of one double-kernel chunk at n ~ 9e5, median of five."""
    import dataclasses
    import statistics

    from nilorbit import orbits

    cfg = cli.build_orbit_config(cli.load_config(config))
    engine = orbits.OrbitEngine(dataclasses.replace(cfg, precision="double"))
    n0 = 900_000
    times = []
    for _ in range(5):
        t0 = perf_counter()
        engine.samples(n0, n0 + orbits.CHUNK - 1)
        times.append(perf_counter() - t0)
    return statistics.median(times) / orbits.CHUNK * 1e9


def run_trace(src: str, argv: list[str], record: list[int],
              fp_chunk: str | None) -> tuple[dict, int]:
    import tracer as tracing  # this script's directory is on sys.path

    cli, import_s = _import_cli(src)
    fp_ns = _fp_chunk_ns(cli, fp_chunk) if fp_chunk else 0.0
    import nilorbit

    tr = tracing.Tracer()
    tracing.install(tr, nilorbit)
    # traced, untimed: the set-up steps on the command's config, so the
    # window plan shows in the windows and hardy layers whatever the command
    _setup_steps(cli, [argv[1]])
    # installed after the double-kernel chunk and outside the traced wrapper
    sink = _record_samples(record) if record else []
    t0 = perf_counter()
    rc = cli.main(argv)
    wall_s = perf_counter() - t0
    out = tr.dump()
    out.update({"import_s": import_s, "wall_s": wall_s, "rc": rc,
                "maxrss_kb": _maxrss_kb(), "fp_chunk_ns_per_sample": fp_ns,
                "samples": sink})
    return out, rc


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=["cli", "setup", "trace"])
    p.add_argument("--src", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--fp-chunk", default=None)
    p.add_argument("--record", default="")
    argv = sys.argv[1:]
    cut = argv.index("--") if "--" in argv else len(argv)
    args = p.parse_args(argv[:cut])
    rest = argv[cut + 1:]
    record = [int(n) for n in args.record.split(",") if n]
    if args.mode == "cli":
        result, rc = run_cli(args.src, rest, record)
    elif args.mode == "setup":
        result, rc = run_setup(args.src, rest)
    else:
        result, rc = run_trace(args.src, rest, record, args.fp_chunk)
    Path(args.result).write_text(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main())
