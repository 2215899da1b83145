"""nilorbit benchmark: seeded CLI workloads, end-to-end metrics, per-layer trace.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload disc-heis --seed 1 --seconds 20 --trace 0

Every op of a workload runs its ``nilorbit`` commands, each in a fresh
process (``child.py``), on configs generated from ``--seed``.  Ops alternate
with set-up probes until ``--seconds`` have passed; medians over the ops
and probes are reported.  Every distinct output is then checked
(``oracle.py``); an op counts as failed on a nonzero exit, a traceback or a
failed check.  With ``--trace 1`` each iteration also runs one traced op
(``tracer.py``) and the per-layer metrics (``layers.py``) are reported
instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
record the environment, the seed, the generated configs and the check
statistics.  Exit code 2 means the checkout lacks the program or its inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import layers
import oracle
from workloads import WORKLOADS, Workload, write_configs

MIN_ITERATIONS = 3
CHILD_TIMEOUT_S = 60
# no child outlives this many seconds after the run starts, so a run that
# hangs still ends, with its checks, inside the 180 s a run may take
HARD_LIMIT_S = 140
WORK_DIR = ".perfbench_work"  # scratch outputs inside the checkout, removed at exit
RECORDED = {"discrepancy", "average"}  # subcommands that write statistics, not coordinates


class MissingInput(Exception):
    pass


@dataclass
class Op:
    """One run of a workload's command sequence."""

    wall_s: float = 0.0
    maxrss_kb: int = 0
    outputs: list[Path] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    samples: list[list] = field(default_factory=list)  # per command: [n, coords] the CLI computed
    trace: list[dict] = field(default_factory=list)
    error: str | None = None        # a command exited nonzero or printed a traceback
    wrong: str | None = None        # an output failed its check


class Bench:
    def __init__(self, root: Path, workload: Workload, seed: int, work: Path,
                 configs: dict[str, Path]):
        self.root = root
        self.src = root / "src"
        self.w = workload
        self.seed = seed
        self.work = work
        self.configs = configs
        self.n_children = 0
        self.n_ops = 0
        self.deadline = time.monotonic() + HARD_LIMIT_S
        self.kept: dict[tuple[int, str], Path] = {}  # one file per distinct output
        # commands whose coordinates the CSV does not show: the child records
        # them at the oracle's indices
        self.record = {i: oracle.oracle_indices(seed, max(cmd.grid))
                       for i, cmd in enumerate(workload.commands) if cmd.sub in RECORDED}

    def child(self, mode: str, argv: list[str],
              extra: tuple[str, ...] = ()) -> tuple[dict | None, str | None]:
        """Run child.py; (result, None) on success, (None, reason) on failure."""
        self.n_children += 1
        result = self.work / f"child{self.n_children}.json"
        timeout = min(CHILD_TIMEOUT_S, self.deadline - time.monotonic())
        if timeout <= 0:
            return None, f"{mode} {argv[:2]} not started: past the {HARD_LIMIT_S} s limit"
        cmd = [sys.executable, str(self.root / "perfbench" / "child.py"), mode,
               "--src", str(self.src), "--result", str(result), *extra, "--", *argv]
        try:
            proc = subprocess.run(cmd, cwd=self.root, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, f"{mode} {argv[:2]} timed out after {timeout:.0f} s"
        if proc.returncode != 0 or "Traceback" in proc.stderr or not result.exists():
            tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
            return None, f"{mode} {argv[:2]} exited {proc.returncode}: {tail[0]}"
        data = json.loads(result.read_text())
        result.unlink()
        return data, None

    def probe(self) -> tuple[dict | None, str | None]:
        return self.child("setup", [str(p) for p in self.configs.values()])

    def op(self, traced: bool) -> Op:
        op = Op()
        self.n_ops += 1
        for i, cmd in enumerate(self.w.commands):
            out = self.work / f"op{self.n_ops}-{i}.csv"
            argv = [cmd.sub, str(self.configs[cmd.instance]), *cmd.args, "--out", str(out)]
            extra = ()
            if i in self.record:
                extra += ("--record", ",".join(map(str, self.record[i])))
            if traced and self.w.name == "disc-heis":
                extra += ("--fp-chunk", str(self.configs[cmd.instance]))
            res, err = self.child("trace" if traced else "cli", argv, extra)
            if err:
                op.error = err
                return op
            op.wall_s += res["wall_s"]
            op.maxrss_kb = max(op.maxrss_kb, res["maxrss_kb"])
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            if (i, digest) in self.kept:
                out.unlink()
            op.outputs.append(self.kept.setdefault((i, digest), out))
            op.digests.append(digest)
            op.samples.append(res["samples"])
            if traced:
                op.trace.append(res)
        return op


def _preflight(root: Path, w: Workload) -> None:
    needed = [root / "src" / "nilorbit" / "cli.py"]
    for cmd in w.commands:
        needed.append(root / "instances" / cmd.instance)
        if cmd.pilot:
            needed.append(root / "pilot" / cmd.pilot)
    missing = [str(p.relative_to(root)) for p in needed if not p.is_file()]
    if missing:
        raise MissingInput(f"checkout lacks {', '.join(missing)}")


def _environment(root: Path, nilorbit) -> dict:
    import mpmath
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    l3 = "unknown"
    for idx in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            if (idx / "level").read_text().strip() == "3":
                l3 = (idx / "size").read_text().strip()
        except OSError:
            pass
    commit = "unknown (not a git checkout)"
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    digest = hashlib.sha256()
    for p in sorted((root / "src").rglob("*.py")):
        digest.update(p.read_bytes())
    return {"cpu": cpu, "nproc": os.cpu_count(), "l3": l3,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "nilorbit": nilorbit.__version__,
            "git_commit": commit, "src_sha256": digest.hexdigest()}


def measure(bench: Bench, seconds: float, trace: bool):
    """Alternate set-up probes and ops until ``seconds`` have passed.

    Returns (probe results, probe errors, plain ops, traced ops, seconds).
    """
    bench.probe()  # untimed: fills the bytecode cache of a fresh checkout
    probes, probe_errors, plain, traced, durations = [], [], [], [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        res, err = bench.probe()
        if err:
            probe_errors.append(err)
        else:
            probes.append(res)
        plain.append(bench.op(traced=False))
        if trace:
            traced.append(bench.op(traced=True))
        durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if len(durations) >= MIN_ITERATIONS and elapsed + median(durations) > seconds:
            break
        if time.monotonic() + median(durations) > bench.deadline:
            break
    return probes, probe_errors, plain, traced, time.monotonic() - start


def check_outputs(bench: Bench, ops: list[Op], nilorbit, constants) -> tuple[dict, list]:
    """Check each distinct output once; ops with a failing output get ``wrong`` set.

    Returns the worst value of each check statistic and every oracle error.
    """
    verdicts: dict[tuple[int, str, str], oracle.CheckResult] = {}
    stats: dict[str, float] = {}
    errors: list[float] = []
    docs = {name: json.loads(p.read_text()) for name, p in bench.configs.items()}
    cfgs = {name: nilorbit.cli.build_orbit_config(doc) for name, doc in docs.items()}
    for op in ops:
        if op.error:
            continue
        for i, (cmd, out, digest, samples) in enumerate(
                zip(bench.w.commands, op.outputs, op.digests, op.samples)):
            key = (i, digest, json.dumps(samples))
            if key not in verdicts:
                res = oracle.CheckResult()
                try:
                    _check_one(bench, i, cmd, out, samples, docs[cmd.instance],
                               cfgs[cmd.instance], nilorbit, constants, res)
                except Exception as e:  # a malformed output must count as a failure
                    res.fail(f"check raised {type(e).__name__}: {e}")
                verdicts[key] = res
                errors.extend(res.errors)
                for k, v in res.stats.items():
                    stats[k] = max(stats.get(k, 0.0), v)
            if not verdicts[key].ok and op.wrong is None:
                op.wrong = "; ".join(verdicts[key].failures)
    return stats, errors


def _check_one(bench, i, cmd, out, samples, doc, cfg, nilorbit, constants, res) -> None:
    if bench.seed == 0 and cmd.pilot:
        oracle.compare_pilot(out, bench.root / "pilot" / cmd.pilot, res)
    if i in bench.record:
        oracle.check_recorded(cfg, bench.record[i], samples, constants,
                              nilorbit.hardy.floor_at, res)
    if cmd.sub == "discrepancy":
        grid = int(cmd.args[cmd.args.index("--grid") + 1])
        oracle.check_discrepancy(nilorbit, cfg, out, cmd.grid, grid, res)
    elif cmd.sub == "average":
        oracle.check_average(nilorbit, cfg, doc, out, cmd.grid, res)
    elif cmd.sub == "obstruction":
        m_max = int(cmd.args[cmd.args.index("--Mmax") + 1])
        oracle.check_obstruction(nilorbit, doc, cfg, out, cmd.grid, m_max, bench.seed,
                                 cmd.instance, constants, res)
    elif cmd.sub == "orbit":
        oracle.check_orbit(nilorbit, cfg, out, cmd.grid[-1], bench.seed, constants, res)


def _rows_and_bytes(paths: list[Path]) -> tuple[int, int]:
    rows = nbytes = 0
    for p in paths:
        data = p.read_bytes()
        rows += data.count(b"\n") - 1
        nbytes += len(data)
    return rows, nbytes


def end_to_end(bench: Bench, ok: list[Op], probes: list[dict], errors: list[float]) -> dict:
    wall = median(op.wall_s for op in ok)
    return {
        "wall_s": (wall, "s"),
        "setup_s": (median(p["setup_s"] for p in probes), "s"),
        "items_per_s": (bench.w.items / wall, "1/s"),
        "peak_rss_mb": (median([op.maxrss_kb for op in ok]) / 1024, "MB"),
        "accuracy_digits": (oracle.accuracy_digits(errors), "digits"),
    }


def _merge_dumps(dumps: list[dict]) -> dict:
    """One trace for an op whose commands each wrote their own."""
    merged = {"spans": [], "dd_calls": {}, "dd_bytes": 0, "counters": {},
              "wall_s": 0.0, "fp_chunk_ns_per_sample": 0.0}
    for dump in dumps:
        merged["spans"].extend(dump["spans"])
        merged["dd_bytes"] += dump["dd_bytes"]
        merged["wall_s"] += dump["wall_s"]
        merged["fp_chunk_ns_per_sample"] = max(merged["fp_chunk_ns_per_sample"],
                                               dump["fp_chunk_ns_per_sample"])
        for key in ("dd_calls", "counters"):
            for k, v in dump[key].items():
                merged[key][k] = merged[key].get(k, 0) + v
    return merged


def per_layer(bench: Bench, plain: list[Op], traced: list[Op], probes: list[dict]) -> dict:
    per_op = []
    for op in traced:
        rows, nbytes = _rows_and_bytes(op.outputs)
        per_op.append(layers.from_trace(_merge_dumps(op.trace), bench.w.workers, rows, nbytes))
    values = {k: median([m[k] for m in per_op]) for k in per_op[0]}
    untraced = median([op.wall_s for op in plain])
    tr_wall = median([op.wall_s for op in traced])
    values["cli.import.s"] = median([p["import_s"] for p in probes])
    values["cli.setup.s"] = median([p["steps_s"] for p in probes])
    values["trace.overhead_s"] = tr_wall - untraced
    values["trace.overhead_ratio"] = (tr_wall - untraced) / untraced
    return {k: (values[k], unit) for k, unit, _better in layers.PER_LAYER}


def run(args, root: Path, w: Workload, nilorbit, work: Path) -> int:
    constants = {name: c.decimal for name, c in nilorbit.REGISTRY.items()}
    configs = write_configs(root, w, args.seed, constants, work)
    bench = Bench(root, w, args.seed, work, configs)
    probes, probe_errors, plain, traced, measured_s = measure(
        bench, args.seconds, bool(args.trace))
    ops = plain + traced
    stats, oracle_errors = check_outputs(bench, ops, nilorbit, constants)
    errors = probe_errors + [op.error or op.wrong for op in ops if op.error or op.wrong]
    for err in errors:
        print(f"perfbench: failed: {err}", file=sys.stderr)
    # timings come from every op that ran to completion, even with a wrong output
    ok_plain = [op for op in plain if op.error is None]
    ok_traced = [op for op in traced if op.error is None]
    if not ok_plain or not probes or (args.trace and not ok_traced):
        print("perfbench: no op ran to completion, no result", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(bench, ok_plain, ok_traced, probes)
    else:
        metrics = end_to_end(bench, ok_plain, probes, oracle_errors)
    attempted = len(ops) + len(probes) + len(probe_errors)
    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "measured_s": measured_s, "environment": _environment(root, nilorbit),
        "ops": len(ops), "probes": len(probes) + len(probe_errors),
        "fail_ratio": len(errors) / attempted,
        "items_per_op": w.items, "item_unit": w.item_unit,
        "wall_s_all": [op.wall_s for op in ok_plain], "checks": stats,
        "configs": {k: v.read_text() for k, v in configs.items()},
    }
    print("perfbench record: " + json.dumps(record))
    for name, (value, unit) in metrics.items():
        print(f"perfbench {w.name} {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": len(errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    w = WORKLOADS[args.workload]
    try:
        _preflight(root, w)
    except MissingInput as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import nilorbit
    import nilorbit.cli  # noqa: F401  (the checks call into it)

    work = root / WORK_DIR / f"{w.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, root, w, nilorbit, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
