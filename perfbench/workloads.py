"""Workload definitions and the seeded config generator.

Each workload is a fixed sequence of ``nilorbit`` CLI commands over the
shipped instance configs.  The seed changes only the numbers inside the
configs: generator entries are redrawn as a registered constant times a small
nonzero integer, base-point coordinates as small rationals in (0, 1).  Zero
generator entries stay zero, and blocks, functions, N grids and ``Mmax`` are
never touched, so the work a command does is the same for every seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``nilorbit <sub> <config> <args> --out <csv>``."""

    sub: str
    instance: str  # file name under instances/
    args: tuple[str, ...]
    grid: tuple[int, ...]     # the N values the output must cover
    pilot: str | None = None  # file under pilot/ that seed 0 must reproduce


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    items: int        # work units per op: samples, frequencies or rows
    item_unit: str

    @property
    def workers(self) -> int:
        args = self.commands[0].args
        return int(args[args.index("--workers") + 1]) if "--workers" in args else 1


HEIS = "heisenberg_pair.json"
DEP = "pointwise_dependent.json"

WORKLOADS = {w.name: w for w in [
    Workload(
        "disc-heis",
        (Command("discrepancy", HEIS, ("--grid", "8"), (10 ** 4, 10 ** 5, 10 ** 6),
                 "discrepancy_pair.csv"),),
        items=10 ** 4 + 10 ** 5 + 10 ** 6, item_unit="samples"),
    Workload(
        "avg-3factor",
        (Command("average", DEP, ("--workers", "2"), (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6),
                 "average_dependent.csv"),),
        items=10 ** 6, item_unit="samples"),
    Workload(
        "avg-heis",
        (Command("average", HEIS, ("--workers", "2"), (10 ** 4, 10 ** 5, 10 ** 6)),),
        items=10 ** 6, item_unit="samples"),
    Workload(
        "obstruction",
        (Command("obstruction", HEIS, ("--N", "1e3,1e4,1e5", "--Mmax", "3"),
                 (10 ** 3, 10 ** 4, 10 ** 5), "obstruction_pair.csv"),
         Command("obstruction", DEP, ("--N", "1e5", "--Mmax", "2"), (10 ** 5,))),
        items=3 * (7 ** 4 - 1) + (5 ** 6 - 1), item_unit="frequencies"),
    Workload(
        "orbit-dump",
        (Command("orbit", HEIS, ("--N", "1e5"), (10 ** 5,)),),
        items=10 ** 5, item_unit="rows"),
]}

MULTIPLIERS = (-2, -1, 1, 2)


def _is_zero(v, constants: dict[str, str]) -> bool:
    return v not in constants and Fraction(str(v)) == 0


def _small_rational(rng: random.Random) -> str:
    q = rng.randint(2, 9)
    return f"{rng.randint(1, q - 1)}/{q}"


def generate_config(text: str, instance: str, seed: int, constants: dict[str, str]) -> str:
    """Config text for ``seed``; seed 0 returns the shipped text unchanged.

    ``constants`` maps registered constant names to their decimal expansions.
    """
    if seed == 0:
        return text
    rng = random.Random(f"{instance}:{seed}")
    doc = json.loads(text)
    # zero entries stay zero: the engine skips them, so they set the cost.
    # Each nonzero entry gets its own constant, so no generator has rationally
    # dependent entries (a frequency could then cancel one exactly).
    nonzero = sum(not _is_zero(v, constants) for g in doc["generators"] for v in g)
    names = iter(rng.sample(sorted(constants), nonzero))
    with localcontext(prec=60):
        doc["generators"] = [
            [v if _is_zero(v, constants)
             else str(Decimal(constants[next(names)]) * rng.choice(MULTIPLIERS)) for v in g]
            for g in doc["generators"]]
    doc["base_point"] = [_small_rational(rng) for _ in doc["base_point"]]
    doc["seed"] = seed
    return json.dumps(doc, indent=2) + "\n"


def write_configs(root: Path, workload: Workload, seed: int, constants: dict[str, str],
                  dest: Path) -> dict[str, Path]:
    """Generate each distinct instance of the workload into ``dest``."""
    out = {}
    for cmd in workload.commands:
        if cmd.instance in out:
            continue
        text = (root / "instances" / cmd.instance).read_text()
        path = dest / cmd.instance
        path.write_text(generate_config(text, cmd.instance, seed, constants))
        out[cmd.instance] = path
    return out
