"""Workload definitions and their seeded inputs.

Each workload is a fixed list of ``partmorse`` CLI invocations.  The seed
conjugates every ``--group`` generator list by a permutation that fixes 1.
Conjugation by such a permutation is an automorphism of the partition
lattice that preserves whether a group fixes 1, so every expected homology
table below holds for every seed.

This module uses only the standard library: the expected outputs come from
the paper's formulas or from recorded tables, never from the program under
test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import factorial
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# The groups of homology-n6.  Only the first two fix 1; the paper gives no
# formula for the others, so their tables are recorded in expected.json.
HOMOLOGY_N6_GROUPS = (
    None,
    "(2 3)",
    "(1 2)",
    "(1 2)(3 4)(5 6)",
    "(1 2 3 4)",
    "(1 2 3)(4 5 6)",
    "(1 2 3 4 5 6)",
)

# workload -> list of (subcommand, n, group or None)
SPECS: dict[str, list[tuple[str, int, str | None]]] = {
    "verify-n6": [("verify", 6, None)],
    "report-n6": [("report", 6, None)],
    "homology-n6": [("homology", 6, g) for g in HOMOLOGY_N6_GROUPS]
    + [("homology", 5, "(1 2 3 4 5)")],
    "quotient-n7": [("homology", 7, "(2 3),(2 3 4 5 6 7)")],
}

VERIFY_LINES = 11


@dataclass
class Invocation:
    """One CLI call with the outcome its output is checked against."""

    argv: list[str]
    kind: str  # "verify", "report" or "homology"
    n: int
    group: str | None  # as written in SPECS, before conjugation
    expected_table: list[dict] | None = None
    expected_torsion: dict[int, list[int]] | None = None

    def label(self) -> str:
        return " ".join(self.argv)


def parse_cycles(text: str) -> list[list[int]]:
    """Cycles of one generator written as "(1 2 3)(4 5)"."""
    cycles = []
    for chunk in text.replace(")", ")\n").split("\n"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise ValueError(f"bad cycle {chunk!r} in {text!r}")
        cycles.append([int(x) for x in chunk[1:-1].split()])
    return cycles


def split_generators(text: str) -> list[str]:
    return [g.strip() for g in text.replace("),(", ")|(").split("|") if g.strip()]


def conjugate(text: str, sigma: dict[int, int]) -> str:
    """sigma g sigma^-1 for every generator: relabel each point x as sigma(x)."""
    return ",".join(
        "".join("(" + " ".join(str(sigma[x]) for x in cyc) + ")" for cyc in parse_cycles(gen))
        for gen in split_generators(text)
    )


def seeded_relabelling(n: int, seed: int) -> dict[int, int]:
    """A permutation of 1..n that fixes 1, drawn from the seed."""
    rest = list(range(2, n + 1))
    random.Random(f"{seed}:{n}").shuffle(rest)
    return {1: 1, **{i: v for i, v in zip(range(2, n + 1), rest)}}


def group_order(n: int, text: str) -> int:
    """Order of the group generated by the cycle-notation generators."""
    gens = []
    for gen in split_generators(text):
        images = list(range(n + 1))
        for cyc in parse_cycles(gen):
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a] = b
        gens.append(tuple(images))
    identity = tuple(range(n + 1))
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for g in gens:
            for h in frontier:
                p = tuple(g[h[i]] for i in range(n + 1))
                if p not in seen:
                    seen.add(p)
                    new.append(p)
        frontier = new
    return len(seen)


def fixes_one(text: str | None) -> bool:
    if not text:
        return True
    return all(1 not in cyc or len(cyc) == 1 for g in split_generators(text) for cyc in parse_cycles(g))


def wedge_table(n: int, spheres: int) -> list[dict]:
    """Reduced homology of a wedge of spheres of dimension n-3."""
    return [
        {"dim": d, "betti": spheres if d == n - 3 else 0, "torsion": []} for d in range(n - 2)
    ]


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def generate(workload: str, seed: int, expected: dict) -> list[Invocation]:
    """The seeded invocations of a workload, each with its expected outcome."""
    if workload not in SPECS:
        raise KeyError(f"unknown workload {workload!r}; choose from {sorted(SPECS)}")
    out = []
    for kind, n, group in SPECS[workload]:
        argv = [kind, "--n", str(n)]
        inv = Invocation(argv, kind, n, group)
        if group:
            argv += ["--group", conjugate(group, seeded_relabelling(n, seed))]
        if kind == "homology":
            if fixes_one(group):
                # the paper: the quotient by G <= Stab(1) is a wedge of
                # [Stab(1) : G] spheres of dimension n-3
                index = factorial(n - 1) // group_order(n, group or "")
                inv.expected_table = wedge_table(n, index)
            else:
                recorded = expected["homology"][f"n={n} {group}"]
                inv.expected_table = recorded["table"]
                inv.expected_torsion = {int(k): v for k, v in recorded.get("paperTorsion", {}).items()}
        out.append(inv)
    return out
