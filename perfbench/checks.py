"""Output checks.  Each invocation yields a fixed number of checks, so a
call that raises or exits non-zero counts every one of its checks as
failed and the failure ratio stays comparable across runs."""

from __future__ import annotations

import json
from math import factorial

from workloads import VERIFY_LINES, Invocation

REPORT_SIZES = range(3, 7)


def _critical_counts(k: int) -> list[int]:
    """The split vertex in dimension 0 and (k-1)! flags in dimension k-3."""
    counts = [0] * (k - 2)
    counts[0] += 1
    counts[k - 3] += factorial(k - 1)
    return counts


def check_names(inv: Invocation) -> list[str]:
    if inv.kind == "verify":
        return [f"verify line {i + 1} reads PASS" for i in range(VERIFY_LINES)] + [
            f"verify prints exactly {VERIFY_LINES} lines"
        ]
    if inv.kind == "report":
        names = [f"report covers n={REPORT_SIZES.start}..{REPORT_SIZES.stop - 1}"]
        for k in REPORT_SIZES:
            names += [
                f"n={k} critical counts [1, 0, ..., {k - 1}!]",
                f"n={k} cardinalityCn = {k - 1}!",
                f"n={k} certificate acyclic",
                f"n={k} certificate equivariant",
                f"n={k} certificate criticalSetMatches",
                f"n={k} one free orbit of flags",
            ]
        return names
    names = [f"{inv.label()}: homology table"]
    for d in sorted(inv.expected_torsion or {}):
        names.append(f"{inv.label()}: torsion in dimension {d}")
    return names


def _verify(stdout: str) -> list[bool]:
    lines = [line for line in stdout.splitlines() if line.strip()]
    oks = [i < len(lines) and lines[i].startswith("PASS") for i in range(VERIFY_LINES)]
    return oks + [len(lines) == VERIFY_LINES]


def _report(stdout: str) -> list[bool]:
    reports = {r["n"]: r for r in json.loads(stdout)}
    oks = [sorted(reports) == list(REPORT_SIZES)]
    for k in REPORT_SIZES:
        r = reports.get(k)
        if r is None:
            oks += [False] * 6
            continue
        certs = r["certificates"]
        oks += [
            r["criticalCounts"] == _critical_counts(k),
            r["cardinalityCn"] == factorial(k - 1),
            certs["acyclic"] is True,
            certs["equivariant"] is True,
            certs["criticalSetMatches"] is True,
            r["orbitData"] == {"orbits": 1, "stabilizerOrder": 1},
        ]
    return oks


def _homology(inv: Invocation, stdout: str) -> list[bool]:
    table = json.loads(stdout)
    oks = [table == inv.expected_table]
    by_dim = {row["dim"]: row["torsion"] for row in table}
    for d, factors in sorted((inv.expected_torsion or {}).items()):
        oks.append(by_dim.get(d) == factors)
    return oks


def check(inv: Invocation, exit_code: int, stdout: str) -> list[tuple[str, bool]]:
    """(name, passed) for every check of one invocation."""
    names = check_names(inv)
    if exit_code != 0:
        return [(name, False) for name in names]
    try:
        if inv.kind == "verify":
            oks = _verify(stdout)
        elif inv.kind == "report":
            oks = _report(stdout)
        else:
            oks = _homology(inv, stdout)
    except (ValueError, KeyError, TypeError, AttributeError):
        oks = [False] * len(names)
    return list(zip(names, oks))
