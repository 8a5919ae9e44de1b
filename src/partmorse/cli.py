"""Command-line front end: build complexes and matchings, take
quotients, compute homology, verify the full certificate suite, and
emit aggregate reports.

Exit codes: 0 success, 1 a verification failed, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import factorial

from .construction import (
    anchored_flags,
    block_size_label,
    build_main_matching,
    fiber_zero_matching,
    cell_fiber_key,
    get_action,
    get_complex,
    matching_report,
    quotient_critical_cells,
    special_cells,
    split_vertex,
)
from .homology import homology_of, verify_wedge
from .morse import check_equivariance, morse_data, validate_matching
from .ordercomplex import Simplex
from .perm import PermGroup, QuotientComplex, orbits
from .setpart import PartitionParseError


def split_group_arg(text: str) -> list[str]:
    """Split a generator list on commas outside parentheses."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        parts.append(tail)
    return [p for p in parts if p]


def parse_group(n: int, text: str | None) -> PermGroup:
    if not text:
        return PermGroup.trivial(n)
    return PermGroup.from_cycle_strings(n, split_group_arg(text))


def _render(payload, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2)
    if fmt == "csv":
        if isinstance(payload, str):
            return payload
        raise ValueError("csv output is only available for homology tables")
    lines = []

    def walk(value, prefix=""):
        if isinstance(value, dict):
            for k in sorted(value):
                walk(value[k], f"{prefix}{k}." if prefix else f"{k}.")
        elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
            for i, v in enumerate(value):
                walk(v, f"{prefix}{i}.")
        else:
            lines.append(f"{prefix.rstrip('.')}: {value}")

    walk(payload)
    return "\n".join(lines)


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_complex(args) -> tuple[int, object]:
    cx = get_complex(args.n)
    return 0, {
        "n": args.n,
        "dimension": cx.dim,
        "fVector": list(cx.f_vector()),
        "totalCells": cx.total_cells(),
        "eulerCharacteristic": cx.euler_characteristic(),
    }


def cmd_matching(args) -> tuple[int, object]:
    report = matching_report(args.n)
    if args.dump_matching:
        with open(args.dump_matching, "w") as fh:
            fh.write(build_main_matching(args.n).dump() + "\n")
    ok = all(report["certificates"].values())
    return (0 if ok else 1), report


def cmd_quotient(args) -> tuple[int, object]:
    n = args.n
    group = parse_group(n, args.group)
    payload: dict = {"n": n, "group": [str(g) for g in group.generators] or ["id"]}
    if group.fixes_point(1):
        qm, qc = quotient_critical_cells(n, group)
        stabilizer = get_action(n).group
        index = group.index_in(stabilizer)
        cert = validate_matching(qc, qm)
        result = homology_of(qc)
        critical = [
            {"dim": d, "label": qc.cell_label(d, i)}
            for d, layer in enumerate(qm.critical_cells())
            for i in layer
        ]
        payload.update(
            {
                "fVector": list(qc.f_vector()),
                "eulerCharacteristic": qc.euler_characteristic(),
                "index": index,
                "criticalCounts": qm.critical_counts(),
                "criticalCells": critical,
                "certificate": cert.to_json(),
                "reducedHomology": result.to_json(),
                "wedgeVerified": verify_wedge(result, n - 3, index),
            }
        )
        ok = cert.is_acyclic and payload["wedgeVerified"] and sum(qm.critical_counts()) == index + 1
        return (0 if ok else 1), payload
    print(
        "warning: group does not fix 1; skipping the quotient-matching "
        "pathway, reporting quotient homology only",
        file=sys.stderr,
    )
    qc = QuotientComplex(get_complex(n), group)
    result = homology_of(qc)
    payload.update(
        {
            "fVector": list(qc.f_vector()),
            "eulerCharacteristic": qc.euler_characteristic(),
            "reducedHomology": result.to_json(),
        }
    )
    return 0, payload


def cmd_homology(args) -> tuple[int, object]:
    n = args.n
    group = parse_group(n, args.group)
    target = get_complex(n) if group.order == 1 else QuotientComplex(get_complex(n), group)
    result = homology_of(target, max_dim=args.max_dim)
    if args.format == "csv":
        return 0, result.to_csv()
    return 0, result.to_json()


def _verification_checks(n: int) -> list[tuple[str, bool]]:
    checks: list[tuple[str, bool]] = []
    flags = anchored_flags(n)
    checks.append((f"flag count equals (n-1)! for n={n}", len(flags) == factorial(n - 1)))
    if n > 6:
        return checks

    cx = get_complex(n)
    action = get_action(n)
    matching = build_main_matching(n)
    cert = validate_matching(cx, matching)
    checks.append(("main matching is a matching", cert.is_matching))
    checks.append(("main matching is acyclic", cert.is_acyclic))
    checks.append(("main matching is equivariant", check_equivariance(matching, action)))

    cells = special_cells(n)
    critical = {cx.simplex(d, i) for d, layer in enumerate(matching.critical_cells()) for i in layer}
    wanted = set(cells.flags) | {Simplex((cells.split,))}
    checks.append(("critical set is the flags plus the split vertex", critical == wanted))

    fz = fiber_zero_matching(n)
    key = cell_fiber_key(cx)
    zero_cells = {
        (d, i) for d in range(cx.dim + 1) for i in range(cx.n_cells(d)) if key((d, i)) == 0
    }
    survivors = {c for c in zero_cells if c not in fz.partner}
    split_cell = cx.locate(Simplex((split_vertex(n),)))
    checks.append(("zero fiber collapses to the split vertex", survivors == {split_cell}))

    orbit_list = orbits(action.group, cells.flags)
    free_transitive = len(orbit_list) == 1 and orbit_list[0].stabilizer_order == 1
    checks.append(("stabilizer of 1 acts freely and transitively on flags", free_transitive))

    nerve_homology = homology_of(cx)
    wedge = verify_wedge(nerve_homology, n - 3, factorial(n - 1))
    checks.append(("reduced homology is a wedge of (n-1)! spheres", wedge))

    qm, qc = quotient_critical_cells(n, action.group)
    counts = qm.critical_counts()
    expected = [0] * (qc.dim + 1)
    expected[0] += 1
    expected[n - 3] += 1
    checks.append(("full-group quotient has two critical cells", counts == expected))

    data = morse_data(matching)
    agree = homology_of(data.chain_data()) == nerve_homology
    checks.append(("Morse homology agrees with simplicial homology", agree))

    sym_quotient = QuotientComplex(cx, PermGroup.symmetric(n))
    checks.append(("full symmetric quotient is homologically trivial", homology_of(sym_quotient).is_trivial()))
    return checks


def cmd_verify(args) -> tuple[int, object]:
    checks = _verification_checks(args.n)
    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    if failed:
        print(f"{len(failed)} verification(s) failed: {failed[0]}", file=sys.stderr)
        return 1, None
    return 0, None


def cmd_report(args) -> tuple[int, object]:
    return 0, [matching_report(k) for k in range(3, args.n + 1)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="partmorse",
        description="equivariant acyclic matchings on the nerve of the partition lattice",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, summary, output=True):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--n", type=int, required=True, help="ground-set size (>= 3)")
        if output:
            p.add_argument("--out", help="write output to this path instead of stdout")
            p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        return p

    group_help = 'generators in cycle notation, e.g. "(2 3),(2 3 4 5)"'
    add("complex", "cell counts of the nerve")
    matching = add("matching", "build and certify the main matching")
    matching.add_argument("--dump-matching", dest="dump_matching", help="write the pair list here")
    add("quotient", "quotient complex and matching").add_argument("--group", help=group_help)
    homology = add("homology", "integral homology table")
    homology.add_argument("--group", help=group_help)
    homology.add_argument("--max-dim", type=int, default=None, dest="max_dim")
    add("verify", "run the verification suite for one size", output=False)
    add("report", "aggregate matching reports for 3..n")

    args = parser.parse_args(argv)
    if args.n < 3:
        print(f"error: --n must be at least 3, got {args.n}", file=sys.stderr)
        return 2

    handlers = {
        "complex": cmd_complex,
        "matching": cmd_matching,
        "quotient": cmd_quotient,
        "homology": cmd_homology,
        "verify": cmd_verify,
        "report": cmd_report,
    }
    try:
        code, payload = handlers[args.command](args)
        if payload is not None:
            _emit(_render(payload, args.format), args.out)
    except (ValueError, PartitionParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
