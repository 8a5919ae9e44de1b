"""Command-line front end: build complexes and matchings, take
quotients, compute homology, verify the full certificate suite, and
emit aggregate reports.

Exit codes: 0 success, 1 a verification failed, 2 invalid configuration
(a ConfigError); any other error propagates.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import factorial

from .construction import (
    anchored_flags,
    build_main_matching,
    critical_set_witness,
    flag_orbits,
    get_action,
    get_complex,
    matching_report,
    patchwork_keys,
    quotient_critical_cells,
)
from .homology import homology_of, verify_wedge
from .morse import InvalidMatchingError, equivariance_witness, morse_data, quotient_matching, validate_matching
from .perm import ComplexAction, PermGroup, QuotientComplex


class ConfigError(Exception):
    """The command line asks for something invalid."""


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
    try:
        return PermGroup.from_cycle_strings(n, split_group_arg(text))
    except ValueError as exc:
        raise ConfigError(exc) from exc


def _render(payload, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2)
    if fmt == "csv":
        return payload
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
    if fixes_one := group.fixes_point(1):
        qm, qc = quotient_critical_cells(n, group)
    else:
        print(
            "warning: group does not fix 1; skipping the quotient-matching "
            "pathway, reporting quotient homology only",
            file=sys.stderr,
        )
        qc = QuotientComplex(ComplexAction(get_complex(n), group))
    result = homology_of(qc)
    payload: dict = {
        "n": n,
        "group": [str(g) for g in group.generators] or ["id"],
        "fVector": list(qc.f_vector()),
        "eulerCharacteristic": qc.euler_characteristic(),
        "reducedHomology": result.to_json(),
    }
    if not fixes_one:
        return 0, payload
    index = group.index_in(get_action(n).group)
    cert = validate_matching(qc, qm)
    critical = [{"dim": d, "label": qc.cell_label(d, i)} for d, layer in enumerate(qm.critical_cells()) for i in layer]
    payload.update(
        {
            "index": index,
            "criticalCounts": qm.critical_counts(),
            "criticalCells": critical,
            "certificate": cert.to_json(),
            "wedgeVerified": verify_wedge(result, n - 3, index),
        }
    )
    ok = cert.is_acyclic and payload["wedgeVerified"] and sum(qm.critical_counts()) == index + 1
    return (0 if ok else 1), payload


def cmd_homology(args) -> tuple[int, object]:
    n = args.n
    group = parse_group(n, args.group)
    target = get_complex(n) if group.order == 1 else QuotientComplex(ComplexAction(get_complex(n), group))
    result = homology_of(target, max_dim=args.max_dim)
    if args.format == "csv":
        return 0, result.to_csv()
    return 0, result.to_json()


def _verification_checks(n: int) -> list[tuple[str, bool, str | None]]:
    """(name, passed, witness or None) for each check."""
    checks: list[tuple[str, bool, str | None]] = []
    flags = anchored_flags(n)
    checks.append((f"flag count equals (n-1)! for n={n}", len(flags) == factorial(n - 1), None))
    cx = get_complex(n)
    action = get_action(n)
    matching = build_main_matching(n)
    cert = validate_matching(cx, matching)
    checks.append(("main matching is a matching", cert.is_matching, cert.defect))
    cycle = cert.witness_cycle and "gradient cycle " + " -> ".join(cert.witness_cycle)
    checks.append(("main matching is acyclic", cert.is_acyclic, cycle))
    witness = equivariance_witness(matching, action)
    checks.append(("main matching is equivariant", witness is None, witness))

    witness = critical_set_witness(matching, flags)
    checks.append(("critical set is the flags plus the split vertex", witness is None, witness))

    # pairs stay in their fibers, so the zero fiber's survivors are the
    # critical cells of the main matching with key 0 or 1
    witness = critical_set_witness(matching, [], among=[key < 2 for key in patchwork_keys(cx)])
    checks.append(("zero fiber collapses to the split vertex", witness is None, witness))

    # the action on the flags is free and transitive iff they form one
    # orbit, of |G| cells
    top, orbit_sizes = flag_orbits(n, flags)
    free_transitive = orbit_sizes.tolist() == [len(top)] and len(top) == action.group.order
    checks.append(("stabilizer of 1 acts freely and transitively on flags", free_transitive, None))

    nerve_homology = homology_of(cx)
    wedge = verify_wedge(nerve_homology, n - 3, factorial(n - 1))
    checks.append(("reduced homology is a wedge of (n-1)! spheres", wedge, None))

    # a matching that is not equivariant, or whose quotient is cyclic, fails
    # this check with the reason as its witness
    expected = [0] * (cx.dim + 1)
    expected[0] += 1
    expected[n - 3] += 1
    try:
        counts = quotient_matching(matching, QuotientComplex(action)).critical_counts()
        witness = None if counts == expected else f"critical counts {counts}, expected {expected}"
    except InvalidMatchingError as exc:
        witness = str(exc)
    checks.append(("full-group quotient has two critical cells", witness is None, witness))

    # a cyclic matching has no Morse complex; the acyclic line names its cycle
    agree = cert.is_acyclic and homology_of(morse_data(matching).chain_data()) == nerve_homology
    checks.append(("Morse homology agrees with simplicial homology", agree, None))

    sym_quotient = QuotientComplex(ComplexAction(cx, PermGroup.symmetric(n)))
    checks.append(("full symmetric quotient is homologically trivial", homology_of(sym_quotient).is_trivial(), None))
    return checks


def cmd_verify(args) -> tuple[int, object]:
    checks = _verification_checks(args.n)
    failed = [(name, witness) for name, ok, witness in checks if not ok]
    for name, ok, _ in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    if failed:
        print(f"{len(failed)} verification(s) failed: {failed[0][0]}", file=sys.stderr)
        for name, witness in failed:
            if witness:
                print(f"  {name}: {witness}", file=sys.stderr)
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
    handlers = {
        "complex": cmd_complex,
        "matching": cmd_matching,
        "quotient": cmd_quotient,
        "homology": cmd_homology,
        "verify": cmd_verify,
        "report": cmd_report,
    }
    try:
        if args.n < 3:
            raise ConfigError(f"--n must be at least 3, got {args.n}")
        if args.n > 8:
            top = factorial(args.n) * factorial(args.n - 1) // 2 ** (args.n - 1)
            raise ConfigError(f"--n {args.n} is too large: the nerve has {top:,} top cells, n!(n-1)!/2^(n-1)")
        if getattr(args, "max_dim", None) is not None and args.max_dim < 0:
            raise ConfigError(f"--max-dim must be at least 0, got {args.max_dim}")
        if getattr(args, "format", None) == "csv" and args.command != "homology":
            raise ConfigError("csv output is only available for homology tables")
        for path in filter(None, (getattr(args, "out", None), getattr(args, "dump_matching", None))):
            if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
                raise ConfigError(f"output path {path} is a directory or lies in no directory")
        code, payload = handlers[args.command](args)
        if payload is not None:
            _emit(_render(payload, args.format), args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
