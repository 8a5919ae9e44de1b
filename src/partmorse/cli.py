"""Command-line front end: build complexes and matchings, take
quotients, compute homology, verify the full certificate suite, and
emit aggregate reports.

The homology of the nerve modulo S_n or a point stabilizer, the Young
subgroups of order at least (n-1)!, is read at every n off
trees.TreeQuotient, the quotient built from leveled trees without the
nerve (12,740 cells for the stabilizer at n = 8, against 10.27 M in the
nerve); homology by one of them is the one run accepted at n = 9.  The
nerve is built, up to n = 8, for every other group and wherever a
matching is pushed down to its orbits.  Sizes past these are refused
before anything is built.

Every subcommand's parser is made from one spec, COMMANDS; a run builds
only the parser of the subcommand it names, and the full parser, whose
help and errors the subcommand's parser reproduces, only when it names
none or an unknown one, or for arguments the subcommand does not read.

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
from .trees import TreeQuotient, young_colouring


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
        qc = _quotient(n, group)
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


def _too_large(n: int) -> str:
    top = factorial(n) * factorial(n - 1) // 2 ** (n - 1)
    text = f"--n {n} is too large: the nerve has {top:,} top cells, n!(n-1)!/2^(n-1)"
    if n == 9:
        text += "; at n = 9 only homology with --group S_9 or a point stabilizer runs, without the nerve"
    return text


def _quotient(n: int, group: PermGroup):
    """The nerve of the proper part of Pi_n modulo the group: off leveled
    trees for S_n and the point stabilizers, the Young subgroups of order
    at least (n-1)!; the nerve itself for the trivial group; else the
    nerve's orbits, refused past n = 8."""
    if group.order >= factorial(n - 1) and (colours := young_colouring(group)) is not None:
        return TreeQuotient(colours)
    if n > 8:
        raise ConfigError(_too_large(n))
    return get_complex(n) if group.order == 1 else QuotientComplex(ComplexAction(get_complex(n), group))


def cmd_homology(args) -> tuple[int, object]:
    n = args.n
    result = homology_of(_quotient(n, parse_group(n, args.group)), max_dim=args.max_dim)
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
    agree = cert.is_acyclic and homology_of(morse_data(matching)) == nerve_homology
    checks.append(("Morse homology agrees with simplicial homology", agree, None))

    sym_trivial = homology_of(TreeQuotient([0] * n)).is_trivial()
    checks.append(("full symmetric quotient is homologically trivial", sym_trivial, None))
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


GROUP_OPTION = ("--group", {"help": 'generators in cycle notation, e.g. "(2 3),(2 3 4 5)"'})

# subcommand -> (handler, summary, whether it takes --out and --format,
# its other options)
COMMANDS = {
    "complex": (cmd_complex, "cell counts of the nerve", True, ()),
    "matching": (
        cmd_matching,
        "build and certify the main matching",
        True,
        (("--dump-matching", {"dest": "dump_matching", "help": "write the pair list here"}),),
    ),
    "quotient": (cmd_quotient, "quotient complex and matching", True, (GROUP_OPTION,)),
    "homology": (
        cmd_homology,
        "integral homology table",
        True,
        (GROUP_OPTION, ("--max-dim", {"type": int, "default": None, "dest": "max_dim"})),
    ),
    "verify": (cmd_verify, "run the verification suite for one size", False, ()),
    "report": (cmd_report, "aggregate matching reports for 3..n", True, ()),
}


def _add_arguments(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    _, _, output, options = COMMANDS[name]
    parser.add_argument("--n", type=int, required=True, help="ground-set size (>= 3)")
    if output:
        parser.add_argument("--out", help="write output to this path instead of stdout")
        parser.add_argument("--format", choices=("json", "csv", "text"), default="json")
    for flag, kwargs in options:
        parser.add_argument(flag, **kwargs)
    return parser


def full_parser() -> argparse.ArgumentParser:
    """The parser with a subparser for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="partmorse",
        description="equivariant acyclic matchings on the nerve of the partition lattice",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary, _, _) in COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=summary), name)
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse with the one parser of the subcommand in argv[0], made as
    full_parser makes it.  The full parser is built only for help, a
    missing or unknown subcommand, and arguments the subcommand does not
    read, which its top level names."""
    if argv and argv[0] in COMMANDS:
        parser = _add_arguments(argparse.ArgumentParser(prog=f"partmorse {argv[0]}"), argv[0])
        args, extra = parser.parse_known_args(argv[1:])
        if not extra:
            args.command = argv[0]
            return args
    return full_parser().parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        if args.n < 3:
            raise ConfigError(f"--n must be at least 3, got {args.n}")
        # n = 9 runs only the homology of a quotient on the tree path,
        # which cmd_homology checks once the group is parsed
        if args.n > 9 or (args.n == 9 and not (args.command == "homology" and args.group)):
            raise ConfigError(_too_large(args.n))
        if getattr(args, "max_dim", None) is not None and args.max_dim < 0:
            raise ConfigError(f"--max-dim must be at least 0, got {args.max_dim}")
        if getattr(args, "format", None) == "csv" and args.command != "homology":
            raise ConfigError("csv output is only available for homology tables")
        for path in filter(None, (getattr(args, "out", None), getattr(args, "dump_matching", None))):
            if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
                raise ConfigError(f"output path {path} is a directory or lies in no directory")
        code, payload = COMMANDS[args.command][0](args)
        if payload is not None:
            _emit(_render(payload, args.format), args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
