"""Acceptance gate: twelve exact-integer criteria over the full pipeline.

Each test prints one pass/fail line; sizes follow the desk scale
(n <= 6 with full certificates, n = 7 flag counts only).  The full
certificate suite at n = 7 runs through the CLI, in
test_cli.test_verify_n7_runs_full_suite.
"""

import math
import random

from partmorse.construction import (
    anchored_flags,
    build_main_matching,
    fiber_zero_matching,
    get_action,
    get_complex,
    patchwork_keys,
    quotient_critical_cells,
)
from partmorse.homology import homology_of, smith_normal_form, verify_wedge
from partmorse.morse import (
    check_equivariance,
    cohomology_pairing,
    morse_data,
    quotient_matching,
    validate_matching,
)
from partmorse.ordercomplex import Simplex
from partmorse.perm import ComplexAction, Perm, PermGroup, QuotientComplex, act, orbits
from partmorse.setpart import enumerate_proper
from chain_oracle import element_images, group_elements, is_pair_vertex, lift_partition, orbit_vertex_label, split_vertex, symmetric_group

FULL_RANGE = (3, 4, 5, 6)

SUBGROUPS = {
    4: [
        ("trivial", []),
        ("order-2", ["(2 3)"]),
        ("index-2", ["(2 3 4)"]),
        ("full", ["(2 3)", "(2 3 4)"]),
    ],
    5: [
        ("trivial", []),
        ("order-2", ["(2 3)"]),
        ("index-2", ["(2 3 4)", "(3 4 5)"]),
        ("full", ["(2 3)", "(2 3 4 5)"]),
    ],
}


def _report(capsys, num: int, desc: str, ok: bool):
    with capsys.disabled():
        print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _subgroup(n, texts):
    if not texts:
        return PermGroup.trivial(n)
    return PermGroup.from_cycle_strings(n, texts)


def test_criterion_01_flag_counts(capsys):
    ok = all(len(anchored_flags(n)) == math.factorial(n - 1) for n in range(3, 8))
    _report(capsys, 1, "critical-cell family has (n-1)! members for n=3..7", ok)


def test_criterion_02_main_matching_certificates(capsys):
    ok = True
    for n in FULL_RANGE:
        cx = get_complex(n)
        matching = build_main_matching(n)
        cert = validate_matching(cx, matching, get_action(n))
        critical = {
            cx.simplex(d, i)
            for d, layer in enumerate(matching.critical_cells())
            for i in layer
        }
        wanted = {cx.simplex(cx.dim, i) for i in anchored_flags(n).tolist()} | {Simplex((split_vertex(n),))}
        ok = (
            ok
            and cert.is_matching
            and cert.is_acyclic
            and cert.equivariant_under is not None
            and critical == wanted
        )
    _report(capsys, 2, "main matching acyclic, equivariant, critical set exact for n=3..6", ok)


def test_criterion_03_fiber_zero_unique_critical(capsys):
    ok = True
    for n in FULL_RANGE:
        cx = get_complex(n)
        m = fiber_zero_matching(n)
        key = patchwork_keys(cx)
        survivors = {
            (d, i)
            for d in range(cx.dim + 1)
            for i in range(cx.n_cells(d))
            if key[d][i] < 2 and m.up[d][i] < 0 and m.down[d][i] < 0
        }
        cert = validate_matching(cx, m)
        ok = (
            ok
            and cert.is_matching
            and cert.is_acyclic
            and survivors == {cx.locate(Simplex((split_vertex(n),)))}
        )
    _report(capsys, 3, "zero fiber collapses onto the split vertex for n=3..6", ok)


def test_criterion_04_free_transitive_action(capsys):
    ok = True
    for n in FULL_RANGE:
        cx = get_complex(n)
        orbs = orbits(get_action(n).group, [cx.simplex(cx.dim, i) for i in anchored_flags(n).tolist()])
        ok = ok and len(orbs) == 1 and orbs[0].stabilizer_order == 1
    _report(capsys, 4, "stabilizer of 1 acts freely and transitively on flags for n=3..6", ok)


def test_criterion_05_wedge_homology(capsys):
    ok = True
    for n in FULL_RANGE:
        result = homology_of(get_complex(n))
        ok = ok and verify_wedge(result, n - 3, math.factorial(n - 1))
    _report(capsys, 5, "reduced homology is Z^((n-1)!) in dimension n-3 for n=3..6", ok)


def test_criterion_06_subgroup_quotients(capsys):
    ok = True
    for n, entries in SUBGROUPS.items():
        stabilizer = get_action(n).group
        for _, texts in entries:
            group = _subgroup(n, texts)
            index = group.index_in(stabilizer)
            qm, qc = quotient_critical_cells(n, group)
            result = homology_of(qc)
            ok = (
                ok
                and verify_wedge(result, n - 3, index)
                and sum(qm.critical_counts()) == index + 1
                and validate_matching(qc, qm).is_acyclic
            )
    _report(capsys, 6, "subgroup quotients give Z^index wedges and index+1 critical cells (n=4,5)", ok)


def test_criterion_07_full_group_quotient_structure(capsys):
    ok = True
    for n in (4, 5, 6):
        qm, qc = quotient_critical_cells(n, get_action(n).group)
        counts = qm.critical_counts()
        expected = [0] * (qc.dim + 1)
        expected[0] += 1
        expected[n - 3] += 1
        ok = ok and counts == expected
        bottom = qm.critical_cells()[0][0]
        ok = ok and orbit_vertex_label(qc, bottom) == f"1⊕{n - 1}"
        top = qm.critical_cells()[n - 3][-1]
        if n == 3:
            vertex_orbits = [top]
        else:
            chain = qc.base.chains(n - 3, [qc.reps[n - 3][top]])[0].tolist()
            vertex_orbits = [qc.orbit_of[0][v] for v in chain]
        labels = [orbit_vertex_label(qc, j) for j in vertex_orbits]
        wanted = [f"{v0}⊕" + "+".join(["1"] * (n - v0)) for v0 in range(2, n)]
        ok = ok and sorted(labels) == sorted(wanted)
    _report(capsys, 7, "full-group quotient keeps one vertex 1⊕(n-1) and one top cell (n=4,5,6)", ok)


def test_criterion_08_symmetric_quotient_trivial(capsys):
    ok = True
    for n in FULL_RANGE:
        qc = QuotientComplex(ComplexAction(get_complex(n), symmetric_group(n)))
        ok = ok and homology_of(qc).is_trivial()
    _report(capsys, 8, "quotient by the full symmetric group is homologically trivial for n=3..6", ok)


def test_criterion_09_torsion_counterexample(capsys):
    qc = QuotientComplex(ComplexAction(get_complex(5), PermGroup.from_cycle_strings(5, ["(1 2 3 4 5)"])))
    result = homology_of(qc)
    ok = result.torsion(1) == (5,) and result.betti(1) == 0
    _report(capsys, 9, "five-cycle quotient has H_1 torsion exactly (5)", ok)


def test_criterion_10_morse_equals_simplicial(capsys):
    ok = True
    for n in FULL_RANGE:
        cx = get_complex(n)
        want = homology_of(cx).to_json()
        for matching in (build_main_matching(n), fiber_zero_matching(n)):
            got = homology_of(morse_data(matching)).to_json()
            ok = ok and got == want
    for n, entries in SUBGROUPS.items():
        for _, texts in entries:
            qm, qc = quotient_critical_cells(n, _subgroup(n, texts))
            got = homology_of(morse_data(qm)).to_json()
            ok = ok and got == homology_of(qc).to_json()
    qm6, qc6 = quotient_critical_cells(6, get_action(6).group)
    ok = ok and homology_of(morse_data(qm6)).to_json() == homology_of(qc6).to_json()
    _report(capsys, 10, "Morse homology equals simplicial homology for every matching built", ok)


def test_criterion_11_cohomology_pairing_unimodular(capsys):
    ok = True
    for n in (4, 5):
        data = morse_data(build_main_matching(n))
        pairing = cohomology_pairing(data)
        size = math.factorial(n - 1)
        ok = ok and pairing.shape == (size, size) and smith_normal_form(pairing) == (1,) * size
    _report(capsys, 11, "cocycle/cycle pairing matrix is unimodular for n=4,5", ok)


def _transport_well_defined(n, sample=None):
    matching = build_main_matching(n)
    action = get_action(n)
    pair_set = set(matching.pairs)
    elements = group_elements(action.group)
    if sample is not None:
        rng = random.Random(97 + n)
        elements = rng.sample(list(elements), min(sample, len(elements)))
        pair_list = rng.sample(list(matching.pairs), min(sample * 40, len(matching.pairs)))
    else:
        pair_list = list(matching.pairs)
    for g in elements:
        img = element_images(action, g)
        for (d, a), (e, b) in pair_list:
            if ((d, img[d][a]), (e, img[e][b])) not in pair_set:
                return False
    return True


def _lift_intertwines(n, sample=None):
    parts = enumerate_proper(n - 1)
    perms = [g for g in group_elements(get_action(n).group) if g(n) == n]
    if sample is not None:
        rng = random.Random(211 + n)
        parts = rng.sample(parts, min(sample * 10, len(parts)))
        perms = rng.sample(perms, min(sample, len(perms)))
    for p in parts:
        q = lift_partition(p)
        if q.blocks[0][-1] != n or len(q.blocks) == 1:
            return False
        for g in perms:
            if act(g, q) != lift_partition(act(Perm(g.images[: n - 1]), p)):
                return False
    # order-isomorphism onto the image
    probe = parts if sample is None else parts[:20]
    for a in probe:
        for b in probe:
            if a.refines(b) != lift_partition(a).refines(lift_partition(b)):
                return False
    return True


def _fiber_vertex_unique(n, sample=None):
    cx = get_complex(n)
    cells = [(d, i) for d in range(cx.dim + 1) for i in range(cx.n_cells(d))]
    if sample is not None:
        cells = random.Random(331 + n).sample(cells, min(sample * 1000, len(cells)))
    for d, i in cells:
        chain = cx.simplex(d, i)
        hits = [v for v in chain if is_pair_vertex(v)]
        if len(hits) > 1:
            return False
        if hits and chain.vertices[0] != hits[0]:
            return False
    return True


def test_criterion_12_property_suites(capsys):
    ok = True
    for n in (4, 5):
        ok = ok and _transport_well_defined(n)
        ok = ok and _lift_intertwines(n)
        ok = ok and _fiber_vertex_unique(n)
    ok = ok and _transport_well_defined(6, sample=25)
    ok = ok and _lift_intertwines(6, sample=12)
    ok = ok and _fiber_vertex_unique(6, sample=3)
    _report(capsys, 12, "transport, lifting, and fiber-vertex properties hold (exhaustive n<=5, sampled n=6)", ok)
