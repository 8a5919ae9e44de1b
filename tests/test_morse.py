import re

import numpy as np
import pytest

from partmorse.construction import (
    _key_action,
    _key_leq,
    build_main_matching,
    cell_fiber_key,
    get_action,
    get_complex,
    pair_vertex,
)
from partmorse.homology import homology_of
from partmorse.morse import (
    InvalidMatchingError,
    Matching,
    check_equivariance,
    closure_matching,
    cohomology_pairing,
    cohomology_representatives,
    cone_matching,
    equivariant_patchwork_matching,
    find_cycle,
    gradient_chain,
    incidence_column,
    matching_from_dump,
    morse_data,
    patchwork_matching,
    quotient_matching,
    validate_matching,
)
from partmorse.ordercomplex import ExplicitComplex, OrderComplex
from partmorse.perm import ComplexAction, Perm, PermGroup, QuotientComplex, act
from test_perm import oracle_groups


def circle():
    return ExplicitComplex(
        [["a", "b", "c"], ["ab", "bc", "ca"]],
        [[[(0, -1), (1, 1)], [(1, -1), (2, 1)], [(2, -1), (0, 1)]]],
    )


def divisors_of_six():
    return OrderComplex.from_poset([1, 2, 3, 6], less=lambda a, b: a != b and b % a == 0)


def test_incidence_column():
    cx = circle()
    assert incidence_column(cx, 1, 0) == {0: -1, 1: 1}


def test_empty_matching_is_acyclic():
    cx = circle()
    cert = validate_matching(cx, [])
    assert cert.is_matching and cert.is_acyclic
    assert cert.critical_counts == (3, 3)
    assert cert.witness_cycle is None


def test_valid_matching_on_circle():
    cx = circle()
    m = Matching(cx, [((0, 0), (1, 0)), ((0, 1), (1, 1))])
    cert = validate_matching(cx, m)
    assert cert.is_matching and cert.is_acyclic
    assert cert.critical_counts == (1, 1)
    assert m.critical_cells() == [[2], [2]]
    assert m.is_critical((1, 2)) and not m.is_critical((0, 0))
    assert m.partner_of((0, 0)) == (1, 0)
    assert m.partner_of((1, 2)) is None


def test_cyclic_matching_detected_with_witness():
    # match every vertex upward around the triangle: a->ab, b->bc, c->ca
    cx = circle()
    pairs = [((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 2), (1, 2))]
    cert = validate_matching(cx, pairs)
    assert cert.is_matching
    assert not cert.is_acyclic
    assert cert.witness_cycle is not None
    labels = set(cert.witness_cycle)
    assert labels <= {"a", "b", "c", "ab", "bc", "ca"}
    assert len(cert.witness_cycle) >= 4
    cycle = find_cycle(cx, Matching(cx, pairs).partner)
    assert cycle is not None
    # the witness alternates dimensions 1,0,1,0,...
    assert [c[0] for c in cycle[:4]] == [1, 0, 1, 0]


def test_two_pairs_sharing_a_cell_rejected():
    cx = circle()
    cert = validate_matching(cx, [((0, 0), (1, 0)), ((0, 0), (1, 2))])
    assert not cert.is_matching and not cert.is_acyclic


def test_non_face_pair_rejected():
    cx = circle()
    # vertex c is not a face of edge ab
    cert = validate_matching(cx, [((0, 2), (1, 0))])
    assert not cert.is_matching


def test_irregular_incidence_rejected():
    # one edge with both endpoints glued to the same vertex, coefficient 2
    cx = ExplicitComplex([["p"], ["loop"]], [[[(0, 1), (0, 1)]]])
    cert = validate_matching(cx, [((0, 0), (1, 0))])
    assert not cert.is_matching


def test_dangling_pair_raises():
    cx = circle()
    with pytest.raises(InvalidMatchingError):
        validate_matching(cx, [((0, 5), (1, 0))])
    with pytest.raises(InvalidMatchingError):
        validate_matching(cx, [((1, 0), (2, 0))])


def test_wrong_dimension_gap_rejected():
    cx = divisors_of_six()
    v = (0, 0)
    t = (2, 0)
    cert = validate_matching(cx, [(v, t)])
    assert not cert.is_matching


def test_matching_dump_round_trip():
    cx = get_complex(4)
    m = build_main_matching(4)
    text = m.dump()
    lines = [ln for ln in text.splitlines() if ln]
    assert len(lines) == len(m.pairs)
    assert all(" -> " in ln for ln in lines)
    again = matching_from_dump(cx, text)
    assert sorted(again.pairs) == sorted(m.pairs)


def test_matching_from_dump_rejects_bad_lines():
    cx = get_complex(4)
    with pytest.raises(InvalidMatchingError):
        matching_from_dump(cx, "1,2|3|4 only one side")


def test_cone_matching_collapses_chain_nerve():
    cx = divisors_of_six()
    # full vertex set has maximum 6 at index 3
    pairs = cone_matching(cx, range(4), 3)
    cert = validate_matching(cx, pairs)
    assert cert.is_matching and cert.is_acyclic
    assert cert.critical_counts == (1, 0, 0)
    m = Matching(cx, pairs)
    assert m.critical_cells() == [[3], [], []]


def test_cone_matching_needs_maximum():
    cx = divisors_of_six()
    with pytest.raises(ValueError):
        cone_matching(cx, range(4), 1)
    with pytest.raises(ValueError):
        cone_matching(cx, [0, 1], 3)


def test_closure_matching_collapses_to_image():
    cx = divisors_of_six()
    # gcd with 2 is a descending idempotent monotone operator
    gcd2 = {1: 1, 2: 2, 3: 1, 6: 2}
    descend = lambda v: cx.element_index[gcd2[cx.elements[v]]]
    pairs = closure_matching(cx, descend)
    cert = validate_matching(cx, pairs)
    assert cert.is_matching and cert.is_acyclic
    assert cert.critical_counts == (2, 1, 0)
    crit = Matching(cx, pairs).critical_cells()
    image = {cx.element_index[1], cx.element_index[2]}
    expected = [
        [i for i in range(cx.n_cells(d)) if set(cx.cells[d][i]) <= image]
        for d in range(cx.dim + 1)
    ]
    assert crit == expected


def test_closure_matching_rejects_bad_operators():
    cx = divisors_of_six()
    idx = cx.element_index
    with pytest.raises(ValueError):  # not descending: sends 2 to 6
        closure_matching(cx, lambda v: idx[6] if cx.elements[v] == 2 else v)
    with pytest.raises(ValueError):  # not idempotent: 6 -> 2 -> 1
        closure_matching(cx, lambda v: idx[{1: 1, 2: 1, 3: 3, 6: 2}[cx.elements[v]]])
    with pytest.raises(ValueError):  # not monotone: fixes 3 but drops 6 below it
        closure_matching(cx, lambda v: idx[{1: 1, 2: 2, 3: 3, 6: 2}[cx.elements[v]]])


def test_patchwork_matching_glues_fibers():
    cx = divisors_of_six()
    top = lambda cell: cx.elements[cx.cells[cell[0]][cell[1]][-1]]
    leq = lambda a, b: a == b or b % a == 0
    fibers = {
        1: [],
        2: [(cx.locate((1,)), cx.locate((0, 1)))],
        3: [(cx.locate((2,)), cx.locate((0, 2)))],
        6: [
            (cx.locate((3,)), cx.locate((0, 3))),
            (cx.locate((1, 3)), cx.locate((0, 1, 3))),
            (cx.locate((2, 3)), cx.locate((0, 2, 3))),
        ],
    }
    m = patchwork_matching(cx, top, leq, fibers)
    cert = validate_matching(cx, m)
    assert cert.is_matching and cert.is_acyclic
    assert m.critical_cells() == [[0], [], []]


def test_patchwork_rejects_non_order_preserving_key():
    cx = divisors_of_six()
    # the key of a face must sit below the key of the cell; dimension is
    # the opposite: an edge maps below its own vertices
    bad_key = lambda cell: cell[0]
    leq = lambda a, b: b <= a
    with pytest.raises(ValueError):
        patchwork_matching(cx, bad_key, leq, {0: [], 1: [], 2: []})


def test_patchwork_rejects_pair_across_fibers():
    cx = divisors_of_six()
    top = lambda cell: cx.elements[cx.cells[cell[0]][cell[1]][-1]]
    leq = lambda a, b: a == b or b % a == 0
    fibers = {1: [], 2: [], 3: [], 6: [(cx.locate((1,)), cx.locate((1, 3)))]}
    with pytest.raises(ValueError):
        patchwork_matching(cx, top, leq, fibers)


def test_patchwork_leaves_acyclicity_to_validation():
    cx = circle()
    cyclic = [((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 2), (1, 2))]
    m = patchwork_matching(cx, lambda cell: 0, lambda a, b: True, {0: cyclic})
    cert = validate_matching(cx, m)
    assert cert.is_matching and not cert.is_acyclic
    assert cert.witness_cycle is not None


def main_fibers(n):
    """The representative fibers build_main_matching assembles: the zero
    fiber and the fiber over the pair vertex {1,n}."""
    key = cell_fiber_key(get_complex(n))
    top = pair_vertex(n, n)
    pairs = build_main_matching(n).pairs
    return {k: [p for p in pairs if key(p[0]) == k] for k in (0, top)}


def assemble(n, rep_pairs):
    cx = get_complex(n)
    return equivariant_patchwork_matching(cx, get_action(n), cell_fiber_key(cx), _key_action, _key_leq, rep_pairs)


def test_equivariant_patchwork_names_stabilizer_witness():
    n = 5
    action = get_action(n)
    top = pair_vertex(n, n)
    fibers = main_fibers(n)
    assert assemble(n, fibers).pairs == build_main_matching(n).pairs
    # drop a pair that some element fixing the key moves
    stabilizer = [g for g in action.group.elements if act(g, top) == top]
    moved = next(p for p in fibers[top] if any(action.cell_image(g, p[0]) != p[0] for g in stabilizer))
    broken = [p for p in fibers[top] if p != moved]
    with pytest.raises(ValueError, match="not stabilizer-equivariant") as info:
        assemble(n, {0: fibers[0], top: broken})
    witness = Perm.from_cycles(n, re.search(r"\(fails (.+)\)$", str(info.value)).group(1))
    assert witness in action.group
    assert act(witness, top) == top
    image = {(action.cell_image(witness, a), action.cell_image(witness, b)) for a, b in broken}
    assert image != set(broken)


def test_equivariant_patchwork_needs_one_representative_per_key_orbit():
    n = 5
    fibers = main_fibers(n)
    with pytest.raises(ValueError, match="key orbit of another representative"):
        assemble(n, {**fibers, pair_vertex(n, 2): []})
    with pytest.raises(ValueError, match="no representative"):
        assemble(n, {0: fibers[0]})
    with pytest.raises(ValueError, match="not the key of any cell"):
        assemble(n, {**fibers, -1: []})


def test_check_equivariance_matches_element_walk():
    seen = set()
    for group in oracle_groups():
        action = ComplexAction(get_complex(group.n), group)
        main = build_main_matching(group.n)
        for m in (main, Matching(main.complex, main.pairs[1:])):
            walk = all(
                m.partner.get(action.cell_image(g, a)) == action.cell_image(g, b)
                for g in group.elements
                for a, b in m.pairs
            )
            assert check_equivariance(m, action) == walk
            seen.add(walk)
    assert seen == {True, False}


def test_check_equivariance():
    m = build_main_matching(4)
    assert check_equivariance(m, get_action(4))
    full = ComplexAction(get_complex(4), PermGroup.symmetric(4))
    assert not check_equivariance(m, full)


def test_quotient_matching_critical_orbits():
    m = build_main_matching(4)
    group = PermGroup.from_cycle_strings(4, ["(2 3)"])
    qc = QuotientComplex(get_complex(4), group)
    qm = quotient_matching(m, qc)
    cert = validate_matching(qc, qm)
    assert cert.is_matching and cert.is_acyclic
    # critical orbit count: one vertex orbit plus 6/|G| top orbits
    assert qm.critical_counts() == [1, 3]


def test_quotient_matching_requires_equivariance():
    cx = get_complex(4)
    # a single pair that is not stable under the stabilizer subgroup
    i = cx.element_index[cx.elements[0]]
    pairs = build_main_matching(4).pairs[:1]
    group = PermGroup.point_stabilizer(4)
    qc = QuotientComplex(cx, group)
    broken = Matching(cx, pairs)
    with pytest.raises(ValueError):
        quotient_matching(broken, qc)


def test_gradient_chain_of_circle_is_a_cycle():
    cx = circle()
    m = Matching(cx, [((0, 0), (1, 0)), ((0, 1), (1, 1))])
    chain = gradient_chain(m, (1, 2))
    assert set(chain) == {0, 1, 2}
    assert all(abs(v) == 1 for v in chain.values())
    # boundary of the flowed chain vanishes
    total = {}
    for i, coeff in chain.items():
        for j, s in cx.faces(1, i):
            total[j] = total.get(j, 0) + coeff * s
    assert not any(total.values())


def test_morse_data_circle():
    cx = circle()
    m = Matching(cx, [((0, 0), (1, 0)), ((0, 1), (1, 1))])
    data = morse_data(m, cycle_reps=True)
    assert data.critical_counts() == [1, 1]
    # the morse differential of the surviving edge is zero
    assert data.boundary[1] == [{}]
    hom = homology_of(data.chain_data(), reduced=False)
    assert hom.betti(0) == 1 and hom.betti(1) == 1
    rep = data.cycle_reps[(1, 2)]
    assert set(rep) == {0, 1, 2}


def test_morse_homology_matches_simplicial_on_fixture():
    cx = divisors_of_six()
    gcd2 = {1: 1, 2: 2, 3: 1, 6: 2}
    m = Matching(cx, closure_matching(cx, lambda v: cx.element_index[gcd2[cx.elements[v]]]))
    data = morse_data(m)
    assert homology_of(data.chain_data()).to_json() == homology_of(cx).to_json()


def test_cohomology_representatives_pair_to_identity():
    cx = circle()
    m = Matching(cx, [((0, 0), (1, 0)), ((0, 1), (1, 1))])
    data = morse_data(m, cycle_reps=True)
    reps = cohomology_representatives(data, 1)
    assert len(reps) == 1
    pairing = cohomology_pairing(data)
    assert pairing.shape == (1, 1)
    assert abs(int(np.linalg.det(pairing))) == 1
