import numpy as np
import pytest

from partmorse.ordercomplex import OrderComplex, proper_part_complex
from partmorse.perm import (
    ComplexAction,
    Perm,
    PermGroup,
    QuotientComplex,
    act,
    orbit_labels,
    orbits,
)
from partmorse.setpart import enumerate_proper, parse_partition
from partmorse.ordercomplex import Simplex
from chain_oracle import chain_positions, dense_boundary, perm_product_closure, relation_chains, symmetric_group
from test_acceptance import SUBGROUPS
from test_complex import int32_digest

N6_SUBGROUPS = [[], ["(2 3)"], ["(2 3 4)", "(3 4 5)", "(4 5 6)"], ["(2 3)", "(2 3 4 5 6)"]]


def oracle_groups():
    """Every acceptance subgroup of the stabilizer of 1, plus S_4 and S_5."""
    groups = [PermGroup.from_cycle_strings(n, texts) for n, entries in SUBGROUPS.items() for _, texts in entries]
    return groups + [symmetric_group(4), symmetric_group(5)]


def test_perm_basics():
    g = Perm.from_cycles(5, "(2 3)(4 5)")
    assert g(2) == 3 and g(3) == 2 and g(1) == 1
    assert g.images == (1, 3, 2, 5, 4)
    assert g.cycles() == [(2, 3), (4, 5)]
    assert g.inverse() == g
    assert str(g) == "(2 3)(4 5)"


def test_perm_identity_forms():
    e = Perm.from_cycles(4, "id")
    assert e == Perm.identity(4)
    assert str(e) == "id"
    assert e.cycles() == []


def test_from_cycles_rejects_garbage():
    with pytest.raises(ValueError):
        Perm.from_cycles(4, "(1 5)")
    with pytest.raises(ValueError):
        Perm.from_cycles(4, "(2 2)")
    with pytest.raises(ValueError):
        Perm.from_cycles(4, "2 3")
    # cycles that share a point are refused, not read as disjoint
    for text, point in (("(2 3)(2 3)", 2), ("(1 2)(1 3)", 1), ("(1 2)(3 4 2)", 2)):
        with pytest.raises(ValueError, match=f"point {point} is in two cycles"):
            Perm.from_cycles(4, text)
    assert Perm.from_cycles(4, "(1 2)(3 4)") == Perm([2, 1, 4, 3])


def test_composition_convention():
    g = Perm.from_cycles(3, "(1 2)")
    h = Perm.from_cycles(3, "(2 3)")
    # (g*h)(x) = g(h(x))
    assert (g * h)(3) == 1
    assert (h * g)(3) == 2
    assert g * g == Perm.identity(3)
    assert (g * h).inverse() == h.inverse() * g.inverse()


def test_group_generation():
    s4 = symmetric_group(4)
    assert s4.order == 24
    assert PermGroup.trivial(4).order == 1
    stab = PermGroup.point_stabilizer(5)
    assert stab.order == 24
    assert all(g(1) == 1 for g in stab.elements)
    cyclic = PermGroup.from_cycle_strings(5, ["(1 2 3 4 5)"])
    assert cyclic.order == 5


def test_closure_matches_perm_products():
    groups = [PermGroup.trivial(4)]
    groups += [PermGroup.point_stabilizer(n) for n in range(3, 8)]
    groups += [symmetric_group(n) for n in range(1, 8)]
    groups += [PermGroup.from_cycle_strings(5, texts) for _, texts in SUBGROUPS[5]]
    groups += [PermGroup.from_cycle_strings(6, texts) for texts in N6_SUBGROUPS]
    for group in groups:
        expected = perm_product_closure(group.n, group.generators)
        assert group.order == len(expected)
        assert group.table.dtype == np.int32
        assert group.elements == expected
        assert all(g in group for g in expected)


def test_membership_is_false_off_the_group():
    stab = PermGroup.point_stabilizer(6)
    assert Perm.from_cycles(6, "(2 6)(3 4)") in stab
    assert Perm.from_cycles(6, "(1 2)") not in stab
    assert Perm.from_cycles(6, "(1 6 5)") not in stab
    # a permutation of another degree is never a member
    assert Perm.from_cycles(5, "(2 3)") not in stab
    assert Perm.from_cycles(7, "(2 3)") not in stab
    assert Perm.identity(5) not in PermGroup.trivial(6)
    # images 4,1,2,3 in base 4 and 1,2,3,5,4 in base 5 share the code 198
    assert Perm((4, 1, 2, 3)) not in PermGroup.from_cycle_strings(5, ["(4 5)"])
    assert Perm.identity(6) in PermGroup.trivial(6)


def test_closure_past_int64_codes():
    # base-n codes of image rows wrap in int64 from n = 16 on: the closure
    # keys rows by their bytes there
    for n in (15, 16, 20, 130):
        gens = [Perm.from_cycles(n, "(1 2)"), Perm.from_cycles(n, f"(3 4 {n})")]
        group = PermGroup.generate(n, gens)
        assert group.elements == perm_product_closure(n, gens)
        assert Perm.from_cycles(n, f"(3 {n} 4)") in group
        assert Perm.from_cycles(n, "(3 4)") not in group
        assert Perm.identity(n - 1) not in group
    assert PermGroup.trivial(16).order == 1


def test_symmetric_8_order_without_elements():
    group = symmetric_group(8)
    assert group.order == 40320
    assert Perm.from_cycles(8, "(1 8)(2 7 3)") in group
    assert "elements" not in group.__dict__


def test_subgroup_relations():
    s5 = symmetric_group(5)
    stab = PermGroup.point_stabilizer(5)
    sub = PermGroup.from_cycle_strings(5, ["(2 3)"])
    assert sub.is_subgroup_of(stab)
    assert stab.is_subgroup_of(s5)
    assert not s5.is_subgroup_of(stab)
    assert stab.index_in(s5) == 5
    assert sub.index_in(stab) == 12
    assert stab.fixes_point(1)
    assert not s5.fixes_point(1)
    assert Perm.from_cycles(5, "(2 4)") in stab
    assert Perm.from_cycles(5, "(1 4)") not in stab


def test_act_on_partition():
    g = Perm.from_cycles(4, "(2 3 4)")
    p = parse_partition("1,2|3|4")
    assert act(g, p) == parse_partition("1,3|2|4")
    q = parse_partition("1|2,3|4")
    assert act(g, q) == parse_partition("1|2|3,4")


def test_act_on_simplex():
    g = Perm.from_cycles(4, "(2 3 4)")
    s = Simplex((parse_partition("1,2|3|4"), parse_partition("1,2|3,4")))
    t = act(g, s)
    assert t.vertices == (parse_partition("1,3|2|4"), parse_partition("1,3|2,4"))


def test_act_preserves_refinement():
    parts = enumerate_proper(4)
    for g in symmetric_group(4).elements:
        for a in parts:
            for b in parts:
                assert a.refines(b) == act(g, a).refines(act(g, b))


def test_orbit_stabilizer():
    group = PermGroup.point_stabilizer(5)
    orbs = orbits(group, enumerate_proper(5))
    assert sum(len(o.members) for o in orbs) == len(enumerate_proper(5))
    for o in orbs:
        assert o.representative in o.members
        assert o.representative == min(o.members)
        assert len(o.members) * o.stabilizer_order == group.order
        assert len(set(o.members)) == len(o.members)


def test_orbits_match_element_walk():
    def key(x):
        return tuple(v.rgs for v in x) if isinstance(x, Simplex) else x.rgs

    for group in oracle_groups():
        cx = proper_part_complex(group.n)
        top = [cx.simplex(cx.dim, i) for i in range(cx.n_cells(cx.dim))]
        for items in (cx.elements, top):
            orbs = orbits(group, items)
            seen = set()
            expected = []
            for x in items:
                if x in seen:
                    continue
                members = sorted({act(g, x) for g in group.elements}, key=key)
                seen |= set(members)
                fixers = sum(1 for g in group.elements if act(g, x) == x)
                expected.append((members[0], members, fixers))
            assert [(o.representative, o.members, o.stabilizer_order) for o in orbs] == expected


def test_orbits_partition_items():
    group = PermGroup.from_cycle_strings(4, ["(2 3)"])
    orbs = orbits(group, enumerate_proper(4))
    seen = [p for o in orbs for p in o.members]
    assert sorted(seen) == enumerate_proper(4)
    fixed = [o for o in orbs if len(o.members) == 1]
    assert all(act(group.generators[0], o.representative) == o.representative for o in fixed)


def test_complex_action_is_by_automorphisms():
    cx = proper_part_complex(4)
    action = ComplexAction(cx, PermGroup.point_stabilizer(4))
    for g in action.group.elements:
        for d in range(cx.dim + 1):
            for i in range(cx.n_cells(d)):
                e, j = action.cell_image(g, (d, i))
                assert e == d
                # boundary commutes with the action
                imaged = sorted(
                    (action.cell_image(g, (d - 1, k))[1], s) for k, s in cx.faces(d, i)
                ) if d else []
                assert imaged == (sorted(cx.faces(e, j)) if d else [])


def test_complex_action_rejects_degree_mismatch():
    cx = proper_part_complex(4)
    with pytest.raises((KeyError, ValueError)):
        ComplexAction(cx, symmetric_group(5))


def test_complex_action_rejects_non_automorphisms():
    cx = proper_part_complex(4)
    where = {p: i for i, p in enumerate(cx.elements)}
    swap = PermGroup.from_cycle_strings(4, ["(2 3)"])
    # drop the cover 1,2|3|4 < 1,2,3|4; (2 3) maps it onto 1,3|2|4 < 1,2,3|4, which stays
    less = cx.less.copy()
    less[where[parse_partition("1,2|3|4")], where[parse_partition("1,2,3|4")]] = False
    with pytest.raises(ValueError, match="poset automorphisms"):
        ComplexAction(OrderComplex(cx.elements, less), swap)
    # (2 3) sends 1,2|3|4 onto 1,3|2|4, which is not an element of this poset
    keep = [i for i, p in enumerate(cx.elements) if p != parse_partition("1,3|2|4")]
    sub = OrderComplex([cx.elements[i] for i in keep], cx.less[np.ix_(keep, keep)])
    with pytest.raises(ValueError, match="name no element"):
        ComplexAction(sub, swap)


def test_complex_action_rejects_non_bijective_vertex_maps(monkeypatch):
    # the proper part of Pi_3 is an antichain, so a constant map sends
    # every pair of the order (there is none) to a pair of the order
    monkeypatch.setattr(ComplexAction, "vertex_map", lambda self, g: np.zeros(len(self.complex.elements), dtype=np.intp))
    for n in (3, 5):
        with pytest.raises(ValueError, match="poset automorphisms"):
            ComplexAction(proper_part_complex(n), PermGroup.point_stabilizer(n))


def int64_orbit_of(size, images):
    """orbit_of of one dimension as it was computed in int64: smallest-cell
    labels by propagation, numbered by binary search among the labels."""
    label = np.arange(size, dtype=np.int64)
    while True:
        new = label
        for img in images:
            new = np.minimum(new, new[img])
        new = new[new]
        if np.array_equal(new, label):
            return np.searchsorted(np.flatnonzero(label == np.arange(size)), label)
        label = new


N7_SUBGROUPS = [["(2 3)", "(2 3 4 5 6 7)"], ["(2 3)", "(4 5)", "(4 5 6 7)"], ["(1 2)", "(1 2 3 4 5 6 7)"]]


def test_orbit_of_is_int32_and_equals_the_int64_result():
    groups = [PermGroup.from_cycle_strings(5, texts) for _, texts in SUBGROUPS[5]]
    groups += [PermGroup.from_cycle_strings(6, texts) for texts in N6_SUBGROUPS]
    for group in groups + [PermGroup.from_cycle_strings(7, texts) for texts in N7_SUBGROUPS]:
        cx = proper_part_complex(group.n)
        qc = QuotientComplex(ComplexAction(cx, group))
        images = [qc.action.images(g) for g in group.generators]
        for d in range(cx.dim + 1):
            assert qc.orbit_of[d].dtype == np.int32
            assert np.array_equal(qc.orbit_of[d], int64_orbit_of(cx.n_cells(d), [img[d] for img in images]))


# int32_digest of orbit_of[0], reps[0], orbit_of[1], reps[1], ... of the
# nerve of Pi_7 modulo the stabilizer of 1
STABILIZER_QUOTIENT_N7_SHA256 = "842d6fb8638f2d005ca4cc95eec9f5238edd9b5df98a2df7e8363dfa44c2c3bb"


def test_stabilizer_quotient_n7_orbits_are_pinned():
    qc = QuotientComplex(ComplexAction(proper_part_complex(7), PermGroup.point_stabilizer(7)))
    digest = int32_digest(a for d in range(qc.dim + 1) for a in (qc.orbit_of[d], qc.reps[d]))
    assert digest == STABILIZER_QUOTIENT_N7_SHA256


def test_orbit_labels_refuses_images_out_of_range():
    images = [np.array([1, 2, 0], dtype=np.int32)]
    assert orbit_labels(3, images).tolist() == [0, 0, 0]
    for bad in ([1, 2, 3], [1, -1, 0]):
        with pytest.raises(IndexError, match="outside 0..2"):
            orbit_labels(3, images + [np.array(bad, dtype=np.int32)])


def test_rgs_vertex_maps_match_act():
    for group in oracle_groups():
        cx = proper_part_complex(group.n)
        action = ComplexAction(cx, group)
        where = {p: i for i, p in enumerate(cx.elements)}
        for g in group.elements:
            assert action.vertex_map(g).tolist() == [where[act(g, p)] for p in cx.elements]
        for g, vmap in action.vertex_maps.items():
            assert vmap.tolist() == action.vertex_map(g).tolist()


def test_image_arrays_match_act():
    stabilizer6 = PermGroup.point_stabilizer(6)
    cases = [(group, group.elements) for group in oracle_groups()] + [(stabilizer6, stabilizer6.generators)]
    for group, elements in cases:
        cx = proper_part_complex(group.n)
        action = ComplexAction(cx, group)
        for g in elements:
            images = action.images(g)
            assert [img.dtype for img in images] == [np.int32] * (cx.dim + 1)
            for d in range(cx.dim + 1):
                expected = [cx.locate(act(g, cx.simplex(d, i))) for i in range(cx.n_cells(d))]
                assert [(d, j) for j in images[d].tolist()] == expected


def test_quotient_complex_full_stabilizer():
    cx = proper_part_complex(4)
    qc = QuotientComplex(ComplexAction(cx, PermGroup.point_stabilizer(4)))
    assert isinstance(qc, QuotientComplex)
    assert qc.f_vector() == (5, 5)
    assert qc.total_cells() == 10
    assert qc.euler_characteristic() == 0
    for d in range(1, qc.dim + 1):
        assert dense_boundary(qc, d).shape == (qc.n_cells(d - 1), qc.n_cells(d))


def test_quotient_complex_trivial_group_is_identity():
    cx = proper_part_complex(4)
    qc = QuotientComplex(ComplexAction(cx, PermGroup.trivial(4)))
    assert qc.f_vector() == cx.f_vector()
    for d in range(1, cx.dim + 1):
        assert np.array_equal(dense_boundary(qc, d), dense_boundary(cx, d))


def test_quotient_complex_structure():
    cx = proper_part_complex(5)
    group = PermGroup.from_cycle_strings(5, ["(2 3)", "(4 5)"])
    qc = QuotientComplex(ComplexAction(cx, group))
    # every cell belongs to exactly one orbit, represented by a base cell
    for d in range(cx.dim + 1):
        for i in range(cx.n_cells(d)):
            o = qc.orbit_of[d][i]
            assert 0 <= o < qc.n_cells(d)
            assert qc.orbit_of[d][qc.reps[d][o]] == o
    # boundary of the quotient squares to zero
    for d in range(2, qc.dim + 1):
        prod = dense_boundary(qc, d - 1) @ dense_boundary(qc, d)
        assert not prod.any()


def test_quotient_labels():
    cx = proper_part_complex(4)
    qc = QuotientComplex(ComplexAction(cx, PermGroup.point_stabilizer(4)))
    label = qc.cell_label(0, 0)
    assert label.startswith("[") and label.endswith("]")


def test_stabilizer_quotient_n7():
    cx = proper_part_complex(7)
    assert cx.f_vector() == (875, 16674, 74165, 114345, 56700)
    qc = QuotientComplex(ComplexAction(cx, PermGroup.point_stabilizer(7)))
    assert qc.f_vector() == (28, 208, 581, 671, 272)


def test_quotient_orbits_match_element_walk():
    for group in oracle_groups() + [PermGroup.from_cycle_strings(6, ["(2 3)", "(2 3 4 5 6)"])]:
        cx = proper_part_complex(group.n)
        qc = QuotientComplex(ComplexAction(cx, group))
        where = {p: i for i, p in enumerate(cx.elements)}
        vmaps = [[where[act(g, p)] for p in cx.elements] for g in group.elements]
        chains = relation_chains(cx.less)
        index = chain_positions(chains)
        for d in range(cx.dim + 1):
            expected = [-1] * cx.n_cells(d)
            reps = []
            for i, chain in enumerate(chains[d]):
                if expected[i] < 0:
                    for vmap in vmaps:
                        expected[index[d][tuple(vmap[v] for v in chain)]] = len(reps)
                    reps.append(i)
            assert qc.orbit_of[d].tolist() == expected
            assert qc.reps[d].tolist() == reps
