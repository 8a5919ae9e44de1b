import random
import re

import numpy as np
import pytest

from partmorse import construction
from partmorse.construction import (
    build_main_matching,
    get_action,
    get_complex,
    pair_vertex,
    patchwork_keys,
    quotient_critical_cells,
    split_vertex,
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
    equivariance_witness,
    equivariant_patchwork_matching,
    find_cycle,
    gradient_chain,
    matching_from_dump,
    morse_data,
    patchwork_matching,
    quotient_matching,
    validate_matching,
)
from partmorse.ordercomplex import ExplicitComplex, OrderComplex
from partmorse.perm import ComplexAction, Perm, PermGroup, QuotientComplex, act
from chain_oracle import is_pair_vertex, key_action, key_order, morse_chain_complex, relation_chains, symmetric_group
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
    assert dict(cx.faces(1, 0)) == {0: -1, 1: 1}


def test_group_predicates_agree_with_element_walk():
    groups = oracle_groups()
    seen_fix, seen_sub = set(), set()
    for group in groups:
        for x in range(1, group.n + 1):
            walk = all(g(x) == x for g in group.elements)
            assert group.fixes_point(x) == walk
            seen_fix.add(walk)
        for other in groups:
            if other.n == group.n:
                walk = all(g in other for g in group.elements)
                assert group.is_subgroup_of(other) == walk
                seen_sub.add(walk)
    assert seen_fix == seen_sub == {True, False}
    s4, stab = symmetric_group(4), PermGroup.point_stabilizer(4)
    assert not s4.fixes_point(1) and stab.fixes_point(1)
    assert not s4.is_subgroup_of(stab) and stab.is_subgroup_of(s4)


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
    # (0, 0) is matched with (1, 0); (1, 2) has no partner either way
    assert [a.tolist() for a in m.up] == [[0, 1, -1], [-1, -1, -1]]
    assert [a.tolist() for a in m.down] == [[-1, -1, -1], [0, 1, -1]]


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
    cycle = find_cycle(Matching(cx, pairs))
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


def test_cone_matching_refuses_a_vertex_index_outside_the_poset():
    cx = get_complex(4)
    with pytest.raises(ValueError, match=r"^vertex index 1000000 is not in 0\.\.12$"):
        cone_matching(cx, [0, 10**6, -3], 0)


def test_closure_matching_refuses_a_negative_vertex_index():
    cx = get_complex(4)
    with pytest.raises(ValueError, match=r"^vertex index -3 is not in 0\.\.12$"):
        closure_matching(cx, lambda v: v, [0, -3])


def test_closure_matching_refuses_a_vertex_index_past_the_top():
    cx = get_complex(4)
    with pytest.raises(ValueError, match=r"^vertex index 1000000 is not in 0\.\.12$"):
        closure_matching(cx, lambda v: v, [0, 10**6])


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
        [i for i, chain in enumerate(cx.chains(d).tolist()) if set(chain) <= image]
        for d in range(cx.dim + 1)
    ]
    assert crit == expected


def test_closure_matching_rejects_bad_operators():
    cx = divisors_of_six()
    idx = cx.element_index
    with pytest.raises(ValueError, match="not descending"):  # sends 2 to 6
        closure_matching(cx, lambda v: idx[6] if cx.elements[v] == 2 else v)
    with pytest.raises(ValueError, match="not idempotent"):  # 6 -> 2 -> 1
        closure_matching(cx, lambda v: idx[{1: 1, 2: 1, 3: 3, 6: 2}[cx.elements[v]]])
    # fixes 3 but drops 6 below it; 3 has index 2 and 6 index 3
    with pytest.raises(ValueError, match=r"not monotone on 2 <= 3$"):
        closure_matching(cx, lambda v: idx[{1: 1, 2: 2, 3: 3, 6: 2}[cx.elements[v]]])


def test_patchwork_matching_glues_fibers():
    cx = divisors_of_six()
    # key: the top vertex of a chain, ordered by divisibility
    leq = cx.less | np.eye(4, dtype=bool)
    idx = cx.element_index
    fibers = {
        idx[1]: [],
        idx[2]: [(cx.locate((1,)), cx.locate((0, 1)))],
        idx[3]: [(cx.locate((2,)), cx.locate((0, 2)))],
        idx[6]: [
            (cx.locate((3,)), cx.locate((0, 3))),
            (cx.locate((1, 3)), cx.locate((0, 1, 3))),
            (cx.locate((2, 3)), cx.locate((0, 2, 3))),
        ],
    }
    m = patchwork_matching(cx, cx.last, leq, fibers)
    cert = validate_matching(cx, m)
    assert cert.is_matching and cert.is_acyclic
    assert m.critical_cells() == [[0], [], []]


def test_patchwork_rejects_non_order_preserving_key():
    cx = divisors_of_six()
    # the key of a face must sit below the key of the cell; dimension is
    # the opposite: an edge maps below its own vertices
    key = [np.full(cx.n_cells(d), d) for d in range(cx.dim + 1)]
    leq = np.tri(cx.dim + 1, dtype=bool)  # leq[a, b] iff b <= a
    with pytest.raises(ValueError, match=r"at cell \(1,0\) face 1$"):
        patchwork_matching(cx, key, leq, {0: [], 1: [], 2: []})


def test_patchwork_rejects_pair_across_fibers():
    cx = divisors_of_six()
    leq = cx.less | np.eye(4, dtype=bool)
    fibers = {0: [], 1: [], 2: [], 3: [(cx.locate((1,)), cx.locate((1, 3)))]}
    with pytest.raises(ValueError, match="leaves fiber 3"):
        patchwork_matching(cx, cx.last, leq, fibers)


def test_patchwork_names_the_first_failing_fiber_then_its_lowest_dimension():
    from partmorse import morse

    cx = get_complex(6)
    # every key is below every other, so only fiber membership can fail
    key = [np.arange(cx.n_cells(d)) % 3 for d in range(cx.dim + 1)]
    leq = np.ones((3, 3), dtype=bool)
    pairs = build_main_matching(6).pair_arrays()
    own = {
        k: {d: (lo[inside], hi[inside]) for d, (lo, hi) in pairs.items() for inside in [(key[d][lo] == k) & (key[d + 1][hi] == k)]}
        for k in (1, 2, 0)
    }

    def spoiled(k, other, dims):
        # pairs of fiber other put after the first three pairs of fiber k
        fiber = dict(own[k])
        for d in dims:
            (lo, hi), (x, y) = own[k][d], own[other][d]
            fiber[d] = (np.concatenate([lo[:3], x[4:6], lo[3:]]), np.concatenate([hi[:3], y[4:6], hi[3:]]))
        return fiber

    # fiber 2 fails in dimensions 1 and 2, fiber 0 after it in 0 and 2
    fibers = {1: own[1], 2: spoiled(2, 1, [2, 1]), 0: spoiled(0, 2, [0, 2])}
    lo, hi = own[1][1]
    with pytest.raises(ValueError) as info:
        patchwork_matching(cx, key, leq, fibers)
    assert str(info.value) == f"pair ({(1, int(lo[4]))},{(2, int(hi[4]))}) leaves fiber 2"
    # the glued dimensions come in the order the fibers first name them
    glued = morse._glue(cx, key, leq, {1: {2: own[1][2], 1: own[1][1]}, 2: {0: own[2][0]}})
    assert list(glued) == [1, 2, 0]
    assert np.array_equal(glued[1][0], own[1][1][0]) and np.array_equal(glued[0][1], own[2][0][1])


def hexagon():
    """The nerve of the face poset of a triangle boundary: a hexagon
    whose vertices alternate between the triangle's vertices and edges."""
    return OrderComplex.from_poset(["a", "b", "c", "ab", "bc", "ca"], less=lambda p, q: len(p) < len(q) and p in q)


def test_patchwork_leaves_acyclicity_to_validation():
    cx = hexagon()
    idx = cx.element_index
    ring = [idx[v] for v in ("a", "ab", "b", "bc", "c", "ca")]
    # each vertex of the hexagon is matched with the edge to its successor
    cyclic = [
        (cx.locate((u,)), cx.locate(tuple(sorted((u, v), key=lambda x: len(cx.elements[x])))))
        for u, v in zip(ring, ring[1:] + ring[:1])
    ]
    key = [np.zeros(cx.n_cells(d), dtype=np.int64) for d in range(cx.dim + 1)]
    m = patchwork_matching(cx, key, np.ones((1, 1), dtype=bool), {0: cyclic})
    assert len(m.pairs) == 6
    cert = validate_matching(cx, m)
    assert cert.is_matching and not cert.is_acyclic
    assert cert.witness_cycle is not None


def face_sweep_violation(cx, key, leq):
    """Reference for the bulk order check: the first (d, j, y) with face y
    of cell (d, j) keyed outside the order, walking faces one by one."""
    for d in range(1, cx.dim + 1):
        for j in range(cx.n_cells(d)):
            for y, _ in cx.faces(d, j):
                if not leq[key[d - 1][y], key[d][j]]:
                    return d, j, y
    return None


def bulk_violation(cx, key, leq):
    try:
        patchwork_matching(cx, key, leq, {})
    except ValueError as exc:
        d, j, y = re.search(r"at cell \((\d+),(\d+)\) face (\d+)$", str(exc)).groups()
        return int(d), int(j), int(y)
    return None


def stage_keys(n):
    """The fiber-zero stage key and its order: 0 for a chain of cone
    vertices, 1 for one inside the zero fiber, 2 otherwise, computed chain
    by chain."""
    cx = get_complex(n)
    split = split_vertex(n)
    ground = {v for v, p in enumerate(cx.elements) if not is_pair_vertex(p)}
    fixed = {v for v in ground if cx.elements[v].meet(split) == cx.elements[v]}

    def stage(chain):
        return 0 if set(chain) <= fixed else 1 if set(chain) <= ground else 2

    key = [np.array([stage(c) for c in layer]) for layer in relation_chains(cx.less)]
    return key, np.triu(np.ones((3, 3), dtype=bool))


def test_bulk_order_check_agrees_with_face_sweep():
    rng = random.Random(6)
    caught = 0
    for n in (3, 4, 5, 6):
        cx = get_complex(n)
        stage, stage_leq = stage_keys(n)
        # cells[0] lists the vertices in order, so stage[0] is the vertex stage
        assert all((a == b).all() for a, b in zip(cx.fold(stage[0], np.maximum), stage, strict=True))
        # the one key clipped at 2 is the stage key
        one = patchwork_keys(cx)
        assert all((np.minimum(a, 2) == b).all() for a, b in zip(one, stage, strict=True))
        for key, leq in ((stage, stage_leq), (one, key_order(n))):
            assert face_sweep_violation(cx, key, leq) is None
            assert bulk_violation(cx, key, leq) is None
            for _ in range(6):
                d = rng.randrange(cx.dim + 1)
                bad = [layer.copy() for layer in key]
                i = rng.randrange(len(bad[d]))
                bad[d][i] = (bad[d][i] + rng.randrange(1, len(leq))) % len(leq)
                found = bulk_violation(cx, bad, leq)
                assert found == face_sweep_violation(cx, bad, leq)
                caught += found is not None
    assert caught >= 10


def test_patchwork_names_corrupted_fiber_key_cell():
    n = 5
    cx = get_complex(n)
    key = patchwork_keys(cx)
    fibers = main_fibers(n)
    # an edge led by the pair vertex {1,5}, moved into the zero fiber
    i = int(np.flatnonzero(key[1] == n)[0])
    key[1][i] = 0
    with pytest.raises(ValueError, match=rf"at cell \(1,{i}\) face \d+$"):
        patchwork_matching(cx, key, key_order(n), fibers)


def main_fibers(n):
    """The representative fibers build_main_matching assembles: the cone
    and closure stages of the zero fiber and the fiber over the pair
    vertex {1,n}."""
    key = patchwork_keys(get_complex(n))
    pairs = build_main_matching(n).pairs
    return {k: [p for p in pairs if key[p[0][0]][p[0][1]] == k] for k in (0, 1, n)}


def assemble(n, rep_pairs):
    action = get_action(n)
    return equivariant_patchwork_matching(action, patchwork_keys(action.complex), key_action, key_order(n), rep_pairs)


def test_equivariant_patchwork_names_stabilizer_witness():
    n = 5
    action = get_action(n)
    top = pair_vertex(n, n)
    fibers = main_fibers(n)
    assert assemble(n, fibers).pairs == build_main_matching(n).pairs
    # drop a pair that some element fixing the key moves
    stabilizer = [g for g in action.group.elements if act(g, top) == top]
    moved = next(p for p in fibers[n] if any(action.cell_image(g, p[0]) != p[0] for g in stabilizer))
    broken = [p for p in fibers[n] if p != moved]
    with pytest.raises(ValueError, match="not stabilizer-equivariant") as info:
        assemble(n, {**fibers, n: broken})
    witness = Perm.from_cycles(n, re.search(r"\(fails (.+)\)$", str(info.value)).group(1))
    assert witness in action.group
    assert act(witness, top) == top
    image = {(action.cell_image(witness, a), action.cell_image(witness, b)) for a, b in broken}
    assert image != set(broken)


def test_a_fiber_transported_onto_the_wrong_key_is_refused():
    n = 6
    fibers = main_fibers(n)
    action = get_action(n)
    swap = {2: 3, 3: 2}

    def conjugated(g, k):
        # an action on the keys, but not the one the key arrays carry
        k = key_action(g, swap.get(k, k))
        return swap.get(k, k)

    with pytest.raises(ValueError, match="leaves fiber"):
        equivariant_patchwork_matching(action, patchwork_keys(action.complex), conjugated, key_order(n), fibers)

    long_cycle = action.group.generators[1]

    def wrong_step(g, k):
        # the long cycle sends key 2 to 3; this names 6, which the search
        # reached first, so the step moves no fiber and only the check on
        # the glued matching can see it
        return 6 if (g, k) == (long_cycle, 2) else key_action(g, k)

    with pytest.raises(ValueError, match="fiber matching at 6 is not stabilizer-equivariant"):
        equivariant_patchwork_matching(action, patchwork_keys(action.complex), wrong_step, key_order(n), fibers)


def test_equivariant_patchwork_needs_one_representative_per_key_orbit():
    n = 5
    fibers = main_fibers(n)
    with pytest.raises(ValueError, match="key orbit of another representative"):
        assemble(n, {**fibers, 2: []})
    with pytest.raises(ValueError, match="no representative"):
        assemble(n, {0: fibers[0]})
    # the closure stage is a key orbit of its own
    with pytest.raises(ValueError, match="no representative for the key orbit of 1$"):
        assemble(n, {0: fibers[0], n: fibers[n]})
    with pytest.raises(ValueError, match="not the key of any cell"):
        assemble(n, {**fibers, -1: []})


def test_equivariant_patchwork_names_a_key_out_of_range():
    n = 5
    key = patchwork_keys(get_complex(n))
    for bad in (-1, n + 1):
        key[0][0] = bad
        with pytest.raises(ValueError, match=rf"^cell \(0,0\) has key {bad}, not an id 0..{n} of the key order$"):
            equivariant_patchwork_matching(get_action(n), key, key_action, key_order(n), main_fibers(n))


def test_check_equivariance_matches_element_walk():
    seen = set()
    for group in oracle_groups():
        action = ComplexAction(get_complex(group.n), group)
        main = build_main_matching(group.n)
        for m in (main, Matching(main.complex, main.pairs[1:])):
            walk = all(
                m.up[a[0]][action.cell_image(g, a)[1]] == action.cell_image(g, b)[1]
                for g in group.elements
                for a, b in m.pairs
            )
            assert check_equivariance(m, action) == walk
            seen.add(walk)
    assert seen == {True, False}


def test_mutated_main_matching_fails_equivariance_n6():
    n = 6
    action = get_action(n)
    main = build_main_matching(n)
    key = patchwork_keys(get_complex(n))
    # a pair of the fiber over {1,2}, which the assembly reaches by transport
    dropped = next(p for p in main.pairs if key[p[0][0]][p[0][1]] == 2)
    assert check_equivariance(main, action)
    assert not check_equivariance(Matching(main.complex, [p for p in main.pairs if p != dropped]), action)


def drop_transported_pair(n):
    """The main matching without one pair of the fiber over {1,2}, which
    the assembly reaches by transport, and that pair."""
    main = build_main_matching(n)
    key = patchwork_keys(main.complex)
    dropped = next(p for p in main.pairs if key[p[0][0]][p[0][1]] == 2)
    return Matching(main.complex, [p for p in main.pairs if p != dropped]), dropped


def test_equivariance_witness_names_the_dropped_pair():
    for n in (5, 6):
        action = get_action(n)
        assert equivariance_witness(build_main_matching(n), action) is None
        broken, ((d, i), (_, j)) = drop_transported_pair(n)
        witness = equivariance_witness(broken, action)
        assert not check_equivariance(broken, action)
        # every other pair still maps to a pair, so the failing image is the dropped one
        label = broken.complex.cell_label
        assert witness.endswith(f" to {label(d, i)} -> {label(d + 1, j)}, which is no pair")
        assert any(witness.startswith(f"{g} sends the pair ") for g in action.group.generators)


def test_equivariant_patchwork_names_stabilizer_witness_n6():
    n = 6
    action = get_action(n)
    fibers = main_fibers(n)
    assert assemble(n, fibers).pairs == build_main_matching(n).pairs
    for r in fibers:
        stabilizer = [g for g in action.group.elements if key_action(g, r) == r]
        moved = next(p for p in fibers[r] if any(action.cell_image(g, p[0]) != p[0] for g in stabilizer))
        broken = [p for p in fibers[r] if p != moved]
        with pytest.raises(ValueError, match=f"fiber matching at {r} is not stabilizer-equivariant") as info:
            assemble(n, {**fibers, r: broken})
        witness = Perm.from_cycles(n, re.search(r"\(fails (.+)\)$", str(info.value)).group(1))
        assert witness in action.group and key_action(witness, r) == r
        image = {(action.cell_image(witness, a), action.cell_image(witness, b)) for a, b in broken}
        assert image != set(broken)


def test_group_steps_make_no_per_cell_calls(monkeypatch):
    calls = []
    cell_image = ComplexAction.cell_image

    def counted(self, g, cell):
        calls.append(cell)
        return cell_image(self, g, cell)

    monkeypatch.setattr(ComplexAction, "cell_image", counted)
    # a fresh action at n = 6; the cached one comes back afterwards
    monkeypatch.setattr(construction, "_matchings", {})
    monkeypatch.setattr(construction, "_actions", {})
    main = build_main_matching(6)
    # the patchwork moves its fibers by whole image arrays
    assert assemble(6, main_fibers(6)).pairs == main.pairs
    assert check_equivariance(main, get_action(6))
    group = PermGroup.from_cycle_strings(6, ["(2 3)", "(2 3 4 5 6)"])
    quotient_matching(main, QuotientComplex(ComplexAction(get_complex(6), group)))
    assert calls == []


def test_check_equivariance():
    m = build_main_matching(4)
    assert check_equivariance(m, get_action(4))
    full = ComplexAction(get_complex(4), symmetric_group(4))
    assert not check_equivariance(m, full)


def test_quotient_matching_critical_orbits():
    m = build_main_matching(4)
    group = PermGroup.from_cycle_strings(4, ["(2 3)"])
    qc = QuotientComplex(ComplexAction(get_complex(4), group))
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
    qc = QuotientComplex(ComplexAction(cx, group))
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
    data = morse_data(m)
    assert data.critical_counts() == [1, 1]
    # the morse differential of the surviving edge is zero
    assert data.boundary[1] == [{}]
    hom = homology_of(data, reduced=False)
    assert hom.betti(0) == 1 and hom.betti(1) == 1
    rep = gradient_chain(m, (1, 2))
    assert set(rep) == {0, 1, 2}


def square_with_diagonal():
    # pairing every vertex upwards around the square closes the gradient
    # cycle ab > b < bc > c < cd > d < da > a < ab; three of those pairs do not
    return ExplicitComplex(
        [["a", "b", "c", "d"], ["ab", "bc", "cd", "da", "ac"]],
        [[[(0, -1), (1, 1)], [(1, -1), (2, 1)], [(2, -1), (3, 1)], [(3, -1), (0, 1)], [(0, -1), (2, 1)]]],
    )


def test_morse_data_names_the_cycle_of_a_cyclic_matching():
    cx = square_with_diagonal()
    m = Matching(cx, [((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 2), (1, 2)), ((0, 3), (1, 3))])
    with pytest.raises(InvalidMatchingError, match="cyclic") as info:
        morse_data(m)
    assert all(label in str(info.value) for label in ("'ab'", "'bc'", "'cd'", "'da'"))
    assert "'ac'" not in str(info.value)


def test_kahn_sort_runs_once_per_dimension(monkeypatch):
    from partmorse import morse

    calls = []
    sort = morse._kahn_levels
    monkeypatch.setattr(morse, "_kahn_levels", lambda m, d, arrays: calls.append(d) or sort(m, d, arrays))
    real = build_main_matching(5)
    fresh = Matching(real.complex, real.pair_arrays())
    assert validate_matching(real.complex, fresh).is_acyclic
    data = morse_data(fresh)
    assert calls == list(range(1, real.complex.dim + 1))
    assert data.boundary == morse_data(Matching(real.complex, real.pair_arrays())).boundary


def test_sorted_partner_arrays_are_frozen_and_replacements_sorted_again():
    m = Matching(square_with_diagonal(), [((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 2), (1, 2))])
    assert find_cycle(m) is None
    assert morse_data(m).critical_counts() == [1, 2]
    with pytest.raises(ValueError, match="read-only"):
        m.up[0][3] = 3
    with pytest.raises(ValueError, match="read-only"):
        m.down[1][3] = 3
    # the fourth pair, in new partner arrays, closes the cycle
    m.up[0], m.down[1] = m.up[0].copy(), m.down[1].copy()
    m.up[0][3], m.down[1][3] = 3, 3
    assert find_cycle(m) is not None
    assert not validate_matching(m.complex, m).is_acyclic
    with pytest.raises(InvalidMatchingError, match="cyclic"):
        morse_data(m)
    with pytest.raises(InvalidMatchingError, match="cyclic"):
        gradient_chain(m, (1, 4))
    m.up[0], m.down[1] = m.up[0].copy(), m.down[1].copy()
    m.up[0][1], m.down[1][1] = -1, -1
    assert find_cycle(m) is None
    assert morse_data(m).critical_counts() == [1, 2]


def test_chain_data_labels_are_critical_cell_labels():
    # the Morse complex is MorseData itself; its cells are named as the critical cells
    m = build_main_matching(5)
    data = morse_data(m)
    for d, layer in enumerate(m.critical_cells()):
        assert [data.cell_label(d, k) for k in range(data.n_cells(d))] == [m.complex.cell_label(d, i) for i in layer]
    assert data.f_vector() == tuple(m.critical_counts())


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_morse_data_is_the_complex_of_the_explicit_route(n):
    matchings = [build_main_matching(n)]
    for group in (get_action(n).group, PermGroup.from_cycle_strings(n, ["(2 3)"])):
        matchings.append(quotient_critical_cells(n, group)[0])
    for m in matchings:
        data = morse_data(m)
        oracle = morse_chain_complex(data)
        assert data.f_vector() == oracle.f_vector() == tuple(m.critical_counts())
        for d in range(data.dim + 1):
            assert all(map(np.array_equal, data.boundary_arrays(d), oracle.boundary_arrays(d)))
            assert data.cell_labels(d, range(data.n_cells(d))) == oracle.labels[d]
        assert homology_of(data) == homology_of(oracle) == homology_of(m.complex)


def test_morse_homology_matches_simplicial_on_fixture():
    cx = divisors_of_six()
    gcd2 = {1: 1, 2: 2, 3: 1, 6: 2}
    m = Matching(cx, closure_matching(cx, lambda v: cx.element_index[gcd2[cx.elements[v]]]))
    data = morse_data(m)
    assert homology_of(data).to_json() == homology_of(cx).to_json()


def test_cohomology_representatives_pair_to_identity():
    cx = circle()
    m = Matching(cx, [((0, 0), (1, 0)), ((0, 1), (1, 1))])
    data = morse_data(m)
    reps = cohomology_representatives(data)
    assert len(reps) == 1
    pairing = cohomology_pairing(data)
    assert pairing.shape == (1, 1)
    assert abs(int(np.linalg.det(pairing))) == 1


def chain_boundary(cx, d, chain) -> np.ndarray:
    """The boundary of a {cell: coefficient} d-chain of the nerve, read off
    face_array with the sign (-1)^k of face k."""
    cells = np.array(list(chain))
    coeffs = np.array(list(chain.values()), dtype=np.int64)[:, None] * (-1) ** np.arange(d + 1)
    out = np.zeros(cx.n_cells(d - 1), dtype=np.int64)
    np.add.at(out, cx.face_array(d)[cells], coeffs)
    return out


def test_gradient_chains_of_critical_flags_are_cycles():
    # the cohomology pairing is the identity whatever the chains' other
    # coefficients, so it cannot tell a cycle from a chain that is none
    for n in (4, 5, 6):
        m = build_main_matching(n)
        cx, d = m.complex, m.complex.dim
        for c in m.critical_cells()[d]:
            chain = gradient_chain(m, (d, c))
            assert len(chain) > 1 and chain[c] == 1
            assert not chain_boundary(cx, d, chain).any(), (n, c)
            # the check fails once one coefficient is flipped
            w = next(w for w in chain if w != c)
            assert chain_boundary(cx, d, {**chain, w: -chain[w]}).any()


def test_cohomology_pairing_runs_one_gradient(monkeypatch):
    from partmorse import morse

    calls = []
    gradient = morse._gradient
    monkeypatch.setattr(morse, "_gradient", lambda m, d: calls.append(d) or gradient(m, d))
    for n in (5, 6):
        m = build_main_matching(n)
        d = m.complex.dim
        data = morse_data(m)
        # one chain per call, each with its own gradient
        chains = [gradient_chain(m, (d, c)) for c in data.critical[d]]
        calls.clear()
        # the columns of the pairing, pushed in blocks of three columns
        monkeypatch.setattr(morse, "CHAIN_BLOCK", 3 * m.complex.n_cells(d))
        pairing = cohomology_pairing(data)
        assert calls == [d]
        expected = [[sum(v * r.get(s, 0) for s, v in z.items()) for r in chains] for z in cohomology_representatives(data)]
        assert pairing.tolist() == expected
        assert np.array_equal(pairing, np.eye(len(chains), dtype=np.int64))
        # the chains pushed together are the chains pushed one by one
        together = morse._gradient_chains(m, d, data.critical[d])
        assert [dict((int(i), int(v)) for i, v in zip(np.flatnonzero(col), col[np.flatnonzero(col)])) for col in together.T] == chains


def test_gradient_chains_refuse_coefficients_past_int64():
    # a path of edges e_i = v_i -> v_{i+1}, each paired with v_i and meeting
    # v_{i+1} with coefficient 2: the flow of the critical edge e_0 doubles
    # along the path and would pass 2^63 on edge 64
    steps = 64
    labels = [[f"v{i}" for i in range(steps + 2)], [f"e{i}" for i in range(steps + 1)]]
    faces = [[(0, -1), (1, 1)]] + [[(i, -1), (i + 1, 2)] for i in range(1, steps + 1)]
    m = Matching(ExplicitComplex(labels, [faces]), [((0, i), (1, i)) for i in range(1, steps + 1)])
    short = Matching(ExplicitComplex([labels[0][:12], labels[1][:11]], [faces[:11]]), [((0, i), (1, i)) for i in range(1, 11)])
    assert gradient_chain(short, (1, 0)) == {0: 1, **{i: 2 ** (i - 1) for i in range(1, 11)}}
    with pytest.raises(OverflowError, match="int64"):
        gradient_chain(m, (1, 0))


def test_morse_data_walks_no_flow_without_critical_cells_on_both_sides(monkeypatch):
    from partmorse import morse

    calls = []
    positions = morse.entry_positions
    monkeypatch.setattr(morse, "entry_positions", lambda *args: calls.append(1) or positions(*args))
    # no dimension of the nerve has critical cells on both sides
    for n, counts in ((5, [1, 0, 24]), (6, [1, 0, 0, 120])):
        m = build_main_matching(n)
        # sort every dimension first: only the Morse boundary is counted
        assert find_cycle(m) is None
        calls.clear()
        data = morse_data(m)
        assert data.critical_counts() == counts
        assert data.boundary == [[]] + [[{} for _ in layer] for layer in data.critical[1:]]
        assert calls == [], n


def test_main_matching_builds_nothing_of_another_size(monkeypatch):
    from partmorse import morse

    built = []

    def counting(kind, real):
        # the nerve of size n has dimension n - 3
        return lambda self, cx, *args: built.append((kind, cx.dim + 3)) or real(self, cx, *args)

    monkeypatch.setattr(ComplexAction, "__init__", counting("action", ComplexAction.__init__))
    monkeypatch.setattr(morse.Matching, "__init__", counting("matching", morse.Matching.__init__))
    real_nerve = construction.proper_part_complex
    monkeypatch.setattr(construction, "proper_part_complex", lambda n: built.append(("nerve", n)) or real_nerve(n))
    for n in (3, 6):
        for cache in ("_complexes", "_actions", "_matchings"):
            monkeypatch.setattr(construction, cache, {})
        built.clear()
        build_main_matching(n)
        # one nerve and one matching of size n, read off its chains: no
        # action and nothing one size down
        assert built == [("nerve", n), ("matching", n)]
        assert list(construction._complexes) == [n] and construction._actions == {}
