import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from partmorse.construction import build_main_matching
from partmorse.morse import morse_data
from partmorse.ordercomplex import (
    ExplicitComplex,
    InvalidPosetError,
    OrderComplex,
    Simplex,
    distinct,
    pair_masks,
    parse_simplex,
    proper_part_complex,
)
from partmorse.perm import ComplexAction, PermGroup, QuotientComplex
from partmorse.setpart import Partition, enumerate_proper, parse_partition, proper_rgs
from chain_oracle import chain_positions, dense_boundary, refinement_rows, relation_chains, symmetric_group
from test_homology import mod2_moore_space


def divisor_complex():
    elements = [2, 3, 4, 6, 12]
    less = np.array(
        [[a != b and b % a == 0 for b in elements] for a in elements], dtype=bool
    )
    return OrderComplex(elements, less)


def circle():
    # boundary of a triangle as an explicit fixture
    return ExplicitComplex(
        [["a", "b", "c"], ["ab", "bc", "ca"]],
        [[[(0, -1), (1, 1)], [(1, -1), (2, 1)], [(2, -1), (0, 1)]]],
    )


def test_simplex_validates_chain():
    a = parse_partition("1|2,3|4")
    b = parse_partition("1|2,3,4")
    s = Simplex((a, b))
    assert s.dim == 1
    assert list(s) == [a, b]
    with pytest.raises(ValueError):
        Simplex((b, a))
    with pytest.raises(ValueError):
        Simplex((a, a))


def test_parse_simplex():
    s = parse_simplex("1,3|2|4 < 1,3|2,4")
    assert s.dim == 1
    assert str(s) == "1,3|2|4 < 1,3|2,4"


@pytest.mark.parametrize(
    "values",
    [
        np.array([], dtype=np.int64),
        np.array([7], dtype=np.int64),
        np.array([3, 1, 3, 3, 1], dtype=np.int64),
        np.array([-2, 5, -7, -2, 0], dtype=np.int64),
        np.array([4, -1, 4, 2**31 - 1, -(2**31)], dtype=np.int32),
        np.array([2**40, -(2**40), 2**40, np.iinfo(np.int64).min], dtype=np.int64),
        np.array([[3, 1, 2], [2, 3, -1]], dtype=np.int32),
    ],
    ids=["empty", "one", "repeated", "negative", "int32", "int64", "2-D"],
)
def test_distinct_is_the_sorted_set_of_entries_in_their_dtype(values):
    out = distinct(values)
    assert out.ndim == 1 and out.dtype == values.dtype
    assert out.tolist() == sorted(set(values.ravel().tolist()))
    assert np.array_equal(out, np.unique(values))


def test_order_complex_of_divisor_poset():
    cx = divisor_complex()
    # chains: 5 vertices, edges 2<4,2<6,2<12,3<6,3<12,4<12,6<12, triangles 2<4<12,2<6<12,3<6<12
    assert cx.f_vector() == (5, 7, 3)
    assert cx.dim == 2
    assert cx.total_cells() == 15
    assert cx.euler_characteristic() == 5 - 7 + 3


def test_faces_signs_alternate():
    cx = divisor_complex()
    d, i = cx.locate((0, 2, 4))  # 2 < 4 < 12
    faces = cx.faces(d, i)
    assert len(faces) == 3
    # omitting vertex k carries sign (-1)^k
    assert [s for _, s in faces] == [1, -1, 1]
    assert cx.chains(1, [j for j, _ in faces]).tolist() == [[2, 4], [0, 4], [0, 2]]


def test_boundary_squares_to_zero():
    cx = proper_part_complex(5)
    for d in range(2, cx.dim + 1):
        prod = dense_boundary(cx, d - 1) @ dense_boundary(cx, d)
        assert not prod.any()


def test_faces_merge_repeats_and_drop_cancellations():
    cx = mod2_moore_space()
    # the loop's two endpoints cancel; the disk wraps the loop twice
    assert cx.faces(1, 0) == ()
    assert cx.faces(2, 0) == ((0, 2),)
    assert cx.boundary_columns(1) == [{}]
    merged = ExplicitComplex([["a", "b"], ["e"]], [[[(1, 1), (0, -1), (1, 1), (0, 1)]]])
    assert merged.faces(1, 0) == ((1, 2),)


def test_quotient_faces_are_orbits_of_representative_faces():
    # an automorphism of finite order cannot carry one facet of a chain
    # onto another, so distinct faces of a cell never share an orbit
    cx = proper_part_complex(5)
    for group in (PermGroup.point_stabilizer(5), symmetric_group(5)):
        qc = QuotientComplex(ComplexAction(cx, group))
        for d in range(1, qc.dim + 1):
            for i in range(qc.n_cells(d)):
                base = cx.faces(d, qc.reps[d][i])
                assert qc.faces(d, i) == tuple((int(qc.orbit_of[d - 1][j]), s) for j, s in base)


def quotient_of_five():
    return QuotientComplex(ComplexAction(proper_part_complex(5), PermGroup.from_cycle_strings(5, ["(2 3)", "(4 5)"])))


def morse_complex_of_five():
    return morse_data(build_main_matching(5))


def test_boundary_columns_match_matrix():
    for make in (divisor_complex, circle, mod2_moore_space, quotient_of_five, morse_complex_of_five):
        cx = make()
        for d in range(1, cx.dim + 1):
            mat = dense_boundary(cx, d)
            for i, col in enumerate(cx.boundary_columns(d)):
                dense = {j: int(v) for j, v in enumerate(mat[:, i]) if v}
                assert dense == col


def test_locate_and_simplex_round_trip():
    cx = proper_part_complex(4)
    for d in range(cx.dim + 1):
        for i in range(cx.n_cells(d)):
            s = cx.simplex(d, i)
            assert cx.locate(s) == (d, i)


def test_locate_rejects_non_cells():
    cx = proper_part_complex(4)
    with pytest.raises(KeyError):
        cx.locate((0, 1, 2, 3, 4))
    with pytest.raises(KeyError):
        cx.locate(Simplex((parse_partition("1|2,3,4,5"),)))


def test_locate_round_trips_chains():
    for n in range(3, 6):
        cx = proper_part_complex(n)
        for d in range(cx.dim + 1):
            assert [cx.locate(row) for row in cx.chains(d).tolist()] == [(d, i) for i in range(cx.n_cells(d))]


def test_locate_checks_every_vertex():
    cx = proper_part_complex(5)
    m = len(cx.elements)
    chain = cx.chains(2, [7])[0].tolist()
    assert cx.locate(chain) == (2, 7)
    # a vertex out of range, first or after a valid prefix
    for bad in ([m], [-1], [chain[0], m], chain[:2] + [m + 3]):
        with pytest.raises(KeyError):
            cx.locate(bad)
    # a non-chain: reversed, a repeated vertex, two incomparable vertices
    incomparable = next(j for j in range(m) if j != chain[0] and not cx.less[chain[0], j] and not cx.less[j, chain[0]])
    for bad in (chain[::-1], [chain[0], chain[0]], [chain[0], incomparable], []):
        with pytest.raises(KeyError):
            cx.locate(bad)
    # vertices that are not integers
    for bad in ([2.5], [0, 7.5], ["a"]):
        with pytest.raises(KeyError):
            cx.locate(bad)
    # longer than dim + 1: every vertex is a cell of the poset but no chain is that long
    top = cx.chains(cx.dim, [0])[0].tolist()
    with pytest.raises(KeyError):
        cx.locate(top + [top[-1]])
    # a Simplex over another ground set
    with pytest.raises(KeyError):
        cx.locate(parse_simplex("1|2,3,4"))
    with pytest.raises(KeyError):
        cx.locate(parse_simplex("1,2|3|4|5|6 < 1,2,3|4|5|6"))


def test_nerve_keeps_no_chain_tuples():
    cx = proper_part_complex(5)
    assert not hasattr(cx, "cells") and not hasattr(cx, "index")


def test_nerve_construction_memory():
    # the prefix tree of the n = 7 nerve (262,759 cells) is about 2 MB of
    # int32 arrays; one tuple per chain would take over 20 MB
    tracemalloc.start()
    try:
        cx = proper_part_complex(7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cx.total_cells() == 262759
    assert peak < 12e6


def test_quotient_construction_memory():
    # the n = 7 nerve and its stabilizer quotient: 9.8 MB with the relation
    # checked row by row and orbit labels in int64, 9.0 MB now
    group = PermGroup.point_stabilizer(7)
    tracemalloc.start()
    try:
        qc = QuotientComplex(ComplexAction(proper_part_complex(7), group))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert qc.f_vector() == (28, 208, 581, 671, 272)
    assert peak < 10.5e6


def test_relation_matches_row_loop_oracle():
    for n in range(3, 8):
        cx = proper_part_complex(n)
        assert np.array_equal(cx.less, refinement_rows(enumerate_proper(n)))


def test_pair_masks_past_32_pairs_agree_with_refines():
    # 9 points have 36 pairs; coarsenings of random partitions give
    # comparable and incomparable pairs alike
    rng = np.random.default_rng(9)
    parts = []
    for _ in range(6):
        labels = rng.integers(0, 5, 9)
        for merged in range(3):
            labels = np.where(labels == merged, merged + 1, labels)
            parts.append(Partition(9, [(np.flatnonzero(labels == b) + 1).tolist() for b in np.unique(labels)]))
    masks = pair_masks(np.array([p.rgs for p in parts]))
    assert masks.dtype == np.uint64
    subset = (masks[:, None] & ~masks[None, :]) == 0
    assert subset.tolist() == [[p.refines(q) for q in parts] for p in parts]
    assert 0 < subset.sum() - len(parts) < len(parts) ** 2 - len(parts)


def test_every_dropped_composite_edge_names_a_violating_triple():
    cx = proper_part_complex(6)
    less = cx.less
    below, above = np.nonzero(less)
    # composite edges a < c with some b in between; the first pair the
    # check finds bad after dropping a < c is a < b for the least such b
    composite = [(a, c) for a, c in zip(below.tolist(), above.tolist()) if (less[a] & less[:, c]).any()]
    position = {pair: e for e, pair in enumerate(zip(below.tolist(), above.tolist()))}

    def first_bad(a, c):
        return position[a, int(np.flatnonzero(less[a] & less[:, c])[0])]

    rng = np.random.default_rng(6)
    trials = [composite[k] for k in rng.choice(len(composite), 20, replace=False)]
    trials.append(max(composite, key=lambda ac: first_bad(*ac)))
    for a, c in trials:
        rel = less.copy()
        rel[a, c] = False
        with pytest.raises(InvalidPosetError, match="not transitive") as info:
            OrderComplex(cx.elements, rel)
        i, j, k = map(int, re.search(r"(\d+) < (\d+) < (\d+) but not", str(info.value)).groups())
        assert rel[i, j] and rel[j, k] and not rel[i, k]
        # the first bad pair i < j in row order, and the least k above j but not above i
        assert (i, j) == tuple(np.argwhere(rel)[first_bad(a, c) - (first_bad(a, c) > position[a, c])])
        assert k == np.flatnonzero(rel[j] & ~rel[i])[0]


def test_find_locates_every_cell():
    for n in range(3, 8):
        cx = proper_part_complex(n)
        for d in range(cx.dim + 1):
            assert np.array_equal(cx.find(d, cx.parent[d], cx.last[d]), np.arange(cx.n_cells(d)))


def searched_cells(cx, rows):
    """Indices of the chains given as vertex rows, by binary search down
    the layers for the codes parent * m + last, without find."""
    m, idx = len(cx.less), np.zeros(len(rows), dtype=np.int64)
    for j in range(rows.shape[1]):
        codes = cx.parent[j].astype(np.int64) * m + cx.last[j]
        idx = np.searchsorted(codes, idx * m + rows[:, j])
    return idx


def test_find_on_random_queries_matches_the_whole_layer():
    rng = np.random.default_rng(7)
    for n in range(3, 8):
        cx = proper_part_complex(n)
        for d in range(cx.dim + 1):
            whole = cx.find(d, cx.parent[d], cx.last[d])
            # repeated, unsorted cells, so prefixes repeat and come in any order
            cells = rng.integers(0, cx.n_cells(d), size=300)
            cells = np.concatenate([cells, cells[::-1], np.flatnonzero(cx.parent[d] == cx.parent[d][cells[0]])[::-1]])
            found = cx.find(d, cx.parent[d][cells], cx.last[d][cells].astype(np.int64))
            assert np.array_equal(found, whole[cells]), (n, d)
            assert np.array_equal(found, searched_cells(cx, cx.chains(d, cells))), (n, d)
            if d:
                assert found.dtype == np.int32


def test_face_rows_agree_before_and_after_the_face_array():
    rng = np.random.default_rng(8)
    for n in range(3, 8):
        cx = proper_part_complex(n)
        for d in range(1, cx.dim + 1):
            cells = rng.integers(0, cx.n_cells(d), size=200)
            before = cx.face_rows(d, cells)
            assert d not in cx._face_tables
            table = cx.face_array(d)
            assert np.array_equal(before, cx.face_rows(d, cells))
            assert np.array_equal(before, table[cells])
            # face k of a chain drops its vertex k
            rows = cx.chains(d, cells)
            for k in range(d + 1):
                assert np.array_equal(before[:, k], searched_cells(cx, np.delete(rows, k, axis=1)))


def test_face_array_makes_one_find_per_table_once_the_layer_below_is_kept(monkeypatch):
    cx = proper_part_complex(6)
    calls = []
    real = OrderComplex.find
    monkeypatch.setattr(OrderComplex, "find", lambda self, *args: calls.append(1) or real(self, *args))
    for d in range(1, cx.dim + 1):
        calls.clear()
        cx.face_array(d)
        assert len(calls) == 1, d


def test_locate_labels_rejects_rows_of_another_width():
    for n in range(4, 8):
        cx = proper_part_complex(n)
        for width in range(2, n + 3):
            if width != n:
                with pytest.raises(ValueError, match=f"width {n}"):
                    cx.locate_labels(np.zeros((1, width), dtype=np.int32))
    # a row of width 2 names no partition of {1,...,5}, even where its mask matches one
    with pytest.raises(ValueError, match=r"shape \(1, 2\)"):
        proper_part_complex(5).locate_labels(np.array([[0, 1]]))


def test_map_chains_matches_searched_images():
    rng = np.random.default_rng(9)
    for n in range(4, 8):
        prev, cx = proper_part_complex(n - 1), proper_part_complex(n)
        # a permutation of the points acts on the nerve of Pi_n
        vmap = cx.locate_labels(cx.labels[:, rng.permutation(n)])
        # the lift: n joins the block of 1, and the pair vertex {1,n} goes in front
        lift = cx.locate_labels(np.column_stack([prev.labels, np.zeros(len(prev.labels), dtype=np.int32)]))
        pair = cx.locate_labels(np.array([[0, *range(1, n - 1), 0]]))[0]
        for d, (img, up) in enumerate(zip(cx.map_chains(vmap), prev.map_chains(lift, cx, start=pair))):
            assert img.dtype == up.dtype == np.int32
            assert np.array_equal(img, searched_cells(cx, vmap[cx.chains(d)])), (n, d)
            rows = np.column_stack([np.full(prev.n_cells(d), pair), lift[prev.chains(d)]])
            assert np.array_equal(up, searched_cells(cx, rows)), (n, d)


def test_flat_rank_index_fits_int32_for_every_accepted_n():
    for n in range(3, 9):
        m = len(proper_rgs(n))
        assert m * m < 2**31, n
    # a larger poset is refused before its relation is read
    with pytest.raises(ValueError, match="overflow int32"):
        OrderComplex(range(46341), None)


def test_cell_label():
    cx = proper_part_complex(4)
    d, i = cx.locate(parse_simplex("1,2|3|4 < 1,2|3,4"))
    assert cx.cell_label(d, i) == "1,2|3|4 < 1,2|3,4"


def test_proper_part_counts():
    cx4 = proper_part_complex(4)
    assert cx4.f_vector() == (13, 18)
    assert cx4.euler_characteristic() == -5
    cx5 = proper_part_complex(5)
    assert cx5.f_vector() == (50, 205, 180)
    assert cx5.euler_characteristic() == 25
    with pytest.raises(ValueError):
        proper_part_complex(2)


def test_proper_part_vertices_sorted():
    cx = proper_part_complex(4)
    rgs = [p.rgs for p in cx.elements]
    assert rgs == sorted(rgs)
    assert cx.element_index[cx.elements[3]] == 3


def test_build_order_complex_infers_relation():
    cx = OrderComplex.from_poset([2, 3, 4, 6, 12], less=lambda a, b: a != b and b % a == 0)
    assert cx.f_vector() == (5, 7, 3)


def test_refinement_matrix_matches_pairwise_refines():
    for n in range(3, 7):
        cx = proper_part_complex(n)
        pairwise = [[p != q and p.refines(q) for q in cx.elements] for p in cx.elements]
        assert np.array_equal(cx.less, np.array(pairwise, dtype=bool))


def test_transitivity_check_catches_a_missing_composite_edge():
    # the proper part of Pi_4 has no three-element chain, so start at n = 5
    cx = proper_part_complex(5)
    rel = cx.less.copy()
    # drop the edge i < j of some chain i < k < j
    i, k, j = next(
        (i, k, j)
        for i in range(len(rel))
        for k in np.flatnonzero(rel[i])
        for j in np.flatnonzero(rel[k])
    )
    assert rel[i, j]
    rel[i, j] = False
    with pytest.raises(InvalidPosetError, match="not transitive"):
        OrderComplex(cx.elements, rel)


def test_a_symmetric_pair_or_a_loop_is_named():
    less = proper_part_complex(5).less
    rng = np.random.default_rng(5)
    below, above = np.nonzero(less)
    for trial in range(12):
        rel = less.copy()
        if trial % 3 == 0:
            loops = rng.choice(len(rel), 2, replace=False)
            rel[loops, loops] = True
            expected = f"{loops.min()} < {loops.min()}"
        else:
            picks = rng.choice(len(below), trial % 3, replace=False)
            rel[above[picks], below[picks]] = True
            # the first pair in row order whose reverse holds too
            i, j = np.argwhere(rel & rel.T)[0]
            expected = f"{i} < {j} and {j} < {i}"
        with pytest.raises(InvalidPosetError, match="^relation is not antisymmetric and irreflexive: (.*)$") as info:
            OrderComplex(None, rel, proper_rgs(5))
        assert str(info.value).endswith(": " + expected)


@pytest.mark.parametrize(
    "pairs, triple",
    [
        ([(0, 1), (1, 2), (2, 0)], (0, 1, 2)),
        ([(0, 1), (1, 2), (2, 3), (3, 0)], (0, 1, 2)),
        # with the chords 0 < 2 and 1 < 3, the least bad chain is 0 < 1 < 3
        ([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 0)], (0, 1, 3)),
    ],
    ids=["3-cycle", "4-cycle", "4-cycle-with-chords"],
)
def test_an_antisymmetric_cycle_is_not_transitive(pairs, triple):
    # a cycle has chains of every length: without the 2-chain check, made
    # before layer 3 is built, the layers would never end
    size = max(max(p) for p in pairs) + 1
    rel = np.zeros((size, size), dtype=bool)
    rel[tuple(np.transpose(pairs))] = True
    assert not (rel & rel.T).any()
    i, j, k = triple
    with pytest.raises(InvalidPosetError, match=f"^relation is not transitive: {i} < {j} < {k} but not {i} < {k}$"):
        OrderComplex(list(range(size)), rel)


def test_prefix_tree_rebuilds_every_chain():
    for n in range(3, 7):
        cx = proper_part_complex(n)
        chains = relation_chains(cx.less)
        assert cx.f_vector() == tuple(len(layer) for layer in chains)
        assert cx.parent[0].tolist() == [0] * cx.n_cells(0)
        for d in range(cx.dim + 1):
            assert cx.chains(d).tolist() == [list(c) for c in chains[d]]
            some = np.arange(cx.n_cells(d))[::-7]
            assert cx.chains(d, some).tolist() == [list(chains[d][i]) for i in some]
            # find's binary search keys: parent*m + last increases strictly
            codes = cx.parent[d].astype(np.int64) * len(cx.elements) + cx.last[d]
            assert (np.diff(codes) > 0).all()
            assert codes.max() < max(cx.n_cells(d - 1), 1) * len(cx.elements)


def int32_digest(arrays) -> str:
    """sha256 of the arrays' entries as little-endian int32, one after another."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.asarray(a, dtype="<i4").tobytes())
    return h.hexdigest()


# int32_digest of parent[0], last[0], parent[1], last[1], ... of proper_part_complex(n)
NERVE_SHA256 = {
    3: "c3f5aadf8ecfcdf7e6caaeac2626219a74494159a7667f8c25669592cd2c3154",
    4: "9c952b4404f0d31248bbf39a74425f631a4f0c8ef7b3f68158a56f5230ce8082",
    5: "5f7edd9ef1cc609e70e0e7b1f36d18a2a3e6b8cc4701bea2700e2d2193e12dc5",
    6: "bd359c0bcdd5b6425d9210779c3b18e8cb037ff31fd363c69f51cf0c409318ca",
    7: "a028858b761418b4c81ef24fb6c47e5ddc53a7dad3ef985cde972f6b09e5516b",
}


def test_prefix_tree_is_pinned():
    for n, digest in NERVE_SHA256.items():
        cx = proper_part_complex(n)
        assert all(a.dtype == np.int32 for a in cx.parent + cx.last)
        assert int32_digest(a for d in range(cx.dim + 1) for a in (cx.parent[d], cx.last[d])) == digest


def test_face_table_matches_chain_lookup():
    for n in range(3, 7):
        cx = proper_part_complex(n)
        chains = relation_chains(cx.less)
        index = chain_positions(chains)
        for d in range(1, cx.dim + 1):
            expected = [[index[d - 1][chain[:k] + chain[k + 1:]] for k in range(d + 1)] for chain in chains[d]]
            assert cx.face_table(d, np.arange(cx.n_cells(d))).tolist() == expected
            some = np.arange(cx.n_cells(d))[::-3]
            assert cx.face_table(d, some).tolist() == [expected[i] for i in some]
            signed = [tuple(zip(row, (1, -1) * d)) for row in expected]
            assert [cx.faces(d, i) for i in range(cx.n_cells(d))] == signed
            assert cx.boundary_columns(d) == [dict(col) for col in signed]


def test_invalid_poset_rejected():
    bad = np.array([[False, True], [True, False]])
    with pytest.raises(InvalidPosetError):
        OrderComplex(["a", "b"], bad)
    loop = np.array([[True]])
    with pytest.raises(InvalidPosetError):
        OrderComplex(["a"], loop)
    broken = np.zeros((3, 3), dtype=bool)
    broken[0, 1] = broken[1, 2] = True  # missing transitive edge 0 < 2
    with pytest.raises(InvalidPosetError):
        OrderComplex(["a", "b", "c"], broken)


def test_explicit_complex():
    cx = circle()
    assert cx.dim == 1
    assert cx.n_cells(0) == 3 and cx.n_cells(1) == 3
    assert cx.euler_characteristic() == 0
    assert cx.faces(1, 0) == ((0, -1), (1, 1))
    assert cx.faces(0, 2) == ()
    mat = dense_boundary(cx, 1)
    assert not mat.sum(axis=0).any()
    assert cx.cell_label(1, 1) == "bc"


def test_nerve_keeps_labels_and_makes_elements_on_first_use():
    from partmorse.setpart import enumerate_proper, proper_rgs

    for n in (4, 5):
        cx = proper_part_complex(n)
        assert "elements" not in cx.__dict__ and "element_index" not in cx.__dict__
        assert np.array_equal(cx.labels, proper_rgs(n)) and cx.labels.dtype == np.int32
        names = [cx.cell_labels(d, np.arange(cx.n_cells(d))) for d in range(cx.dim + 1)]
        assert "elements" not in cx.__dict__
        assert cx.elements == enumerate_proper(n)
        # the same poset from its element list derives the same labels and names
        explicit = OrderComplex(enumerate_proper(n), cx.less)
        assert np.array_equal(explicit.labels, cx.labels)
        assert [explicit.cell_labels(d, np.arange(cx.n_cells(d))) for d in range(cx.dim + 1)] == names
        # rows numbering blocks in any order find their partitions
        shuffled = (cx.labels + 1) % n
        assert cx.locate_labels(shuffled).tolist() == list(range(len(cx.labels)))
    with pytest.raises(ValueError, match="name no element"):
        proper_part_complex(4).locate_labels(np.array([[0, 1, 2, 3]]))
    with pytest.raises(ValueError, match="elements or their labels"):
        OrderComplex(None, np.zeros((0, 0), dtype=bool))
