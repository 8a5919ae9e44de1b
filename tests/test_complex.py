import numpy as np
import pytest

from partmorse.construction import build_main_matching
from partmorse.morse import morse_data
from partmorse.ordercomplex import (
    ExplicitComplex,
    InvalidPosetError,
    OrderComplex,
    Simplex,
    parse_simplex,
    proper_part_complex,
)
from partmorse.perm import PermGroup, QuotientComplex
from partmorse.setpart import parse_partition
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
    sub = [cx.cells[1][j] for j, _ in faces]
    assert sub == [(2, 4), (0, 4), (0, 2)]


def test_boundary_squares_to_zero():
    cx = proper_part_complex(5)
    for d in range(2, cx.dim + 1):
        prod = cx.boundary_matrix(d - 1) @ cx.boundary_matrix(d)
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
    for group in (PermGroup.point_stabilizer(5), PermGroup.symmetric(5)):
        qc = QuotientComplex(cx, group)
        for d in range(1, qc.dim + 1):
            for i in range(qc.n_cells(d)):
                base = cx.faces(d, qc.reps[d][i])
                assert qc.faces(d, i) == tuple((qc.orbit_index(d - 1, j), s) for j, s in base)


def quotient_of_five():
    return QuotientComplex(proper_part_complex(5), PermGroup.from_cycle_strings(5, ["(2 3)", "(4 5)"]))


def morse_complex_of_five():
    return morse_data(build_main_matching(5)).chain_data()


def test_boundary_columns_match_matrix():
    for make in (divisor_complex, circle, mod2_moore_space, quotient_of_five, morse_complex_of_five):
        cx = make()
        for d in range(1, cx.dim + 1):
            mat = cx.boundary_matrix(d)
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


def test_prefix_tree_rebuilds_every_chain():
    for n in range(3, 7):
        cx = proper_part_complex(n)
        # every chain of the relation, extended one vertex at a time
        chains = [[(i,) for i in range(len(cx.elements))]]
        while chains[-1]:
            chains.append([c + (j,) for c in chains[-1] for j in np.flatnonzero(cx.less[c[-1]]).tolist()])
        assert cx.cells == chains[:-1]
        assert cx.parent[0].tolist() == [0] * cx.n_cells(0)
        assert [(v,) for v in cx.last[0].tolist()] == cx.cells[0]
        for d in range(1, cx.dim + 1):
            prefixes = cx.cells[d - 1]
            rebuilt = [prefixes[p] + (v,) for p, v in zip(cx.parent[d].tolist(), cx.last[d].tolist())]
            assert rebuilt == cx.cells[d]
        for d in range(cx.dim + 1):
            codes = cx.cell_codes(d)
            assert (np.diff(codes) > 0).all()
            assert codes.max() < max(cx.n_cells(d - 1), 1) * len(cx.elements)


def test_face_table_matches_chain_lookup():
    for n in range(3, 7):
        cx = proper_part_complex(n)
        for d in range(1, cx.dim + 1):
            expected = [
                [cx.index[d - 1][chain[:k] + chain[k + 1:]] for k in range(d + 1)]
                for chain in cx.cells[d]
            ]
            assert cx.face_table(d, np.arange(cx.n_cells(d))).tolist() == expected
            some = np.arange(cx.n_cells(d))[::-3]
            assert cx.face_table(d, some).tolist() == [expected[i] for i in some]


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
    mat = cx.boundary_matrix(1)
    assert not mat.sum(axis=0).any()
    assert cx.cell_label(1, 1) == "bc"
