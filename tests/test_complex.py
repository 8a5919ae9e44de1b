import numpy as np
import pytest

from partmorse.ordercomplex import (
    ExplicitComplex,
    InvalidPosetError,
    OrderComplex,
    Simplex,
    parse_simplex,
    proper_part_complex,
)
from partmorse.setpart import parse_partition


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


def test_boundary_columns_match_matrix():
    cx = divisor_complex()
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
