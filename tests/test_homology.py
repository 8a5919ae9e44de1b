import itertools
import math
import random

import numpy as np
import pytest

from partmorse import homology
from partmorse.construction import build_main_matching, get_complex
from partmorse.homology import (
    DimHomology,
    HomologyResult,
    InvalidComplexError,
    homology_of,
    smith_normal_form,
    verify_wedge,
)
from partmorse.morse import morse_data
from partmorse.ordercomplex import ExplicitComplex, proper_part_complex
from partmorse.perm import ComplexAction, PermGroup, QuotientComplex
from partmorse.trees import TreeQuotient
from chain_oracle import poset_complex

# invariant factors computed once with an independent implementation
SNF_ORACLE = {
    ((2, 4, 4), (-6, 6, 12), (10, 4, 16)): (2, 2, 156),
    ((1, 2, 3), (4, 5, 6), (7, 8, 9)): (1, 3),
    ((6, 10), (10, 15)): (1, 10),
    ((2, 0), (0, 3)): (1, 6),
    ((0, 0, 0), (0, 0, 0)): (),
    ((3, 3, 3), (3, 3, 3), (3, 3, 3)): (3,),
    ((4,),): (4,),
    ((2, 6), (4, 8), (6, 10)): (2, 4),
}


def boolean_proper_part(n):
    # nonempty proper subsets of {1..n} under inclusion; the nerve is a
    # sphere of dimension n-2
    subsets = [
        frozenset(c)
        for size in range(1, n)
        for c in itertools.combinations(range(1, n + 1), size)
    ]
    return poset_complex(subsets, less=lambda a, b: a < b)


def mod2_moore_space():
    # a circle with a disk glued along a degree-2 map
    return ExplicitComplex(
        [["p"], ["loop"], ["disk"]],
        [[[(0, -1), (0, 1)]], [[(0, 1), (0, 1)]]],
    )


def full_snf_table(cx, reduced=True):
    """The homology table without any pair removed: the Smith normal form
    of every boundary map of the whole complex."""
    factors = {d: smith_normal_form((cx.n_cells(d - 1), cx.boundary_columns(d))) for d in range(1, cx.dim + 1)}
    table = []
    for d in range(cx.dim + 1):
        betti = cx.n_cells(d) - len(factors.get(d, ())) - len(factors.get(d + 1, ()))
        if d == 0 and reduced and cx.n_cells(0):
            betti -= 1
        table.append({"dim": d, "betti": betti, "torsion": [f for f in factors.get(d + 1, ()) if f > 1]})
    return table


def assert_matches_full_snf(cx):
    for reduced in (True, False):
        want = full_snf_table(cx, reduced)
        assert homology_of(cx, reduced=reduced).to_json() == want
        for k in range(cx.dim + 1):
            assert homology_of(cx, reduced=reduced, max_dim=k).to_json() == want[: k + 1]


def simplicial_complex(facets, glued=None):
    """ExplicitComplex of the down-closure of the facets (vertex sets);
    the k-th face of a simplex drops its k-th vertex with sign (-1)^k.
    glued = (vertex set, m) adds one more cell whose boundary is m times
    the boundary of that simplex; its proper faces must be present."""
    simplices = {s for f in facets for r in range(1, len(f) + 1) for s in itertools.combinations(sorted(f), r)}
    layers = [sorted(s for s in simplices if len(s) == r) for r in range(1, max(map(len, simplices)) + 1)]
    index = [{s: i for i, s in enumerate(layer)} for layer in layers]

    def boundary(s, m=1):
        return [(index[len(s) - 2][s[:k] + s[k + 1:]], m * (-1) ** k) for k in range(len(s))]

    labels = [[str(s) for s in layer] for layer in layers]
    faces = [[boundary(s) for s in layer] for layer in layers[1:]]
    if glued is not None:
        top, m = tuple(sorted(glued[0])), glued[1]
        if len(top) > len(layers):
            labels.append([])
            faces.append([])
        labels[len(top) - 1].append(f"{m}*{top}")
        faces[len(top) - 2].append(boundary(top, m))
    return ExplicitComplex(labels, faces)


HOMOLOGY_N6_GROUPS = ("(2 3)", "(1 2)", "(1 2)(3 4)(5 6)", "(1 2 3 4)", "(1 2 3)(4 5 6)", "(1 2 3 4 5 6)")


def test_smith_normal_form_oracle_values():
    for rows, want in SNF_ORACLE.items():
        assert smith_normal_form(np.array(rows)) == want


def test_smith_normal_form_sparse_input():
    assert smith_normal_form((2, [{0: 6, 1: 10}, {0: 10, 1: 15}])) == (1, 10)
    assert smith_normal_form((3, [])) == ()
    assert smith_normal_form((0, [])) == ()


def test_smith_normal_form_divisibility():
    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        m = np.array([[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)])
        factors = smith_normal_form(m)
        assert len(factors) <= min(rows, cols)
        assert all(f > 0 for f in factors)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0


def test_smith_normal_form_unimodular_invariance():
    rng = np.random.default_rng(11)
    base = np.array([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    want = (2, 2, 156)
    for _ in range(25):
        m = base.copy()
        for _ in range(6):
            kind = rng.integers(0, 3)
            i, j = rng.permutation(3)[:2]
            if kind == 0:
                m[[i, j]] = m[[j, i]]
            elif kind == 1:
                m[i] += int(rng.integers(-3, 4)) * m[j]
            else:
                m[:, i] += int(rng.integers(-3, 4)) * m[:, j]
        assert smith_normal_form(m) == want


def test_smith_normal_form_large_identity_block():
    m = np.eye(40, dtype=np.int64)
    m[13, 13] = 6
    assert smith_normal_form(m) == (1,) * 39 + (6,)


def test_rank_of():
    # the rank is the number of invariant factors
    assert len(smith_normal_form(np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9]]))) == 2
    assert len(smith_normal_form(np.zeros((3, 4), dtype=np.int64))) == 0
    assert len(smith_normal_form(np.eye(3, dtype=np.int64))) == 3


def test_is_unimodular():
    # determinant +-1 iff the matrix is square with invariant factors all 1
    def unimodular(m):
        return m.shape[0] == m.shape[1] and smith_normal_form(m) == (1,) * m.shape[0]

    assert unimodular(np.array([[1, 1], [0, 1]]))
    assert unimodular(np.array([[0, 1], [1, 0]]))
    assert not unimodular(np.array([[1, 0], [0, 2]]))
    assert not unimodular(np.array([[1, 2], [2, 4]]))
    assert not unimodular(np.array([[1, 0, 0], [0, 1, 0]]))


def test_circle_homology():
    circle = ExplicitComplex(
        [["a", "b", "c"], ["ab", "bc", "ca"]],
        [[[(0, -1), (1, 1)], [(1, -1), (2, 1)], [(2, -1), (0, 1)]]],
    )
    reduced = homology_of(circle)
    assert reduced.betti(0) == 0 and reduced.betti(1) == 1
    assert reduced.torsion(1) == ()
    full = homology_of(circle, reduced=False)
    assert full.betti(0) == 1 and full.betti(1) == 1


def test_boolean_lattice_spheres():
    # proper part of the subset lattice: nerve is S^(n-2)
    for n, dim in ((3, 1), (4, 2)):
        result = homology_of(boolean_proper_part(n))
        assert verify_wedge(result, dim, 1)
        assert not result.is_trivial()


def test_torsion_moore_space():
    result = homology_of(mod2_moore_space())
    assert result.betti(0) == 0
    assert result.betti(1) == 0
    assert result.torsion(1) == (2,)
    assert result.betti(2) == 0 and result.torsion(2) == ()


def test_partition_nerve_homology():
    result = homology_of(proper_part_complex(4))
    assert result.betti(0) == 0
    assert result.betti(1) == 6
    result5 = homology_of(proper_part_complex(5))
    assert [result5.betti(d) for d in range(3)] == [0, 0, 24]
    assert all(result5.torsion(d) == () for d in range(3))


def test_euler_characteristic_consistency():
    for cx in (proper_part_complex(4), proper_part_complex(5), boolean_proper_part(4)):
        full = homology_of(cx, reduced=False)
        chi = sum((-1) ** d * full.betti(d) for d in range(cx.dim + 1))
        assert chi == cx.euler_characteristic()


def test_max_dim_truncates_table_not_values():
    cx = proper_part_complex(5)
    result = homology_of(cx, max_dim=1)
    assert [h.dim for h in result.per_dim] == [0, 1]
    # the truncated rows still hold the homology of the full complex
    assert result.betti(1) == 0
    assert homology_of(cx, max_dim=99).to_json() == homology_of(cx).to_json()


def test_boundary_square_checked():
    # a 2-cell whose boundary is a single edge cannot close up
    bad = ExplicitComplex(
        [["a", "b"], ["ab"], ["f"]],
        [[[(0, -1), (1, 1)]], [[(0, 1)]]],
    )
    with pytest.raises(InvalidComplexError):
        homology_of(bad)


def test_augmentation_checked():
    # an edge whose two endpoints both carry coefficient +1 squares to
    # zero (there is nothing below dimension 0), but it does not augment
    # to zero, so reduced homology is undefined; the check reads the
    # whole complex before the empty cell is added and any pair removed
    bad = ExplicitComplex([["a", "b"], ["ab"]], [[[(0, 1), (1, 1)]]])
    with pytest.raises(InvalidComplexError, match="augment"):
        homology_of(bad)
    full = homology_of(bad, reduced=False)
    assert full.to_json() == [
        {"dim": 0, "betti": 1, "torsion": []},
        {"dim": 1, "betti": 0, "torsion": []},
    ]
    # on a valid complex reduced and unreduced disagree only in dimension 0
    cx = boolean_proper_part(3)
    reduced = homology_of(cx)
    full = homology_of(cx, reduced=False)
    assert full.betti(0) - reduced.betti(0) == 1
    assert full.betti(1) == reduced.betti(1)


def test_unreduced_homology_reduces_like_reduced(monkeypatch):
    # an augmented nonempty complex gets the empty cell in both modes, so
    # unreduced homology sends no more cells to Smith normal form
    seen = []
    snf = homology.smith_normal_form

    def counted(matrix):
        seen.append(len(matrix[1]))
        return snf(matrix)

    monkeypatch.setattr(homology, "smith_normal_form", counted)
    cx = proper_part_complex(5)
    homology_of(cx)
    reduced_sizes = seen[:]
    seen.clear()
    assert homology_of(cx, reduced=False).to_json() == full_snf_table(cx, reduced=False)
    assert seen == reduced_sizes and sum(seen) < cx.total_cells() // 10


def test_result_serialization():
    result = homology_of(mod2_moore_space())
    js = result.to_json()
    assert js == [
        {"dim": 0, "betti": 0, "torsion": []},
        {"dim": 1, "betti": 0, "torsion": [2]},
        {"dim": 2, "betti": 0, "torsion": []},
    ]
    csv = result.to_csv()
    assert csv.splitlines()[0] == "dim,betti,torsion"
    assert csv.splitlines()[2] == "1,0,2"
    assert result.betti(99) == 0 and result.torsion(99) == ()


def test_homology_result_is_trivial():
    assert HomologyResult([DimHomology(0, 0, ())], reduced=True).is_trivial()
    assert not HomologyResult([DimHomology(3, 1, ())], reduced=True).is_trivial()
    assert not HomologyResult([DimHomology(3, 0, (5,))], reduced=True).is_trivial()


def test_verify_wedge():
    result = homology_of(proper_part_complex(4))
    assert verify_wedge(result, 1, 6)
    assert not verify_wedge(result, 1, 5)
    assert not verify_wedge(result, 0, 6)
    torsioned = homology_of(mod2_moore_space())
    assert not verify_wedge(torsioned, 1, 0)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_nerve_homology_matches_full_smith_normal_form(n):
    assert_matches_full_snf(get_complex(n))


@pytest.mark.parametrize("n, generator", [(6, g) for g in HOMOLOGY_N6_GROUPS] + [(5, "(1 2 3 4 5)")])
def test_quotient_homology_matches_full_smith_normal_form(n, generator):
    group = PermGroup.from_cycle_strings(n, [generator])
    assert_matches_full_snf(QuotientComplex(ComplexAction(get_complex(n), group)))


def test_fixture_homology_matches_full_smith_normal_form():
    # the disk meets its only face with coefficient 2, so that pair stays
    assert_matches_full_snf(mod2_moore_space())
    for n in (3, 4):
        assert_matches_full_snf(boolean_proper_part(n))


# the complexes of the paper, each with its reduced top Betti number
PAPER_COMPLEXES = {
    **{f"nerve-{n}": (lambda n=n: get_complex(n), math.factorial(n - 1)) for n in range(3, 8)},
    **{f"symmetric-tree-{n}": (lambda n=n: TreeQuotient([0] * n), 0) for n in range(3, 9)},
    **{f"stabilizer-tree-{n}": (lambda n=n: TreeQuotient([0] + [1] * (n - 1)), 1) for n in range(3, 9)},
    **{f"morse-{n}": (lambda n=n: morse_data(build_main_matching(n)), math.factorial(n - 1)) for n in range(3, 7)},
}


@pytest.mark.parametrize("name", PAPER_COMPLEXES)
def test_coreduction_alone_computes_the_paper_complexes(name, monkeypatch):
    # the cells left are the top homology's basis, so Smith normal form
    # is never called
    make, top_betti = PAPER_COMPLEXES[name]
    cx = make()
    left, calls = [], []
    coreduce, snf = homology._coreduce, homology.smith_normal_form
    monkeypatch.setattr(homology, "_coreduce", lambda arrays, sizes: left.append(coreduce(arrays, sizes)) or left[-1])
    monkeypatch.setattr(homology, "smith_normal_form", lambda matrix: calls.append(matrix) or snf(matrix))
    result = homology_of(cx)
    assert calls == []
    assert sum(int(flags.sum()) for flags in left[0].values()) == top_betti
    assert verify_wedge(result, cx.dim, top_betti)


def test_empty_and_negative_truncations():
    assert homology_of(ExplicitComplex([], [])).to_json() == []
    for k in (-1, -2):
        assert homology_of(proper_part_complex(4), max_dim=k).to_json() == []


def _hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    return hypothesis, hypothesis.strategies


def test_random_simplicial_complexes_match_full_smith_normal_form():
    hypothesis, st = _hypothesis()
    vertex_sets = st.frozensets(st.integers(0, 6), min_size=1, max_size=4)

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(st.lists(vertex_sets, min_size=1, max_size=6))
    def check(facets):
        assert_matches_full_snf(simplicial_complex(facets))

    check()


def test_random_complexes_with_a_multiple_attaching_cell_match_full_smith_normal_form():
    hypothesis, st = _hypothesis()
    vertex_sets = st.frozensets(st.integers(0, 6), min_size=1, max_size=4)

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(
        st.lists(vertex_sets, max_size=5),
        st.frozensets(st.integers(0, 6), min_size=2, max_size=4),
        st.sampled_from((2, 3, -2, -3)),
        st.booleans(),
    )
    def check(facets, top, m, filled):
        # the glued cell sits on the boundary sphere of top, which is
        # either left hollow or filled by top itself
        shell = [top - {v} for v in top] if not filled else [top]
        assert_matches_full_snf(simplicial_complex(facets + shell, glued=(top, m)))

    check()
