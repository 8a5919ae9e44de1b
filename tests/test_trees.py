"""TreeQuotient against QuotientComplex, against the build that codes every
candidate and recodes every face, the Euler numbers, the lemma that picks
the candidates, and corrupted tree quotients."""

import re

import numpy as np
import pytest

from partmorse.construction import get_complex
from partmorse.homology import InvalidComplexError, homology_of
from partmorse.perm import ComplexAction, PermGroup, QuotientComplex
from partmorse import trees
from partmorse.setpart import proper_rgs, rgs_table
from partmorse.trees import TreeQuotient, _Codes, non_decreasing, point_orbits, young_colouring
from chain_oracle import symmetric_group, tree_quotient_reference

# Euler zigzag numbers E_0..E_9 (OEIS A000111)
EULER = (1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936)


def young_group(colours) -> PermGroup:
    """The permutations that keep every point's colour, from a transposition
    and a cycle of each colour class."""
    n, gens = len(colours), []
    for c in sorted(set(colours)):
        points = [str(e) for e, k in enumerate(colours, start=1) if k == c]
        if len(points) > 1:
            gens.append(f"({points[0]} {points[1]})")
        if len(points) > 2:
            gens.append("(" + " ".join(points) + ")")
    return PermGroup.from_cycle_strings(n, gens)


def orbit_numbers(cx, qc, tq, d) -> np.ndarray:
    """The QuotientComplex cell of each tree cell of dimension d: its
    representative located in the nerve level by level, then mapped
    through orbit_of."""
    chains = tq.chains(d)
    cell = np.zeros(len(chains), dtype=np.int32)
    for i in range(d + 1):
        cell = cx.find(i, cell, cx.locate_labels(chains[:, i]))
    return qc.orbit_of[d].take(cell)


def assert_same_as_reference(tq, colours):
    chains, tables = tree_quotient_reference(colours)
    assert tq.dim + 1 == len(chains), colours
    for d in range(tq.dim + 1):
        assert tq.chains(d).dtype == chains[d].dtype and tq.chains(d).tobytes() == chains[d].tobytes(), (colours, d)
        assert tq.face_array(d).dtype == tables[d].dtype and tq.face_array(d).tobytes() == tables[d].tobytes(), (colours, d)


def assert_same_quotient(colours):
    n = len(colours)
    cx, tq = get_complex(n), TreeQuotient(colours)
    # byte for byte the cells and faces of the build that codes every
    # candidate and recodes every face
    assert_same_as_reference(tq, colours)
    qc = QuotientComplex(ComplexAction(cx, young_group(colours)))
    assert tq.f_vector() == qc.f_vector(), colours
    assert homology_of(tq) == homology_of(qc), colours
    # the face tables agree once the tree cells are numbered as the orbits
    below = None
    for d in range(tq.dim + 1):
        number = orbit_numbers(cx, qc, tq, d)
        assert np.array_equal(np.sort(number), np.arange(tq.n_cells(d))), (colours, d)
        if d:
            assert np.array_equal(qc.face_array(d)[number], below.take(tq.face_array(d))), (colours, d)
        below = number


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_every_colouring_gives_the_nerve_quotient(n):
    # a colouring up to the names of its colours is a restricted-growth string
    for colours in rgs_table(n).tolist():
        assert_same_quotient(colours)


@pytest.mark.parametrize("colours", [[0] * 7, [0] + [1] * 6], ids=["S_7", "Stab(1)"])
def test_n7_quotients_match_the_nerve_quotient(colours):
    assert_same_quotient(colours)


def test_n8_stabilizer_quotient_builds_the_reference_cells_and_faces():
    colours = [0] + [1] * 7
    assert_same_as_reference(TreeQuotient(colours), colours)


@pytest.mark.parametrize("batch", [5, 60, 700])
def test_small_batches_build_the_reference_cells_and_faces(batch, monkeypatch):
    # codes are numbered per batch, so the batches must be those of the
    # reference: counted before the lemma's filter
    monkeypatch.setattr(trees, "BATCH", batch)
    for colours in ([0] * 7, [0, 1, 1, 1, 1, 1, 1], [0, 1, 2, 1, 2, 2]):
        assert_same_as_reference(TreeQuotient(colours), colours)


def assert_kept_rows_reach_every_orbit(keep, n):
    """For every colouring of [n], the proper partitions kept by keep(rows,
    classes) have the root codes of all proper partitions."""
    rows = proper_rgs(n).astype(np.int8)
    for colours in rgs_table(n).astype(np.int8):
        codes = _Codes(colours)

        def roots(part):
            below = np.broadcast_to(np.arange(n, dtype=np.int8), part.shape), np.broadcast_to(colours, part.shape)
            return set(codes.root(codes.level(part, below)).tolist())

        assert roots(rows[keep(rows, colours[None])[0]]) == roots(rows), colours.tolist()


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_rows_non_decreasing_on_each_colour_reach_every_orbit(n):
    assert_kept_rows_reach_every_orbit(non_decreasing, n)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_rows_non_increasing_on_each_colour_miss_an_orbit(n):
    # the lemma's inequality reversed: the same check must fail
    def non_increasing(rows, classes):
        return non_decreasing(-rows, classes)

    with pytest.raises(AssertionError):
        assert_kept_rows_reach_every_orbit(non_increasing, n)


def test_the_lemma_keeps_62_of_875_rows_for_the_stabilizer_of_1_at_n_7():
    colours = np.array([0] + [1] * 6, dtype=np.int8)
    assert non_decreasing(proper_rgs(7).astype(np.int8), colours[None]).sum() == 62


@pytest.mark.parametrize("n", range(3, 10))
def test_top_counts_are_euler_numbers(n):
    # E_{n-1} top cells modulo S_n, E_n modulo the stabilizer of 1
    assert TreeQuotient([0] * n).f_vector()[-1] == EULER[n - 1]
    assert TreeQuotient([0] + [1] * (n - 1)).f_vector()[-1] == EULER[n]


@pytest.mark.parametrize("n", range(3))
def test_fewer_than_three_points_are_refused(n):
    with pytest.raises(ValueError, match="the proper part needs n >= 3"):
        TreeQuotient([0] * n)


def test_colours_are_numbered_by_first_appearance():
    a, b = TreeQuotient([5, 2, 2, 5, 2]), TreeQuotient([0, 1, 1, 0, 1])
    assert a.f_vector() == b.f_vector()
    assert all(np.array_equal(a.face_array(d), b.face_array(d)) for d in range(1, a.dim + 1))
    assert a.cell_label(1, 0).startswith("[") and " < " in a.cell_label(1, 0)


def test_young_colouring_needs_the_full_product():
    assert young_colouring(young_group([0, 1, 1, 2, 2])).tolist() == [0, 1, 1, 2, 2]
    assert young_colouring(symmetric_group(5)).tolist() == [0] * 5
    # a cycle has one orbit on its points but is not their symmetric group
    cyclic = PermGroup.from_cycle_strings(5, ["(2 3 4 5)"])
    assert point_orbits(cyclic).tolist() == [0, 1, 1, 1, 1]
    assert young_colouring(cyclic) is None


def test_swapped_face_columns_fail_the_homology_checks():
    tq = TreeQuotient([0] + [1] * 5)
    homology_of(tq)
    tq.face_array(3)[0, [0, 1]] = tq.face_array(3)[0, [1, 0]]
    with pytest.raises(InvalidComplexError):
        homology_of(tq)


def test_a_dropped_representative_fails_the_build_naming_the_face():
    class Dropped(TreeQuotient):
        def _extend(self, codes, layer):
            found = super()._extend(codes, layer)
            # lose the orbit of 1,2,3|4|5 under S_5 from layer 0
            if layer is None:
                keep = np.array([not np.array_equal(row[0], [0, 0, 0, 1, 2]) for row in found[0]])
                return tuple(a[keep] for a in found)
            return found

    with pytest.raises(InvalidComplexError, match="is no cell of dimension 0") as info:
        Dropped([0] * 5)
    # the face named is a partition of that orbit, of block sizes 3, 1, 1
    face = re.search(r"face 0 \[(\S+)\] of 1-cell \[", str(info.value)).group(1)
    assert sorted(len(block.split(",")) for block in face.split("|")) == [1, 1, 3]


def test_a_face_array_past_the_top_is_an_index_error_in_every_complex():
    cx = get_complex(5)
    complexes = [cx, QuotientComplex(ComplexAction(cx, young_group([0, 1, 1, 1, 1]))), TreeQuotient([0, 1, 1, 1, 1])]
    for complex in complexes:
        assert complex.dim == 2
        with pytest.raises(IndexError):
            complex.face_array(3)


def test_the_build_keeps_one_store_of_face_tables():
    tq = TreeQuotient([0] * 5)
    # no list of the tables beside _face_tables, and no build table left
    assert "_faces" not in vars(tq) and "_coarser" not in vars(tq)
    for d in range(tq.dim + 1):
        assert np.array_equal(tq.face_table(d, [1, 0]), tq.face_array(d)[[1, 0]])
