"""The array certificates against the dict loops they replaced.

The reference functions below are the earlier implementations, read cell
by cell through CellComplex.boundary_columns and faces: the check that
the boundary squares to zero and the unit-pair reduction of homology_of,
and the memoised gradient-path counts and the fixpoint flow behind
morse_data.  sympy serves as an independent Smith normal form oracle.
"""

import random
import re
from collections import deque

import numpy as np
import pytest

from partmorse import homology
from partmorse.construction import (
    build_main_matching,
    fiber_zero_matching,
    get_action,
    get_complex,
    quotient_critical_cells,
)
from partmorse.homology import (
    DimHomology,
    HomologyResult,
    InvalidComplexError,
    homology_of,
    smith_normal_form,
)
from partmorse import morse
from partmorse.morse import (
    InvalidMatchingError,
    Matching,
    MorseData,
    closure_matching,
    cohomology_pairing,
    gradient_chain,
    morse_data,
)
from partmorse.ordercomplex import ExplicitComplex, FaceTableComplex, proper_part_complex
from partmorse.perm import ComplexAction, PermGroup, QuotientComplex
from chain_oracle import symmetric_group
from test_acceptance import SUBGROUPS, _subgroup
from test_homology import HOMOLOGY_N6_GROUPS, boolean_proper_part, mod2_moore_space, simplicial_complex
from test_morse import circle, divisors_of_six


def reference_square_check(columns_by_dim, top):
    for d in range(2, top + 1):
        below = columns_by_dim[d - 1]
        for j, col in enumerate(columns_by_dim[d]):
            acc = {}
            for i, v in col.items():
                for k, w in below[i].items():
                    acc[k] = acc.get(k, 0) + v * w
            if any(acc.values()):
                raise InvalidComplexError(f"boundary squared is nonzero at dimension {d}, column {j}")


def reference_unit_reduction(columns, sizes):
    """The live flags left by a queue of unit pairs, one pair at a time."""
    lo, hi = min(sizes, default=0), max(sizes, default=-1)
    live = {d: bytearray(b"\x01") * sizes[d] for d in sizes}
    cofaces = {d: [[] for _ in range(sizes[d])] for d in range(lo, hi)}
    for d in range(lo + 1, hi + 1):
        for b, col in enumerate(columns[d]):
            for a in col:
                cofaces[d - 1][a].append(b)
    n_faces = {d: [len(col) for col in columns[d]] for d in range(lo + 1, hi + 1)}
    n_cofaces = {d: [len(up) for up in cofaces[d]] for d in cofaces}
    queue = deque(
        (d, i)
        for d in sizes
        for i in range(sizes[d])
        if (d > lo and n_faces[d][i] == 1) or (d < hi and n_cofaces[d][i] == 1)
    )

    def kill(d, x):
        live[d][x] = 0
        if d > lo:
            for y in columns[d][x]:
                if live[d - 1][y]:
                    n_cofaces[d - 1][y] -= 1
                    if n_cofaces[d - 1][y] == 1:
                        queue.append((d - 1, y))
        if d < hi:
            for z in cofaces[d][x]:
                if live[d + 1][z]:
                    n_faces[d + 1][z] -= 1
                    if n_faces[d + 1][z] == 1:
                        queue.append((d + 1, z))

    while queue:
        d, x = queue.popleft()
        if not live[d][x]:
            continue
        if d > lo and n_faces[d][x] == 1:
            col = columns[d][x]
            a = next(a for a in col if live[d - 1][a])
            if abs(col[a]) == 1:
                kill(d - 1, a)
                kill(d, x)
                continue
        if d < hi and n_cofaces[d][x] == 1:
            b = next(b for b in cofaces[d][x] if live[d + 1][b])
            if abs(columns[d + 1][b][x]) == 1:
                kill(d, x)
                kill(d + 1, b)
    return live


def reference_homology(cx, reduced=True, max_dim=None):
    """homology_of as it was: dict columns, the dict square check and the
    queue reduction before Smith normal form."""
    top = cx.dim if max_dim is None else min(cx.dim, max_dim)
    deep = min(cx.dim, top + 1)
    columns = {d: cx.boundary_columns(d) for d in range(1, deep + 1)}
    reference_square_check(columns, deep)
    augmented = not any(sum(col.values()) for col in columns.get(1, []))
    if reduced and not augmented:
        raise InvalidComplexError("an edge boundary does not augment to zero")
    sizes = {d: cx.n_cells(d) for d in range(deep + 1)}
    empty_cell = bool(sizes) and (reduced or (augmented and sizes[0] > 0))
    if empty_cell:
        sizes[-1] = 1
        columns[0] = [{0: 1}] * sizes[0]
    live = reference_unit_reduction(columns, sizes)
    kept = {d: {i: k for k, i in enumerate(i for i, flag in enumerate(flags) if flag)} for d, flags in live.items()}
    factors = {
        d: smith_normal_form(
            (len(kept[d - 1]), [{kept[d - 1][a]: v for a, v in columns[d][b].items() if a in kept[d - 1]} for b in kept[d]])
        )
        for d in columns
    }
    out = []
    for d in range(top + 1):
        betti = len(kept[d]) - len(factors.get(d, ())) - len(factors.get(d + 1, ()))
        out.append(DimHomology(d, betti, tuple(f for f in factors.get(d + 1, ()) if f > 1)))
    if empty_cell and not reduced and out:
        out[0].betti += 1
    return HomologyResult(out, reduced)


def reference_flow(complex, up, critical, d):
    """Lazy signed gradient-path counts from d-cells into critical d-cells."""
    memo = {}

    def flow(y0):
        stack = [y0]
        while stack:
            y = stack[-1]
            if y in memo:
                stack.pop()
                continue
            if y in critical:
                memo[y] = {y: 1}
                stack.pop()
                continue
            w = up[y]
            if w < 0:
                memo[y] = {}
                stack.pop()
                continue
            inc = dict(complex.faces(d + 1, w))
            sy = inc[y]
            if abs(sy) != 1:
                raise InvalidMatchingError(f"matched incidence of ({d},{y}) in ({d+1},{w}) is {sy}")
            pending = [z for z in inc if z != y and z not in memo]
            if pending:
                stack.extend(pending)
                continue
            acc = {}
            for z, sz in inc.items():
                if z != y:
                    for c, v in memo[z].items():
                        acc[c] = acc.get(c, 0) + (-sy * sz) * v
            memo[y] = {c: v for c, v in acc.items() if v}
            stack.pop()
        return memo[y0]

    return flow


def reference_morse_boundary(matching):
    cx = matching.complex
    critical = matching.critical_cells()
    boundary = [[]]
    for d in range(1, cx.dim + 1):
        position = {c: k for k, c in enumerate(critical[d - 1])}
        flow = reference_flow(cx, matching.up[d - 1].tolist(), set(critical[d - 1]), d - 1)
        cols = []
        for u in critical[d]:
            acc = {}
            for y, s in cx.faces(d, u):
                for c, v in flow(y).items():
                    acc[c] = acc.get(c, 0) + s * v
            cols.append({position[c]: v for c, v in acc.items() if v})
        boundary.append(cols)
    return boundary


def reference_gradient_chain(matching, cell):
    """Iterate x -> x + boundary(raise(x)) + raise(boundary(x)) to a fixpoint."""
    cx = matching.complex
    d, start = cell

    def raise_chain(chain, k):
        out = {}
        for a, va in chain.items():
            b = int(matching.up[k][a])
            if b >= 0:
                out[b] = out.get(b, 0) - dict(cx.faces(k + 1, b))[a] * va
        return {b: v for b, v in out.items() if v}

    def lower_chain(chain, k):
        out = {}
        for a, va in chain.items():
            for y, s in cx.faces(k, a):
                out[y] = out.get(y, 0) + s * va
        return {y: v for y, v in out.items() if v}

    r = {start: 1}
    for _ in range(cx.total_cells() + 10):
        nxt = dict(r)
        if d >= 1:
            for b, v in raise_chain(lower_chain(r, d), d - 1).items():
                nxt[b] = nxt.get(b, 0) + v
        for b, v in lower_chain(raise_chain(r, d), d + 1).items():
            nxt[b] = nxt.get(b, 0) + v
        nxt = {a: v for a, v in nxt.items() if v}
        if nxt == r:
            return r
        r = nxt
    raise InvalidMatchingError("discrete flow did not stabilize")


def quotient(n, texts):
    return QuotientComplex(ComplexAction(get_complex(n), PermGroup.from_cycle_strings(n, texts)))


def morse_complex(matching):
    return morse_data(matching).chain_data()


COMPLEXES = {
    **{f"nerve-{n}": (lambda n=n: get_complex(n)) for n in (3, 4, 5, 6)},
    **{f"quotient-6-{g}": (lambda g=g: quotient(6, [g])) for g in HOMOLOGY_N6_GROUPS},
    "quotient-5-five-cycle": lambda: quotient(5, ["(1 2 3 4 5)"]),
    **{
        f"symmetric-{n}": (lambda n=n: QuotientComplex(ComplexAction(get_complex(n), symmetric_group(n))))
        for n in (4, 5, 6)
    },
    **{
        f"subgroup-{n}-{name}": (lambda n=n, texts=texts: quotient_critical_cells(n, _subgroup(n, texts))[1])
        for n, entries in SUBGROUPS.items()
        for name, texts in entries
    },
    **{f"morse-{n}": (lambda n=n: morse_complex(build_main_matching(n))) for n in (3, 4, 5, 6)},
    "morse-quotient-6": lambda: morse_complex(quotient_critical_cells(6, get_action(6).group)[0]),
    "circle": circle,
    "moore-2": mod2_moore_space,
    "boolean-3": lambda: boolean_proper_part(3),
    "boolean-4": lambda: boolean_proper_part(4),
    "divisors-6": divisors_of_six,
    "moore-3-hollow": lambda: simplicial_complex([{0, 1}, {1, 2}, {0, 2}], glued=({0, 1, 2}, 3)),
    "moore-2-sphere": lambda: simplicial_complex([{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}], glued=({0, 1, 2, 3}, -2)),
}


@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_homology_agrees_with_dict_reference(name):
    cx = COMPLEXES[name]()
    for reduced in (True, False):
        for max_dim in [None] + list(range(cx.dim + 1)):
            want = reference_homology(cx, reduced, max_dim).to_json()
            assert homology_of(cx, reduced, max_dim).to_json() == want


def test_torsion_survives_the_array_reduction():
    assert homology_of(quotient(5, ["(1 2 3 4 5)"])).torsion(1) == (5,)
    assert homology_of(COMPLEXES["moore-3-hollow"]()).torsion(1) == (3,)
    assert homology_of(COMPLEXES["moore-2-sphere"]()).torsion(2) == (2,)
    assert homology_of(mod2_moore_space()).torsion(1) == (2,)


def corrupted_nerves(n, count, seed):
    """Fresh nerves, each with one face-table entry of dimension >= 1
    replaced by a face of the same dimension that the cell does not have."""
    rng = random.Random(seed)
    for _ in range(count):
        cx = proper_part_complex(n)
        d = rng.randrange(1, cx.dim + 1)
        table = cx.face_array(d)
        i, k = rng.randrange(len(table)), rng.randrange(d + 1)
        table[i, k] = rng.choice(sorted(set(range(cx.n_cells(d - 1))) - set(table[i].tolist())))
        yield cx


@pytest.mark.parametrize("n", [5, 6])
def test_every_corrupted_face_entry_is_caught(n):
    # in a nerve every edge lies in a triangle and a simplex of dimension
    # >= 1 is fixed by its faces, so one wrong face entry always leaves
    # some boundary of a boundary nonzero
    for cx in corrupted_nerves(n, 12, seed=n):
        with pytest.raises(InvalidComplexError, match="squared"):
            homology_of(cx, reduced=False)
        columns = {d: cx.boundary_columns(d) for d in range(1, cx.dim + 1)}
        with pytest.raises(InvalidComplexError):
            reference_square_check(columns, cx.dim)


def test_square_check_in_small_blocks():
    # blocks of a few cells read the same verdict as one block
    for cx in [get_complex(5), *corrupted_nerves(5, 6, seed=1)]:
        arrays = {d: cx.boundary_arrays(d) for d in range(1, cx.dim + 1)}
        verdicts = []
        for block in (1, 7, 1 << 22):
            try:
                for d in range(2, cx.dim + 1):
                    homology._check_squares_to_zero(arrays[d], arrays[d - 1], cx.n_cells(d - 2), d, block)
                verdicts.append(None)
            except InvalidComplexError as exc:
                verdicts.append(str(exc))
        assert verdicts[0] == verdicts[1] == verdicts[2]
        assert (verdicts[0] is None) == (cx is get_complex(5))


def test_square_check_sums_each_cell_apart():
    # two disks on one edge with opposite signs: each boundary of a boundary
    # is nonzero, and only their sum over both cells vanishes
    cx = ExplicitComplex([["a", "b"], ["ab"], ["x", "y"]], [[[(0, -1), (1, 1)]], [[(0, 1)], [(0, -1)]]])
    with pytest.raises(InvalidComplexError, match="dimension 2, column 0"):
        homology_of(cx)
    with pytest.raises(InvalidComplexError, match="dimension 2, column 0"):
        reference_square_check({d: cx.boundary_columns(d) for d in (1, 2)}, 2)


def test_square_check_names_the_reference_column():
    # fixed widths (a nerve) sort each cell's row apart; mixed widths sort
    # the codes of a whole block; both name the cell the reference names
    for cx in corrupted_nerves(5, 6, seed=2):
        columns = {d: cx.boundary_columns(d) for d in range(1, cx.dim + 1)}
        with pytest.raises(InvalidComplexError) as expected:
            reference_square_check(columns, cx.dim)
        with pytest.raises(InvalidComplexError, match=re.escape(str(expected.value))):
            homology_of(cx, reduced=False)
    # a triangle x on a circle of three edges, and a disk y on one edge
    edges = [[(0, -1), (1, 1)], [(1, -1), (2, 1)], [(2, -1), (0, 1)]]
    cx = ExplicitComplex([["a", "b", "c"], ["ab", "bc", "ca"], ["x", "y"]], [edges, [[(0, 1), (1, 1), (2, 1)], [(0, 1)]]])
    with pytest.raises(InvalidComplexError, match="dimension 2, column 1$"):
        homology_of(cx)
    with pytest.raises(InvalidComplexError, match="dimension 2, column 1$"):
        reference_square_check({d: cx.boundary_columns(d) for d in (1, 2)}, 2)


class TableComplex(FaceTableComplex):
    """A FaceTableComplex given by its face tables: tables[d - 1] for d >= 1."""

    def __init__(self, n_vertices, tables):
        self.tables = [np.array(t, dtype=np.int32) for t in tables]
        super().__init__([n_vertices] + [len(t) for t in self.tables])

    def face_table(self, d, cells):
        return self.tables[d - 1][cells]


def test_a_disk_that_breaks_an_identity_goes_to_the_exact_sum(monkeypatch):
    # edges x - y, z - y, z - x and a triangle on them: its boundary squares
    # to zero, but face 0 of its face 1 is z and face 0 of its face 0 is x
    cx = TableComplex(3, [[[0, 1], [2, 1], [2, 0]], [[0, 1, 2]]])
    arrays = {d: cx.boundary_arrays(d) for d in (1, 2)}
    assert not homology._simplicial(arrays[2], arrays[1], 2)
    sums = []
    real = homology._sum_squares
    monkeypatch.setattr(homology, "_sum_squares", lambda *args: sums.append(args[3]) or real(*args))
    assert homology_of(cx).is_trivial()
    assert homology_of(cx, reduced=False).to_json() == [
        {"dim": 0, "betti": 1, "torsion": []},
        {"dim": 1, "betti": 0, "torsion": []},
        {"dim": 2, "betti": 0, "torsion": []},
    ]
    assert sums == [2, 2]


def test_nerves_and_quotients_take_the_identities(monkeypatch):
    def no_sum(*args):
        raise AssertionError("the exact sum ran")

    monkeypatch.setattr(homology, "_sum_squares", no_sum)
    for n in (3, 4, 5, 6):
        cx = proper_part_complex(n)
        cycle = "(" + " ".join(map(str, range(1, n + 1))) + ")"
        groups = [PermGroup.point_stabilizer(n), symmetric_group(n), PermGroup.from_cycle_strings(n, [cycle])]
        for target in [cx] + [QuotientComplex(ComplexAction(cx, g)) for g in groups]:
            homology_of(target, reduced=False)


def test_face_out_of_range_is_an_invalid_complex():
    cx = proper_part_complex(4)
    cx.face_array(1)[3, 1] = cx.n_cells(0)
    with pytest.raises(InvalidComplexError, match="not a cell"):
        homology_of(cx)


def matchings():
    cases = {f"main-{n}": build_main_matching(n) for n in (3, 4, 5, 6)}
    cases.update({f"zero-{n}": fiber_zero_matching(n) for n in (3, 4, 5)})
    for n, entries in SUBGROUPS.items():
        for name, texts in entries:
            cases[f"quotient-{n}-{name}"] = quotient_critical_cells(n, _subgroup(n, texts))[0]
    cases["quotient-6-full"] = quotient_critical_cells(6, get_action(6).group)[0]
    cx = circle()
    cases["circle"] = Matching(cx, [((0, 0), (1, 0)), ((0, 1), (1, 1))])
    cx = divisors_of_six()
    gcd2 = {1: 1, 2: 2, 3: 1, 6: 2}
    cases["divisors"] = Matching(cx, closure_matching(cx, lambda v: cx.element_index[gcd2[cx.elements[v]]]))
    return cases


def test_morse_data_agrees_with_dict_reference(monkeypatch):
    chains, whole = morse._gradient_chains, morse.CHAIN_BLOCK
    widths = []
    monkeypatch.setattr(morse, "_gradient_chains", lambda m, d, cells, *g: widths.append((d, len(cells))) or chains(m, d, cells, *g))
    for name, matching in matchings().items():
        sizes = [matching.complex.n_cells(d) for d in range(matching.complex.dim + 1)]
        counts = matching.critical_counts()
        # one block, blocks of one column, and of at least seven columns in every dimension
        for block in (whole, 1, 7 * max(sizes)):
            monkeypatch.setattr(morse, "CHAIN_BLOCK", block)
            widths.clear()
            assert morse_data(matching).boundary == reference_morse_boundary(matching), (name, block)
            # the blocks cover the critical d-cells, each within the bound
            for d in range(1, len(counts)):
                assert sum(n for e, n in widths if e == d) == (counts[d] if counts[d - 1] else 0)
            assert all(n * sizes[d] <= max(block, sizes[d]) for d, n in widths)
            if name == "zero-5" and block < whole:
                # its 72 critical 2-cells in 72 blocks, then in 11
                assert [n for d, n in widths if d == 2] == ([1] * 72 if block == 1 else [7] * 10 + [2])
        if matching.complex.total_cells() < 3000:
            for d, layer in enumerate(matching.critical_cells()):
                for i in layer:
                    assert gradient_chain(matching, (d, i)) == reference_gradient_chain(matching, (d, i)), name


def coefficient_ladder(c, steps=2):
    """steps gradient steps that each multiply by c, then a critical edge of
    coefficient c: its Morse boundary is c^(steps + 1) times the critical
    vertex, and its gradient chain holds c^steps."""
    faces = [[(i, 1), (i - 1, c)] for i in range(1, steps + 1)] + [[(steps, c)]]
    cx = ExplicitComplex([[f"v{i}" for i in range(steps + 1)], [f"e{i}" for i in range(1, steps + 2)]], [faces])
    return Matching(cx, [((0, i), (1, i - 1)) for i in range(1, steps + 1)])


def test_gradient_chains_raise_where_int64_would_wrap():
    # the gradient chain of e4 on three steps is e4 - c e3 + c^2 e2 - c^3 e1;
    # its bound, once taken in int64, wrapped at c = 3 * 2^20 (the chain then
    # read 5 * 2^60 on e1) and at c = 2^22 (no e1 term at all)
    matching = coefficient_ladder(1 << 20, steps=3)
    chain = {3: 1, 2: -(1 << 20), 1: 1 << 40, 0: -(1 << 60)}
    assert gradient_chain(matching, (1, 3)) == reference_gradient_chain(matching, (1, 3)) == chain
    assert cohomology_pairing(MorseData(matching.complex, matching, matching.critical_cells(), [])).tolist() == [[1]]
    for c in (3 << 20, 1 << 22):
        matching = coefficient_ladder(c, steps=3)
        assert reference_gradient_chain(matching, (1, 3))[0] == -(c**3)
        data = MorseData(matching.complex, matching, matching.critical_cells(), [])
        for run in (lambda: gradient_chain(matching, (1, 3)), lambda: cohomology_pairing(data), lambda: morse_data(matching)):
            with pytest.raises(OverflowError, match="int64"):
                run()


def test_morse_boundary_is_exact_up_to_the_int64_bound():
    matching = coefficient_ladder(1 << 20)
    assert morse_data(matching).boundary == reference_morse_boundary(matching) == [[], [{0: 1 << 60}]]
    # 2^63 does not fit in int64; it must raise, not wrap
    with pytest.raises(OverflowError):
        morse_data(coefficient_ladder(1 << 21))


def test_homology_takes_large_coefficients_in_python_integers():
    cx = coefficient_ladder(1 << 40).complex
    assert homology_of(cx, reduced=False).to_json() == reference_homology(cx, reduced=False).to_json()
    # here the boundary of the boundary of the disk is 2^80 (b - a), which is 0 modulo 2^64
    c = 1 << 40
    cx = ExplicitComplex([["a", "b"], ["e"], ["disk"]], [[[(0, -c), (1, c)]], [[(0, c)]]])
    with pytest.raises(InvalidComplexError, match="squared"):
        homology_of(cx)


def test_non_unit_matched_incidence_raises_like_the_reference():
    # the Moore space with a second disk on its loop; the first disk meets
    # the loop with coefficient 2 and is paired with it behind the back of
    # the Matching constructor, and the flow from the second passes there
    cx = ExplicitComplex([["p"], ["loop"], ["disk", "cap"]], [[[(0, -1), (0, 1)]], [[(0, 2)], [(0, 1)]]])
    matching = Matching(cx, [])
    matching.up[1][0], matching.down[2][0] = 0, 0
    with pytest.raises(InvalidMatchingError, match="matched incidence"):
        morse_data(matching)
    with pytest.raises(InvalidMatchingError, match="matched incidence"):
        reference_morse_boundary(matching)


def test_smith_normal_form_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(10)
    for _ in range(60):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        density = rng.choice((0.3, 0.7, 1.0))
        m = [[rng.randrange(-9, 10) if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]
        want = tuple(sorted(abs(int(f)) for f in invariant_factors(sympy.Matrix(m), domain=sympy.ZZ) if f))
        assert smith_normal_form(np.array(m)) == want
