"""Exact integral homology of chain complexes.

homology_of first removes unit pairs from the complex: a (d-1)-cell a
and a d-cell b with [b : a] = +-1, where either a is the only live face
of b (a coreduction) or b is the only live coface of a (a free-face
collapse).  Either kind of pair is a Gaussian elimination whose
correction term vanishes, so the boundary of the remaining cells is the
restriction of the old one and nothing fills in (Mrozek-Batko,
"Coreduction homology algorithm"; Skoldberg, "Morse theory from an
algebraic viewpoint").  Reduced homology adds the empty cell below the
vertices, so the first pair is (empty cell, vertex) and coreductions
cascade from there; so does unreduced homology of a nonempty complex
whose edges augment to zero, which then gains one Z in H_0.  Only unit
coefficients are paired, so torsion is never reduced away.

What survives goes to smith_normal_form.  Boundary matrices are
eliminated sparsely with unimodular operations: a first phase consumes
+-1 pivots (chosen by a lazy minimum-fill heap), and whatever remains is
finished by the textbook algorithm with divisibility enforcement.
Everything runs on Python integers, so no overflow.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from math import gcd


class InvalidComplexError(ValueError):
    """The boundary maps do not square to zero."""


def _load_sparse(matrix):
    """Normalize input to (rows, col_support) dict-of-dict structure.

    Accepts a 2D array / list of lists, or a (n_rows, columns) pair where
    columns is a list of {row: value} dicts.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    if isinstance(matrix, tuple) and len(matrix) == 2 and isinstance(matrix[1], list):
        _, columns = matrix
        for c, col in enumerate(columns):
            for r, v in col.items():
                v = int(v)
                if v:
                    rows.setdefault(r, {})[c] = v
                    cols.setdefault(c, set()).add(r)
    else:
        for r, row in enumerate(matrix):
            for c, v in enumerate(row):
                v = int(v)
                if v:
                    rows.setdefault(r, {})[c] = v
                    cols.setdefault(c, set()).add(r)
    return rows, cols


def _row_op(rows, cols, target: int, source: int, factor: int):
    """row[target] -= factor * row[source]"""
    if factor == 0:
        return
    trow = rows.setdefault(target, {})
    for c, v in rows[source].items():
        nv = trow.get(c, 0) - factor * v
        if nv:
            trow[c] = nv
            cols.setdefault(c, set()).add(target)
        elif c in trow:
            del trow[c]
            cols[c].discard(target)
    if not trow:
        del rows[target]


def _col_op(rows, cols, target: int, source: int, factor: int):
    """col[target] -= factor * col[source]"""
    if factor == 0:
        return
    for r in list(cols.get(source, ())):
        v = rows[r][source]
        nv = rows[r].get(target, 0) - factor * v
        if nv:
            rows[r][target] = nv
            cols.setdefault(target, set()).add(r)
        elif target in rows[r]:
            del rows[r][target]
            cols[target].discard(r)


def _drop_pivot(rows, cols, r: int, c: int):
    for c2 in rows[r]:
        cols[c2].discard(r)
        if not cols[c2]:
            del cols[c2]
    del rows[r]


def _unit_phase(rows, cols) -> int:
    """Eliminate +-1 pivots greedily by lowest fill; returns the count."""
    heap: list[tuple[int, int, int]] = []

    def fill(r, c):
        return (len(rows[r]) - 1) * (len(cols[c]) - 1)

    for r, row in rows.items():
        for c, v in row.items():
            if abs(v) == 1:
                heap.append((fill(r, c), r, c))
    heapq.heapify(heap)
    count = 0
    while heap:
        f, r, c = heapq.heappop(heap)
        v = rows.get(r, {}).get(c, 0)
        if abs(v) != 1:
            continue
        if fill(r, c) > f:
            heapq.heappush(heap, (fill(r, c), r, c))
            continue
        # clear the column with row operations, then discard the pivot
        # row; clearing the pivot row by column operations would touch
        # no other row, so it is skipped outright
        for r2 in list(cols[c]):
            if r2 == r:
                continue
            _row_op(rows, cols, r2, r, rows[r2][c] * v)
            for c2, v2 in rows.get(r2, {}).items():
                if abs(v2) == 1:
                    heapq.heappush(heap, (fill(r2, c2), r2, c2))
        _drop_pivot(rows, cols, r, c)
        count += 1
    return count


def _general_phase(rows, cols) -> list[int]:
    """Textbook Smith elimination with divisibility enforcement."""
    factors: list[int] = []
    while rows:
        r, c = min(
            ((r, c) for r, row in rows.items() for c in row),
            key=lambda rc: (abs(rows[rc[0]][rc[1]]), rc),
        )
        while True:
            v = rows[r][c]
            off_col = [r2 for r2 in cols[c] if r2 != r]
            reduced = False
            for r2 in off_col:
                q = rows[r2][c] // v
                _row_op(rows, cols, r2, r, q)
                if rows.get(r2, {}).get(c):
                    r = r2  # strictly smaller remainder becomes the pivot
                    reduced = True
                    break
            if reduced:
                continue
            v = rows[r][c]
            off_row = [c2 for c2 in rows[r] if c2 != c]
            for c2 in off_row:
                q = rows[r][c2] // v
                _col_op(rows, cols, c2, c, q)
                if rows[r].get(c2):
                    c = c2
                    reduced = True
                    break
            if reduced:
                continue
            v = rows[r][c]
            culprit = None
            for r3, row in rows.items():
                if r3 == r:
                    continue
                for c3, v3 in row.items():
                    if v3 % v:
                        culprit = r3
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            _row_op(rows, cols, r, culprit, -1)  # pull the bad row in, redo
        factors.append(abs(rows[r][c]))
        _drop_pivot(rows, cols, r, c)
    return factors


def smith_normal_form(matrix) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... | d_r (r = rank) of an integer
    matrix, via unimodular row and column operations."""
    rows, cols = _load_sparse(matrix)
    units = _unit_phase(rows, cols)
    rest = _general_phase(rows, cols)
    return (1,) * units + tuple(rest)


def rank_of(matrix) -> int:
    return len(smith_normal_form(matrix))


def is_unimodular(matrix) -> bool:
    """Square with determinant +-1, decided via invariant factors."""
    mat = [list(row) for row in matrix]
    n = len(mat)
    if any(len(row) != n for row in mat):
        return False
    factors = smith_normal_form(mat)
    return len(factors) == n and all(f == 1 for f in factors)


@dataclass
class DimHomology:
    dim: int
    betti: int
    torsion: tuple[int, ...]


@dataclass
class HomologyResult:
    per_dim: list[DimHomology]
    reduced: bool

    def betti(self, d: int) -> int:
        for h in self.per_dim:
            if h.dim == d:
                return h.betti
        return 0

    def torsion(self, d: int) -> tuple[int, ...]:
        for h in self.per_dim:
            if h.dim == d:
                return h.torsion
        return ()

    def is_trivial(self) -> bool:
        return all(h.betti == 0 and not h.torsion for h in self.per_dim)

    def to_json(self) -> list[dict]:
        return [{"dim": h.dim, "betti": h.betti, "torsion": list(h.torsion)} for h in self.per_dim]

    def to_csv(self) -> str:
        lines = ["dim,betti,torsion"]
        for h in self.per_dim:
            lines.append(f"{h.dim},{h.betti},{';'.join(str(t) for t in h.torsion)}")
        return "\n".join(lines)


def _check_boundary_squares_to_zero(columns_by_dim: dict[int, list[dict[int, int]]], top: int):
    for d in range(2, top + 1):
        below = columns_by_dim[d - 1]
        for j, col in enumerate(columns_by_dim[d]):
            acc: dict[int, int] = {}
            for i, v in col.items():
                for k, w in below[i].items():
                    acc[k] = acc.get(k, 0) + v * w
            if any(acc.values()):
                raise InvalidComplexError(f"boundary squared is nonzero at dimension {d}, column {j}")


def _unit_reduction(columns: dict[int, list[dict[int, int]]], sizes: dict[int, int]) -> dict[int, bytearray]:
    """Remove unit pairs (module docstring) until none is left; returns
    the live flags of the cells of each dimension in sizes.  columns[d]
    holds the boundary of every d-cell, for every d in sizes but the
    lowest."""
    lo, hi = min(sizes, default=0), max(sizes, default=-1)
    live = {d: bytearray(b"\x01") * sizes[d] for d in sizes}
    cofaces: dict[int, list[list[int]]] = {d: [[] for _ in range(sizes[d])] for d in range(lo, hi)}
    for d in range(lo + 1, hi + 1):
        up = cofaces[d - 1]
        for b, col in enumerate(columns[d]):
            for a in col:
                up[a].append(b)
    n_faces = {d: [len(col) for col in columns[d]] for d in range(lo + 1, hi + 1)}
    n_cofaces = {d: [len(up) for up in cofaces[d]] for d in cofaces}
    # a cell is queued whenever it may have one live face or coface left
    queue = deque(
        (d, i)
        for d in sizes
        for i in range(sizes[d])
        if (d > lo and n_faces[d][i] == 1) or (d < hi and n_cofaces[d][i] == 1)
    )

    def kill(d: int, x: int):
        live[d][x] = 0
        if d > lo:
            below, counts = live[d - 1], n_cofaces[d - 1]
            for y in columns[d][x]:
                if below[y]:
                    counts[y] -= 1
                    if counts[y] == 1:
                        queue.append((d - 1, y))
        if d < hi:
            above, counts = live[d + 1], n_faces[d + 1]
            for z in cofaces[d][x]:
                if above[z]:
                    counts[z] -= 1
                    if counts[z] == 1:
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


def homology_of(complex_like, reduced: bool = True, max_dim: int | None = None) -> HomologyResult:
    """Integral homology of any CellComplex.  Reduced homology augments
    dimension 0 by the sum of vertex coefficients.  The complex is
    checked whole, then unit pairs are removed and the boundary of the
    cells left is put in Smith normal form."""
    top = complex_like.dim
    if max_dim is not None:
        top = min(top, max_dim)
    # one extra boundary map keeps the top reported row correct when the
    # table is truncated below the dimension of the complex
    deep = min(complex_like.dim, top + 1)
    columns = {d: complex_like.boundary_columns(d) for d in range(1, deep + 1)}
    _check_boundary_squares_to_zero(columns, deep)
    augmented = not any(sum(col.values()) for col in columns.get(1, []))
    if reduced and not augmented:
        raise InvalidComplexError("an edge boundary does not augment to zero")
    sizes = {d: complex_like.n_cells(d) for d in range(deep + 1)}
    # the empty cell, the one face of every vertex; unreduced homology of an
    # augmented nonempty complex is reduced homology plus one Z in H_0
    empty_cell = bool(sizes) and (reduced or (augmented and sizes[0] > 0))
    if empty_cell:
        sizes[-1] = 1
        columns[0] = [{0: 1}] * sizes[0]
    live = _unit_reduction(columns, sizes)
    # number the surviving cells of each dimension consecutively
    kept = {d: {i: k for k, i in enumerate(i for i, flag in enumerate(flags) if flag)} for d, flags in live.items()}
    factors = {
        d: smith_normal_form(
            (
                len(kept[d - 1]),
                [{kept[d - 1][a]: v for a, v in columns[d][b].items() if a in kept[d - 1]} for b in kept[d]],
            )
        )
        for d in columns
    }
    out = []
    for d in range(top + 1):
        betti = len(kept[d]) - len(factors.get(d, ())) - len(factors.get(d + 1, ()))
        torsion = tuple(f for f in factors.get(d + 1, ()) if f > 1)
        out.append(DimHomology(d, betti, torsion))
    if empty_cell and not reduced and out:
        out[0].betti += 1
    return HomologyResult(out, reduced)


def verify_wedge(result: HomologyResult, dim: int, count: int) -> bool:
    """True iff the reduced homology is free of the given rank in the
    given dimension and vanishes everywhere else."""
    if not result.reduced:
        raise ValueError("wedge verification needs reduced homology")
    for h in result.per_dim:
        if h.torsion:
            return False
        if h.betti != (count if h.dim == dim else 0):
            return False
    return True
