"""Exact integral homology of chain complexes via Smith normal form.

Boundary matrices are eliminated sparsely with unimodular operations:
a first phase consumes +-1 pivots (chosen by a lazy minimum-fill heap,
which is almost the whole matrix for nerve boundaries), and whatever
remains is finished by the textbook algorithm with divisibility
enforcement.  Everything runs on Python integers, so no overflow.
"""

from __future__ import annotations

import heapq
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


def homology_of(complex_like, reduced: bool = True, max_dim: int | None = None) -> HomologyResult:
    """Integral homology of any CellComplex.  Reduced homology augments
    dimension 0 by the sum of vertex coefficients."""
    top = complex_like.dim
    if max_dim is not None:
        top = min(top, max_dim)
    # one extra boundary map keeps the top reported row correct when the
    # table is truncated below the dimension of the complex
    deep = min(complex_like.dim, top + 1)
    columns = {d: complex_like.boundary_columns(d) for d in range(1, deep + 1)}
    _check_boundary_squares_to_zero(columns, deep)
    factors = {d: smith_normal_form((complex_like.n_cells(d - 1), columns[d])) for d in columns}
    ranks = {d: len(factors[d]) for d in factors}
    ranks.setdefault(top + 1, 0)
    if reduced:
        for col in columns.get(1, []):
            if sum(col.values()):
                raise InvalidComplexError("an edge boundary does not augment to zero")
    out = []
    for d in range(top + 1):
        cells = complex_like.n_cells(d)
        betti = cells - ranks.get(d, 0) - ranks[d + 1]
        if d == 0 and reduced and cells:
            betti -= 1
        torsion = tuple(f for f in factors.get(d + 1, ()) if f > 1)
        out.append(DimHomology(d, betti, torsion))
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
