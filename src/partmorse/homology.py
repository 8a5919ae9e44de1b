"""Exact integral homology of chain complexes.

homology_of reads only the boundary arrays of a CellComplex.  It checks
the whole complex first: every face is a cell, the boundary squares to
zero and, for reduced homology, the edges augment to zero.  Where the
cells of two dimensions have d+1 and d faces, the k-th of sign (-1)^k, as
in the nerve and its quotients, the simplicial identities on the face
tables (face i of face j is face j-1 of face i, for i < j) prove the
boundary squares to zero by column gathers alone; any other pair of
dimensions, or one where an identity fails, is decided exactly: the
composed arrays summed per (cell, face of a face) after a sort, in blocks
of bounded size, naming the lowest cell whose boundary of a boundary is
not zero.  Then it removes coreduction pairs: a d-cell b whose only
live face is a (d-1)-cell a, with [b : a] = +-1.  This is a Gaussian
elimination whose correction term vanishes, as the live boundary of b is
+-a alone, so nothing fills in (Mrozek-Batko, "Coreduction homology
algorithm", 2009); the pairs are taken in rounds, from the live-face
counts of the arrays.  The empty cell below the vertices (reduced
homology, or unreduced homology of a nonempty complex whose edges
augment to zero, which then gains one Z in H_0) starts the cascade.
Only unit coefficients are paired, so torsion is never lost.

What survives goes to smith_normal_form as sparse columns: a first phase
consumes +-1 pivots (chosen by a lazy minimum-fill heap), and the textbook
algorithm with divisibility enforcement finishes, on Python integers.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .ordercomplex import entry_cells, entry_positions


class InvalidComplexError(ValueError):
    """The boundary maps do not square to zero."""


def _load_sparse(matrix):
    """Normalize input to (rows, col_support) dict-of-dict structure.

    Accepts a 2D array / list of lists, or a (n_rows, columns) pair where
    columns is a list of {row: value} dicts.
    """
    if not (isinstance(matrix, tuple) and len(matrix) == 2 and isinstance(matrix[1], list)):
        matrix = (len(matrix), [dict(enumerate(col)) for col in zip(*matrix)])
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for c, col in enumerate(matrix[1]):
        for r, v in col.items():
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


def _check_squares_to_zero(upper, lower, n_below: int, d: int, block: int = 1 << 22) -> None:
    """Raise unless the boundary of the boundary of every d-cell is zero,
    given the boundary arrays of dimensions d and d-1: proved by the
    simplicial identities when they hold (_simplicial), else decided by
    _sum_squares."""
    if not _simplicial(upper, lower, d):
        _sum_squares(upper, lower, n_below, d, block)


def _simplicial(upper, lower, d: int) -> bool:
    """Whether the d-cells and (d-1)-cells have d+1 and d faces each, the
    k-th of coefficient (-1)^k, and their face tables satisfy the
    simplicial identities: face i of face j is face j-1 of face i for all
    i < j.  Then the terms of the boundary of a boundary cancel in pairs
    (May, "Simplicial objects in algebraic topology", 1967), one column
    gather per side of each identity and no sort."""
    for (indptr, _, coeffs), width in ((upper, d + 1), (lower, d)):
        sign = 1 - 2 * (np.arange(width) % 2)
        if not (np.diff(indptr) == width).all() or not (coeffs.reshape(-1, width) == sign).all():
            return False
    faces, low = upper[1].reshape(-1, d + 1), lower[1].reshape(-1, d).T
    return all(np.array_equal(low[i][faces[:, j]], low[j - 1][faces[:, i]]) for j in range(1, d + 1) for i in range(j))


def _sum_squares(upper, lower, n_below: int, d: int, block: int) -> None:
    """The exact check of _check_squares_to_zero: the boundary arrays of
    dimension d composed with those of d-1 give signed (cell, face of a
    face) entries, summed per pair after a sort, for blocks of cells of at
    most block composed entries; a failure names the lowest bad cell."""
    indptr, faces, coeffs = upper
    low_ptr, low_faces, low_coeffs = lower
    width = np.diff(low_ptr)[faces]
    reach = np.concatenate([[0], np.cumsum(width)])[indptr]
    start = 0
    while start < len(indptr) - 1:
        stop = max(int(np.searchsorted(reach, reach[start] + block, "right")) - 1, start + 1)
        e = slice(indptr[start], indptr[stop])
        pos = entry_positions(low_ptr, faces[e])
        code = np.repeat(np.arange(start, stop) * n_below, np.diff(reach[start : stop + 1])) + low_faces[pos]
        order = np.argsort(code)
        code, value = code[order], (np.repeat(coeffs[e], width[e]) * low_coeffs[pos])[order]
        head = np.flatnonzero(np.diff(code, prepend=-1))
        bad = np.flatnonzero(np.add.reduceat(value, head)) if len(head) else head
        if len(bad):
            cell = code[head[bad[0]]] // n_below
            raise InvalidComplexError(f"boundary squared is nonzero at dimension {d}, column {cell}")
        start = stop


def _once(keys: np.ndarray, size: int) -> np.ndarray:
    """A mask keeping one position of each distinct key in 0..size-1."""
    slot = np.empty(size, dtype=np.intp)
    ids = np.arange(len(keys))
    slot[keys] = ids
    return slot[keys] == ids


def _coreduce(arrays: dict, sizes: dict[int, int]) -> dict[int, np.ndarray]:
    """Remove coreduction pairs (module docstring) until none is left;
    returns the live flags of the cells of each dimension in sizes,
    arrays[d] holding the boundary arrays of the d-cells for every d in
    sizes but the lowest.  Each round takes the dimensions upwards and
    removes at once the unit live entries whose cell has one live face,
    keeping one cell per face; such a cell has no other live entry to be
    picked by.  A dimension with no live entry leaves the rounds; each is
    popped to be filtered, so its old arrays go as the new ones come."""
    live = {d: np.ones(n, dtype=bool) for d, n in sizes.items()}
    entries = {d: (entry_cells(ip), f, np.abs(c) == 1) for d, (ip, f, c) in sorted(arrays.items())}
    changed = True
    while changed:
        changed = False
        # popped and put back in order, so the dimensions stay ascending
        for d in list(entries):
            cells, faces, unit = entries.pop(d)
            alive = live[d][cells] & live[d - 1][faces]
            cells, faces, unit = cells[alive], faces[alive], unit[alive]
            if not len(cells):
                continue
            entries[d] = cells, faces, unit
            pick = np.flatnonzero(unit & (np.bincount(cells, minlength=sizes[d])[cells] == 1))
            pick = pick[_once(faces[pick], sizes[d - 1])]
            live[d][cells[pick]] = False
            live[d - 1][faces[pick]] = False
            changed |= len(pick) > 0
    return live


def _columns(arrays, cells: np.ndarray, rows: np.ndarray, n_rows: int) -> list[dict[int, int]]:
    """The boundary of the given cells on the given rows, these numbered
    consecutively, as sparse columns."""
    indptr, faces, coeffs = arrays
    number = np.full(n_rows, -1)
    number[rows] = np.arange(len(rows))
    cols = []
    for a, b in zip(indptr[cells].tolist(), indptr[cells + 1].tolist()):
        row = number[faces[a:b]]
        cols.append(dict(zip(row[row >= 0].tolist(), coeffs[a:b][row >= 0].tolist())))
    return cols


def homology_of(complex_like, reduced: bool = True, max_dim: int | None = None) -> HomologyResult:
    """Integral homology of any CellComplex, read off its boundary arrays.
    Reduced homology augments dimension 0 by the sum of vertex
    coefficients.  The complex is checked whole, then unit pairs are
    removed and the boundary of the cells left is put in Smith normal form."""
    top = complex_like.dim
    if max_dim is not None:
        top = min(top, max_dim)
    # one extra boundary map keeps the top reported row correct when the
    # table is truncated below the dimension of the complex
    deep = min(complex_like.dim, top + 1)
    sizes = {d: complex_like.n_cells(d) for d in range(deep + 1)}
    arrays = {d: complex_like.boundary_arrays(d) for d in range(1, deep + 1)}
    if max((int(np.abs(c).max(initial=0)) for _, _, c in arrays.values()), default=0) > 1 << 16:
        # products and sums of such coefficients may leave int64; Python integers do not
        arrays = {d: (ip, f, c.astype(object)) for d, (ip, f, c) in arrays.items()}
    for d, (_, faces, _) in arrays.items():
        if len(faces) and not 0 <= faces.min() <= faces.max() < sizes[d - 1]:
            raise InvalidComplexError(f"a face of a {d}-cell is not a cell of dimension {d - 1}")
    for d in range(2, deep + 1):
        _check_squares_to_zero(arrays[d], arrays[d - 1], sizes[d - 2], d)
    # the coefficients of each edge sum to zero
    sums = np.concatenate([[0], np.cumsum(arrays[1][2])])[arrays[1][0]] if 1 in arrays else np.zeros(1)
    augmented = not np.diff(sums).any()
    if reduced and not augmented:
        raise InvalidComplexError("an edge boundary does not augment to zero")
    # the empty cell, the one face of every vertex; unreduced homology of an
    # augmented nonempty complex is reduced homology plus one Z in H_0
    empty_cell = bool(sizes) and (reduced or (augmented and sizes[0] > 0))
    if empty_cell:
        sizes[-1] = 1
        arrays[0] = (np.arange(sizes[0] + 1), np.zeros(sizes[0], dtype=np.int64), np.ones(sizes[0], dtype=np.int64))
    kept = {d: np.flatnonzero(flags) for d, flags in _coreduce(arrays, sizes).items()}
    # a boundary map with no cell on one side has no invariant factor
    factors = {
        d: smith_normal_form((len(kept[d - 1]), _columns(arrays[d], kept[d], kept[d - 1], sizes[d - 1])))
        for d in arrays
        if len(kept[d]) and len(kept[d - 1])
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
