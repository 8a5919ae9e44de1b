"""Order complexes: the nerve of a finite poset as a regular complex.

Cells of dimension d are the (d+1)-element chains of the poset, stored
explicitly with stable per-dimension indices.  The distinguished empty
cell (the bottom of the face poset) is never stored; matchings and chain
complexes both live on the nonempty cells.

CellComplex is the one chain-complex protocol: the nerve, its quotients
(perm.QuotientComplex), hand-built fixtures and Morse complexes each
supply the raw faces of a cell and inherit everything else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .setpart import Partition, parse_partition


class InvalidPosetError(ValueError):
    """The supplied order relation is not a strict partial order."""


@dataclass(frozen=True)
class Simplex:
    """A cell of an order complex: a strictly increasing chain of partitions."""

    vertices: tuple[Partition, ...]

    def __post_init__(self):
        for a, b in zip(self.vertices, self.vertices[1:]):
            if a == b or not a.refines(b):
                raise ValueError(f"not a strictly increasing chain: {a} !< {b}")

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    def __str__(self) -> str:
        return " < ".join(str(v) for v in self.vertices)

    def __iter__(self):
        return iter(self.vertices)


def parse_simplex(text: str, n: int | None = None) -> Simplex:
    parts = tuple(parse_partition(chunk.strip(), n) for chunk in text.split("<"))
    return Simplex(parts)


class CellComplex:
    """A finite chain complex on numbered cells.

    The cells of dimension d are 0..n_cells(d)-1.  A subclass passes the
    cell counts per dimension and implements only _boundary(d, i), the
    raw (face index, coefficient) pairs of cell (d, i) for d >= 1, in
    which a face may repeat; every other boundary view is derived here.
    """

    def __init__(self, sizes):
        self._sizes = tuple(sizes)
        self._face_lists: list[list | None] = [None] * len(self._sizes)

    def _boundary(self, d: int, i: int):
        raise NotImplementedError

    @property
    def dim(self) -> int:
        return len(self._sizes) - 1

    def n_cells(self, d: int) -> int:
        if 0 <= d < len(self._sizes):
            return self._sizes[d]
        return 0

    def f_vector(self) -> tuple[int, ...]:
        return self._sizes

    def total_cells(self) -> int:
        return sum(self._sizes)

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * size for d, size in enumerate(self._sizes))

    def faces(self, d: int, i: int) -> tuple[tuple[int, int], ...]:
        """Codimension-1 faces of cell (d, i) as (index, coefficient)
        pairs: repeated faces are merged into one coefficient, zero
        coefficients are dropped, and faces keep their first-occurrence
        order.  Columns are cached per dimension."""
        if d == 0:
            return ()
        layer = self._face_lists[d]
        if layer is None:
            layer = self._face_lists[d] = [None] * self._sizes[d]
        col = layer[i]
        if col is None:
            acc: dict[int, int] = {}
            for j, c in self._boundary(d, i):
                acc[j] = acc.get(j, 0) + c
            col = layer[i] = tuple((j, c) for j, c in acc.items() if c)
        return col

    def boundary_columns(self, d: int) -> list[dict[int, int]]:
        """Boundary map in dimension d as sparse columns (row -> coefficient)."""
        return [dict(self.faces(d, i)) for i in range(self.n_cells(d))]

    def boundary_matrix(self, d: int) -> np.ndarray:
        if not 1 <= d <= self.dim:
            raise ValueError(f"dimension {d} out of range 1..{self.dim}")
        mat = np.zeros((self.n_cells(d - 1), self.n_cells(d)), dtype=np.int64)
        for i in range(self.n_cells(d)):
            for j, c in self.faces(d, i):
                mat[j, i] = c
        return mat


class OrderComplex(CellComplex):
    """The nerve of a finite poset, with per-dimension cell indexing.

    `elements` is the ground poset in its canonical enumeration order;
    `less` is the strict order as a boolean matrix over element indices.
    Cells are tuples of element indices, listed in increasing poset order
    along the chain and sorted lexicographically within each dimension.
    The k-th face of a cell drops vertex k and carries sign (-1)^k.
    """

    def __init__(self, elements, less: np.ndarray):
        self.elements = list(elements)
        m = len(self.elements)
        less = np.asarray(less, dtype=bool)
        if less.shape != (m, m):
            raise InvalidPosetError(f"relation shape {less.shape} != ({m}, {m})")
        if less.trace() > 0 or (less & less.T).any():
            raise InvalidPosetError("relation is not antisymmetric and irreflexive")
        reach = (less.astype(np.int64) @ less.astype(np.int64)) > 0
        if (reach & ~less).any():
            raise InvalidPosetError("relation is not transitive")
        self.less = less
        above = [np.nonzero(less[i])[0].tolist() for i in range(m)]

        cells: list[list[tuple[int, ...]]] = [[(i,) for i in range(m)]] if m else []
        frontier = cells[0] if m else []
        while frontier:
            nxt = []
            for chain in frontier:
                last = chain[-1]
                for j in above[last]:
                    nxt.append(chain + (j,))
            if nxt:
                cells.append(nxt)
            frontier = nxt
        self.cells = cells
        self.index = [{c: i for i, c in enumerate(layer)} for layer in cells]
        self.element_index = {p: i for i, p in enumerate(self.elements)}
        super().__init__(len(layer) for layer in cells)

    @classmethod
    def from_poset(cls, elements, less=None) -> "OrderComplex":
        """Build from an element list and a strict-order predicate.

        With no predicate the elements must be partitions, ordered by
        proper refinement.
        """
        if less is None:
            less = lambda p, q: p != q and p.refines(q)
        m = len(elements)
        rel = np.zeros((m, m), dtype=bool)
        for i, p in enumerate(elements):
            for j, q in enumerate(elements):
                if i != j and less(p, q):
                    rel[i, j] = True
        return cls(elements, rel)

    def locate(self, chain) -> tuple[int, int]:
        """Cell id of a chain given as vertex indices or as a Simplex."""
        if isinstance(chain, Simplex):
            chain = tuple(self.element_index[v] for v in chain)
        d = len(chain) - 1
        if d >= len(self.cells) or chain not in self.index[d]:
            raise KeyError(f"chain {chain} is not a cell of this complex")
        return d, self.index[d][chain]

    def simplex(self, d: int, i: int) -> Simplex:
        return Simplex(tuple(self.elements[v] for v in self.cells[d][i]))

    def cell_label(self, d: int, i: int) -> str:
        return " < ".join(str(self.elements[v]) for v in self.cells[d][i])

    def _boundary(self, d: int, i: int):
        chain = self.cells[d][i]
        idx = self.index[d - 1]
        return ((idx[chain[:k] + chain[k + 1:]], -1 if k % 2 else 1) for k in range(len(chain)))

    # bound in the class body: the per-layer tracer in perfbench/ wraps
    # OrderComplex.__dict__["boundary_columns"] and fails without it
    boundary_columns = CellComplex.boundary_columns


class ExplicitComplex(CellComplex):
    """A small regular complex given by explicit cell names and face lists.

    Used for complexes that are not nerves of posets (test fixtures,
    hand-built examples, Morse complexes).  `face_lists[d][i]` lists
    (face index, coefficient) pairs for cell i of dimension d, a face
    possibly repeated; dimension 0 needs no entry.
    """

    def __init__(self, labels: list[list[str]], face_lists: list[list[list[tuple[int, int]]]]):
        if len(face_lists) != max(len(labels) - 1, 0):
            raise ValueError("face lists must cover every dimension above 0")
        self.labels = labels
        self._raw_faces = [None, *face_lists]
        super().__init__(len(layer) for layer in labels)

    def cell_label(self, d: int, i: int) -> str:
        return self.labels[d][i]

    def _boundary(self, d: int, i: int):
        return self._raw_faces[d][i]


def proper_part_complex(n: int) -> OrderComplex:
    """The nerve of the proper part of the partition lattice of {1,...,n}."""
    from .setpart import enumerate_proper

    return OrderComplex.from_poset(enumerate_proper(n))
