"""Order complexes: the nerve of a finite poset as a regular complex.

Cells of dimension d are the (d+1)-element chains of the poset, stored
explicitly with stable per-dimension indices.  The distinguished empty
cell (the bottom of the face poset) is never stored; matchings and chain
complexes both live on the nonempty cells.
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


class OrderComplex:
    """The nerve of a finite poset, with per-dimension cell indexing.

    `elements` is the ground poset in its canonical enumeration order;
    `less` is the strict order as a boolean matrix over element indices.
    Cells are tuples of element indices, listed in increasing poset order
    along the chain and sorted lexicographically within each dimension.
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
        self._faces_cache: list[list[tuple[tuple[int, int], ...]] | None] = [None] * len(cells)

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

    # -- cell accounting ------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.cells) - 1

    def n_cells(self, d: int) -> int:
        if 0 <= d < len(self.cells):
            return len(self.cells[d])
        return 0

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(layer) for layer in self.cells)

    def total_cells(self) -> int:
        return sum(len(layer) for layer in self.cells)

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(layer) for d, layer in enumerate(self.cells))

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

    # -- boundary -------------------------------------------------------

    def faces(self, d: int, i: int) -> tuple[tuple[int, int], ...]:
        """Codimension-1 faces of cell (d, i) as (index, sign) pairs;
        the k-th entry drops vertex k and carries sign (-1)^k."""
        if d == 0:
            return ()
        cache = self._faces_cache[d]
        if cache is None:
            cache = [() for _ in self.cells[d]]
            self._faces_cache[d] = cache
        if not cache[i]:
            chain = self.cells[d][i]
            idx = self.index[d - 1]
            cache[i] = tuple(
                (idx[chain[:k] + chain[k + 1:]], -1 if k % 2 else 1)
                for k in range(len(chain))
            )
        return cache[i]

    def boundary_columns(self, d: int) -> list[dict[int, int]]:
        """Boundary map in dimension d as sparse columns (row -> entry)."""
        cols = []
        for i in range(self.n_cells(d)):
            col: dict[int, int] = {}
            for j, s in self.faces(d, i):
                col[j] = col.get(j, 0) + s
            cols.append(col)
        return cols

    def boundary_matrix(self, d: int) -> np.ndarray:
        if not 1 <= d <= self.dim:
            raise ValueError(f"dimension {d} out of range 1..{self.dim}")
        mat = np.zeros((self.n_cells(d - 1), self.n_cells(d)), dtype=np.int64)
        for i, col in enumerate(self.boundary_columns(d)):
            for j, v in col.items():
                mat[j, i] = v
        return mat


class ExplicitComplex:
    """A small regular complex given by explicit cell names and face lists.

    Used for complexes that are not nerves of posets (test fixtures,
    hand-built examples).  `face_lists[d][i]` lists (face index, sign)
    pairs for cell i of dimension d; dimension 0 needs no entry.
    """

    def __init__(self, labels: list[list[str]], face_lists: list[list[list[tuple[int, int]]]]):
        self.labels = labels
        self._faces = [[] for _ in labels[:1]] + [
            [tuple(fl) for fl in layer] for layer in face_lists
        ]
        if len(self._faces) != len(labels):
            raise ValueError("face lists must cover every dimension above 0")

    @property
    def dim(self) -> int:
        return len(self.labels) - 1

    def n_cells(self, d: int) -> int:
        if 0 <= d < len(self.labels):
            return len(self.labels[d])
        return 0

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(layer) for d, layer in enumerate(self.labels))

    def cell_label(self, d: int, i: int) -> str:
        return self.labels[d][i]

    def faces(self, d: int, i: int) -> tuple[tuple[int, int], ...]:
        if d == 0:
            return ()
        return self._faces[d][i]

    def boundary_columns(self, d: int) -> list[dict[int, int]]:
        cols = []
        for i in range(self.n_cells(d)):
            col: dict[int, int] = {}
            for j, s in self.faces(d, i):
                col[j] = col.get(j, 0) + s
            cols.append(col)
        return cols

    def boundary_matrix(self, d: int) -> np.ndarray:
        if not 1 <= d <= self.dim:
            raise ValueError(f"dimension {d} out of range 1..{self.dim}")
        mat = np.zeros((self.n_cells(d - 1), self.n_cells(d)), dtype=np.int64)
        for i, col in enumerate(self.boundary_columns(d)):
            for j, v in col.items():
                mat[j, i] = v
        return mat


def proper_part_complex(n: int) -> OrderComplex:
    """The nerve of the proper part of the partition lattice of {1,...,n}."""
    from .setpart import enumerate_proper

    return OrderComplex.from_poset(enumerate_proper(n))
