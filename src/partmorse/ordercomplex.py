"""Order complexes: the nerve of a finite poset as a regular complex.

Cells of dimension d are the (d+1)-element chains of the poset, stored
explicitly with stable per-dimension indices.  The distinguished empty
cell (the bottom of the face poset) is never stored; matchings and chain
complexes both live on the nonempty cells.

Each layer is enumerated once, as a prefix tree of two int32 arrays: a
chain of dimension d is its prefix chain parent[d][i] of dimension d-1
followed by the vertex last[d][i] (parent[0] is all zeros, the empty
chain), and the chain tuples are read off these arrays.  Layers are
lexicographic, so the int64 codes parent*m + last increase strictly, and
find locates chains by binary search on them, in bulk.  face_table goes
through it, and so does map_chains, which carries every cell along a
vertex map: a group element, or the lift from one size to the next.  A
code of dimension d is below N_{d-1} * m; at n = 8 (m = 4138, f-vector
4138, 155477, 1208830, 3394790, 3919860, 1587600) that is at most
3919860 * 4138 < 1.7e10, far below the int64 limit, and every cell index
fits in int32.

CellComplex is the one chain-complex protocol: the nerve, its quotients
(perm.QuotientComplex), hand-built fixtures and Morse complexes each
supply the raw faces of a cell and inherit everything else; the nerve
also reads the incidences a matching needs off face_table, in bulk.
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

    def incidence(self, d: int, cells, faces) -> np.ndarray:
        """Coefficients [cells[k] : faces[k]] for cells of dimension d >= 1,
        0 where faces[k] is not a face; read off faces cell by cell."""
        cols = (dict(self.faces(d, i)) for i in np.asarray(cells).tolist())
        return np.array([col.get(y, 0) for col, y in zip(cols, np.asarray(faces).tolist())], dtype=np.int64)

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


class _ChainIndex:
    """index[d] maps each chain of dimension d to its position.  The dict
    for a dimension is built on first lookup: boundaries and quotients
    read the prefix tree instead, so the homology of a quotient builds
    none of them."""

    def __init__(self, cells):
        self._cells = cells
        self._maps: list[dict | None] = [None] * len(cells)

    def __len__(self) -> int:
        return len(self._cells)

    def __getitem__(self, d: int) -> dict[tuple[int, ...], int]:
        found = self._maps[d]
        if found is None:
            found = self._maps[d] = {c: i for i, c in enumerate(self._cells[d])}
        return found


class OrderComplex(CellComplex):
    """The nerve of a finite poset, with per-dimension cell indexing.

    `elements` is the ground poset in its canonical enumeration order;
    `less` is the strict order as a boolean matrix over element indices.
    Cells are tuples of element indices, listed in increasing poset order
    along the chain and sorted lexicographically within each dimension;
    parent[d] and last[d] give the same layer as a prefix tree.
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
        # transitive iff everything above an element's successors is above it
        for i in range(m):
            if (less[less[i]] & ~less[i]).any():
                raise InvalidPosetError("relation is not transitive")
        self.less = less
        succ = np.nonzero(less)[1].astype(np.int32)
        deg = less.sum(axis=1)
        start = np.cumsum(deg) - deg

        # each new layer extends every chain of the last by one vertex above
        # its top; succ[start[v]:start[v] + deg[v]] lists the vertices above v
        cells: list[list[tuple[int, ...]]] = []
        parent: list[np.ndarray] = []
        last: list[np.ndarray] = []
        if m:
            cells.append([(i,) for i in range(m)])
            parent.append(np.zeros(m, dtype=np.int32))
            last.append(np.arange(m, dtype=np.int32))
        while last and deg[last[-1]].any():
            counts = deg[last[-1]]
            offset = np.repeat(start[last[-1]] - (np.cumsum(counts) - counts), counts)
            parent.append(np.repeat(np.arange(len(counts), dtype=np.int32), counts))
            last.append(succ[offset + np.arange(len(offset))])
            # memoryviews yield one int at a time instead of whole lists of
            # them, and the singletons of cells[0] share one int per vertex
            prefixes, singles = cells[-1], cells[0]
            cells.append([prefixes[p] + singles[v] for p, v in zip(memoryview(parent[-1]), memoryview(last[-1]))])
        self.cells = cells
        self.parent = parent
        self.last = last
        self.index = _ChainIndex(cells)
        self.element_index = {p: i for i, p in enumerate(self.elements)}
        super().__init__(len(layer) for layer in cells)

    @classmethod
    def from_poset(cls, elements, less) -> "OrderComplex":
        """Build from an element list and a strict-order predicate."""
        m = len(elements)
        rel = np.zeros((m, m), dtype=bool)
        for i, p in enumerate(elements):
            for j, q in enumerate(elements):
                if i != j and less(p, q):
                    rel[i, j] = True
        return cls(elements, rel)

    def fold(self, vkey: np.ndarray, combine) -> list[np.ndarray]:
        """Per-dimension arrays folded along the prefix tree: a chain's entry
        combines its prefix chain's with vkey of its last vertex."""
        out = [vkey[self.last[0]]]
        for d in range(1, self.dim + 1):
            out.append(combine(out[d - 1][self.parent[d]], vkey[self.last[d]]))
        return out

    def cell_codes(self, d: int) -> np.ndarray:
        """Strictly increasing int64 keys parent*m + last of the cells of
        dimension d, in cell order; every key is below N_{d-1} * m."""
        return self.parent[d].astype(np.int64) * len(self.elements) + self.last[d]

    def find(self, d: int, prefix: np.ndarray, vertex: np.ndarray) -> np.ndarray:
        """Indices of the cells of dimension d that extend the chains
        prefix (indices in dimension d-1; zeros for d = 0) by vertex;
        each such chain must be a cell."""
        return np.searchsorted(self.cell_codes(d), prefix.astype(np.int64) * len(self.elements) + vertex)

    def map_chains(self, vmap: np.ndarray, target: "OrderComplex | None" = None, start: int | None = None):
        """Yield, for d = 0..dim, an int32 array holding for each cell of
        dimension d the index in target (default: this complex) of its
        image chain: vmap applied to every vertex, with the target vertex
        start prepended when given, which raises the dimension by one.
        A chain's image is its prefix's image extended by the image of its
        last vertex, img[d] = target.find(d, img[d-1][parent[d]], vmap[last[d]]),
        so vmap must send chains to chains; nothing here checks that."""
        target = self if target is None else target
        shift = 0 if start is None else 1
        img = np.array([start or 0], dtype=np.int32)
        for d in range(self.dim + 1):
            img = target.find(d + shift, img[self.parent[d]], vmap[self.last[d]]).astype(np.int32)
            yield img

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

    def face_table(self, d: int, cells: np.ndarray) -> np.ndarray:
        """(len(cells), d+1) int32 array whose column k holds, for each of
        the given cells of dimension d >= 1, the index of its face without
        vertex k; computed in bulk from the prefix tree."""
        # prefix[j]: index of the first j+1 vertices of each chain, in dimension j
        prefix = [np.asarray(cells, dtype=np.int32)]
        for j in range(d, 0, -1):
            prefix.insert(0, self.parent[j][prefix[0]])
        verts = [self.last[j][prefix[j]] for j in range(d + 1)]
        table = np.empty((len(prefix[d]), d + 1), dtype=np.int32)
        table[:, d] = prefix[d - 1]
        for k in range(d):
            # start from the chain's first k vertices, then append the ones after vertex k
            face = prefix[k - 1] if k else np.zeros(len(table), dtype=np.int32)
            for j in range(k + 1, d + 1):
                face = self.find(j - 1, face, verts[j])
            table[:, k] = face
        return table

    def incidence(self, d: int, cells, faces) -> np.ndarray:
        """CellComplex.incidence from face_table, the face without vertex k
        signed (-1)^k; a chain's faces are distinct, so at most one matches."""
        hit = self.face_table(d, cells) == np.asarray(faces)[:, None]
        return np.where(hit.any(axis=1), 1 - 2 * (hit.argmax(axis=1) % 2), 0)

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

    elements = enumerate_proper(n)
    rgs = np.array([p.rgs for p in elements], dtype=np.int8)
    # first[p, e]: the first element of e's block in p (blocks are numbered
    # by first appearance, so block b starts where the label b first occurs)
    starts = np.argmax(rgs[:, None, :] == np.arange(n, dtype=np.int8)[:, None], axis=2)
    first = np.take_along_axis(starts, rgs.astype(np.intp), axis=1)
    # p refines q iff q's block labels are constant on the blocks of p
    rel = np.empty((len(elements), len(elements)), dtype=bool)
    for i in range(len(elements)):
        rel[i] = (rgs[:, first[i]] == rgs).all(axis=1)
    np.fill_diagonal(rel, False)
    return OrderComplex(elements, rel)
