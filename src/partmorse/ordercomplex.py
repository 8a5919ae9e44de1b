"""Order complexes: the nerve of a finite poset as a regular complex.

Cells of dimension d are the (d+1)-element chains of the poset, with
stable per-dimension indices; the empty cell is never stored.  The nerve
is its prefix tree alone, two int32 arrays per layer: a chain of
dimension d is its prefix chain parent[d][i] of dimension d-1 followed
by the vertex last[d][i] (parent[0] is all zeros, the empty chain).  No
chain is kept as a tuple; chains reads the vertex rows of the cells
asked for.  Layers are lexicographic: the extensions of a chain form one
run of the next layer, after those of every chain before it, ordered by
their last vertex.  So find locates chains in bulk by two gathers: the
start of the prefix's run, kept per layer from the build (one int32 per
cell of the prefix layer), plus the rank of the vertex among the
vertices above the prefix's top, read off a flat m x m table scattered
from the pairs of the order (uint8 while no vertex has more than 256
above it, as up to n = 7; uint16 at n = 8, 34 MB) at an int32 index,
which bounds m to 46340.  find is the nerve's one chain lookup:
face_table reads face k < d of a chain as face k of its prefix extended
by its last vertex, one find per table (a face that keeps the prefix's
top keeps the cell's rank in its run); locate folds find along a chain
once its vertices are checked; and map_chains carries every cell along a
group element's vertex map, one find per dimension.  At n = 8 (m = 4138,
f-vector 4138, 155477, 1208830, 3394790, 3919860, 1587600) every cell
index fits in int32.

Every 1-D gather by an integer index array (a layer read at the cells'
prefixes or last vertices, the rank table at the flat index) is
ndarray.take, not a subscript: a subscript casts an int32 index to intp
and takes numpy's general indexing path, which on a layer of 10^5 cells
costs about twice as much as take.  take treats a boolean array as 0s
and 1s, so masks stay subscripts, and so does 2-D indexing.

The order is listed once as its pairs i < j (layer 1) and then read at
them and at the 2-chains, flat at i * m + j in int32 (related).  It is
irreflexive and antisymmetric iff no pair's reverse holds, and, checked
once layer 2 is built, transitive iff i < k for every 2-chain i < j < k;
a failure names its first loop, pair or triple.  proper_part_complex
builds the refinement order of the proper part of the partition lattice
from same-block pair bitmasks, p < q iff p != q and p's mask is a subset
of q's, in blocks of rows.

The nerve of the partition lattice keeps its vertices as labels, their
(m, n) int32 restricted-growth table; the Partition elements are made on
first use, and cell labels are formatted from the rows.  A complex built
from partitions derives its labels from them.  The pair mask is the one
key of a partition: locate_labels finds rows that number blocks in any
way by their masks among the elements' masks, sorted once.

CellComplex is the one chain-complex protocol: each complex supplies its
boundary per dimension as compressed-row arrays (indptr, faces, coeffs)
and inherits every other view.  The nerve and its quotients
(perm.QuotientComplex, trees.TreeQuotient) are FaceTableComplexes, which
derive those arrays from a face table of fixed width d+1; hand-built
fixtures are ExplicitComplexes, which build them once, and the Morse
complex morse.MorseData keeps them, read once off its Morse boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import cycle
from numbers import Integral

import numpy as np

from .setpart import Partition, format_rgs, parse_partition, proper_rgs


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


def distinct(values) -> np.ndarray:
    """The sorted distinct entries of an array, raveled, in its dtype: one
    sort, then one np.not_equal of neighbours into a preallocated mask."""
    values = np.sort(values, axis=None)
    keep = np.empty(len(values), dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def entry_cells(indptr: np.ndarray) -> np.ndarray:
    """The cell of each entry of boundary arrays with this indptr."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def entry_positions(indptr: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Positions of the entries of the given cells, cell after cell."""
    counts = indptr[cells + 1] - indptr[cells]
    return np.repeat(indptr[cells] - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())


class CellComplex:
    """A finite chain complex on numbered cells.

    The cells of dimension d are 0..n_cells(d)-1.  A subclass passes the
    cell counts per dimension and implements boundary_arrays(d), the
    boundary of every cell of dimension d in compressed-row form; every
    other boundary view is derived here.
    """

    def __init__(self, sizes):
        self._sizes = tuple(sizes)

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

    def cell_labels(self, d: int, cells) -> list[str]:
        """cell_label of each of the given cells of dimension d."""
        return [self.cell_label(d, i) for i in np.asarray(cells).tolist()]

    def boundary_arrays(self, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, faces, coeffs) for 0 <= d <= dim: the codimension-1
        faces of cell (d, i) are faces[indptr[i]:indptr[i+1]], each once,
        with the nonzero int64 coefficients at the same places."""
        raise NotImplementedError

    def faces(self, d: int, i: int) -> tuple[tuple[int, int], ...]:
        """The faces of cell (d, i) as (index, coefficient) pairs."""
        indptr, faces, coeffs = self.boundary_arrays(d)
        a, b = indptr[i], indptr[i + 1]
        return tuple(zip(faces[a:b].tolist(), coeffs[a:b].tolist()))

    def incidence(self, d: int, cells, faces) -> np.ndarray:
        """Coefficients [cells[k] : faces[k]] for cells of dimension d >= 1,
        0 where faces[k] is not a face; read off faces cell by cell."""
        cols = (dict(self.faces(d, i)) for i in np.asarray(cells).tolist())
        return np.array([col.get(y, 0) for col, y in zip(cols, np.asarray(faces).tolist())], dtype=np.int64)

    def boundary_columns(self, d: int) -> list[dict[int, int]]:
        """Boundary map in dimension d as sparse columns (row -> coefficient)."""
        indptr, faces, coeffs = (a.tolist() for a in self.boundary_arrays(d))
        return [dict(zip(faces[a:b], coeffs[a:b])) for a, b in zip(indptr, indptr[1:])]


class FaceTableComplex(CellComplex):
    """A complex whose cell (d, i) has d+1 distinct faces, the k-th of sign
    (-1)^k: the nerve and its quotients.  A subclass lists them in bulk as
    face_table(d, cells), a (len(cells), d+1) int array whose column k
    holds the k-th face of each of the given cells of dimension d >= 1.
    Faces, boundary arrays and incidences are read off that table; the
    table of a whole dimension, face_array(d), is built once and kept."""

    def __init__(self, sizes):
        super().__init__(sizes)
        self._face_tables: dict[int, np.ndarray] = {}

    def face_array(self, d: int) -> np.ndarray:
        """face_table of every cell of dimension d, built on first use and kept."""
        if d not in self._face_tables:
            n = self.n_cells(d)
            self._face_tables[d] = self.face_table(d, np.arange(n)) if d else np.empty((n, 0), dtype=np.int32)
        return self._face_tables[d]

    def face_rows(self, d: int, cells) -> np.ndarray:
        """face_table(d, cells), read off face_array(d) once that is built."""
        table = self._face_tables.get(d)
        return self.face_table(d, cells) if table is None else table[cells]

    def faces(self, d: int, i: int) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.face_array(d)[i].tolist(), cycle((1, -1))))

    def boundary_arrays(self, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fixed width d+1 with coefficients (-1)^k, read off the face table."""
        table = self.face_array(d)
        n, width = table.shape
        return np.arange(n + 1, dtype=np.int64) * width, table.ravel(), np.tile(1 - 2 * (np.arange(width) % 2), n)

    def incidence(self, d: int, cells, faces) -> np.ndarray:
        """CellComplex.incidence from the face rows; a cell's faces are
        distinct, so at most one matches."""
        hit = self.face_rows(d, cells) == np.asarray(faces)[:, None]
        return np.where(hit.any(axis=1), 1 - 2 * (hit.argmax(axis=1) % 2), 0)


class OrderComplex(FaceTableComplex):
    """The nerve of a finite poset, with per-dimension cell indexing.

    `elements` is the ground poset in its canonical enumeration order,
    given as a list or, for a poset of partitions, as `labels`, the int32
    table of their restricted-growth strings (elements is then None);
    `less` is the strict order as a boolean matrix over element indices.
    A cell is a chain of element indices, listed in increasing poset order
    and sorted lexicographically within each dimension, and is stored only
    as the prefix tree parent[d], last[d]; chains(d) reads its vertices.
    The k-th face of a cell drops vertex k and carries sign (-1)^k.
    """

    def __init__(self, elements, less: np.ndarray, labels: np.ndarray | None = None):
        if elements is not None:
            self.elements = list(elements)
        elif labels is None:
            raise ValueError("an order complex needs its elements or their labels")
        else:
            self.labels = np.asarray(labels, dtype=np.int32)
        m = len(self.elements if elements is not None else self.labels)
        if m * m >= 2**31:
            raise ValueError(f"{m} elements: the rank table index t * m + v would overflow int32")
        less = np.ascontiguousarray(less, dtype=bool)
        if less.shape != (m, m):
            raise InvalidPosetError(f"relation shape {less.shape} != ({m}, {m})")
        self.less = less
        # the pairs i < j, row by row: the 1-cells of the nerve
        flat = np.flatnonzero(less).astype(np.int32)
        below, above = np.divmod(flat, m)
        loops, twice = np.flatnonzero(less.diagonal()), np.flatnonzero(self.related(above, below))
        if len(loops) or len(twice):
            i, j = (loops[0], loops[0]) if len(loops) else (below[twice[0]], above[twice[0]])
            cause = f"{i} < {i}" if i == j else f"{i} < {j} and {j} < {i}"
            raise InvalidPosetError(f"relation is not antisymmetric and irreflexive: {cause}")
        deg = np.bincount(below, minlength=m).astype(np.int32)
        start = np.cumsum(deg, dtype=np.int32) - deg

        # each new layer extends every chain of the last by one vertex above
        # its top; above[start[v]:start[v] + deg[v]] lists the vertices above
        # v, and first[d][p] is where the run of the extensions of the chain
        # p of layer d-1 starts in layer d (the empty chain's run is layer 0)
        parent: list[np.ndarray] = []
        last: list[np.ndarray] = []
        first: list[np.ndarray] = []
        if m:
            parent.append(np.zeros(m, dtype=np.int32))
            last.append(np.arange(m, dtype=np.int32))
            first.append(np.zeros(1, dtype=np.int32))
        while last:
            # transitive iff i < k for every 2-chain i < j < k, checked before
            # layer 3, which a cycle would never end; the first bad one is least
            if len(last) == 3:
                ok = self.related(parent[1].take(parent[2]), last[2])
                if not ok.all():
                    c = int(ok.argmin())
                    i, j, k = parent[1][parent[2][c]], last[1][parent[2][c]], last[2][c]
                    raise InvalidPosetError(f"relation is not transitive: {i} < {j} < {k} but not {i} < {k}")
            counts = deg.take(last[-1])
            if not counts.any():
                break
            first.append(np.cumsum(counts, dtype=np.int32))
            first[-1] -= counts
            offset = np.repeat(start.take(last[-1]) - first[-1], counts)
            offset += np.arange(len(offset), dtype=np.int32)
            parent.append(np.repeat(np.arange(len(counts), dtype=np.int32), counts))
            last.append(above.take(offset))
        self.parent = parent
        self.last = last
        self._first = first
        # rank[t * m + v]: the position of v among the vertices above t, in
        # the smallest unsigned type that holds it (uint8 up to n = 7)
        self._rank = np.zeros(m * m, dtype=np.min_scalar_type(max(deg.max(initial=0) - 1, 0)))
        self._rank[flat] = np.arange(len(flat), dtype=np.int32) - start.take(below)
        super().__init__(len(layer) for layer in last)

    @cached_property
    def elements(self) -> list:
        """The partitions of the label rows, made on first use."""
        return [Partition.from_rgs(row) for row in self.labels.tolist()]

    @cached_property
    def labels(self) -> np.ndarray:
        """The (m, n) int32 restricted-growth strings of the elements, which
        must then be partitions of one set."""
        return np.array([p.rgs for p in self.elements], dtype=np.int32)

    @cached_property
    def element_index(self) -> dict:
        return {p: i for i, p in enumerate(self.elements)}

    @cached_property
    def _masks(self) -> tuple[np.ndarray, np.ndarray]:
        """The pair masks of the elements, sorted, and the element of each."""
        masks = pair_masks(self.labels)
        order = np.argsort(masks, kind="stable")
        return masks[order], order

    def locate_labels(self, labels) -> np.ndarray:
        """Indices of the vertices whose blocks the rows of labels number in
        any way: each row's pair mask is looked up by binary search among
        the sorted masks of the elements.  Raises ValueError when the rows
        are not as wide as the elements' labels or a row names no element."""
        labels = np.asarray(labels)
        width = self.labels.shape[-1]
        if labels.ndim != 2 or labels.shape[1] != width:
            raise ValueError(f"block labels of shape {labels.shape}: rows must have the elements' width {width}")
        masks, order = self._masks
        wanted = pair_masks(labels)
        found = np.minimum(np.searchsorted(masks, wanted), len(masks) - 1)
        missing = np.flatnonzero(masks[found] != wanted)
        if len(missing):
            raise ValueError(f"block labels {labels[missing[0]].tolist()} name no element of the poset")
        return order[found]

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The pairs i < j of the order in row order: layer 1, (parent[1], last[1])."""
        return (self.parent[1], self.last[1]) if self.dim > 0 else (np.zeros(0, dtype=np.int32),) * 2

    def related(self, below, above) -> np.ndarray:
        """Whether below[e] < above[e]: less read flat at below * m + above in int32."""
        flat = np.multiply(below, len(self.less), dtype=np.int32)
        flat += above
        return self.less.ravel().take(flat)

    def fold(self, vkey: np.ndarray, combine) -> list[np.ndarray]:
        """Per-dimension arrays folded along the prefix tree: a chain's entry
        combines its prefix chain's with vkey of its last vertex."""
        out = [vkey.take(self.last[0])]
        for d in range(1, self.dim + 1):
            out.append(combine(out[d - 1].take(self.parent[d]), vkey.take(self.last[d])))
        return out

    def chains(self, d: int, cells=None) -> np.ndarray:
        """(len(cells), d+1) int32 array of the vertices of the given cells
        of dimension d (default: all), read down the prefix tree."""
        idx = np.arange(self.n_cells(d)) if cells is None else np.asarray(cells, dtype=np.intp)
        out = np.empty((len(idx), d + 1), dtype=np.int32)
        for j in range(d, -1, -1):
            out[:, j] = self.last[j].take(idx)
            idx = self.parent[j].take(idx)
        return out

    def find(self, d: int, prefix: np.ndarray, vertex: np.ndarray) -> np.ndarray:
        """Indices of the cells of dimension d that extend the chains
        prefix (indices in dimension d-1; zeros for d = 0) by vertex; each
        such chain must be a cell.  The extensions of a chain are a run of
        layer d, ordered as the vertices above its top, so the one by v is
        rank[top, v] places after the first.  The run starts are kept per
        layer from the build, so a lookup costs two gathers and one read of
        the flat rank table at top * m + v, in int32."""
        if d == 0:
            return np.asarray(vertex)
        # take always copies, so the in-place steps write into no kept array
        flat = self.last[d - 1].take(prefix)
        flat *= len(self.less)
        flat += vertex
        found = self._first[d].take(prefix)
        found += self._rank.take(flat)
        return found

    def map_chains(self, vmap: np.ndarray):
        """Yield, for d = 0..dim, an int32 array holding for each cell of
        dimension d the index of its image chain, vmap applied to every
        vertex.  A chain's image is its prefix's image extended by the image
        of its last vertex, img[d] = find(d, img[d-1][parent[d]], vmap[last[d]]),
        so vmap must send chains to chains; nothing here checks that."""
        vmap = np.asarray(vmap, dtype=np.int32)
        img = np.zeros(1, dtype=np.int32)
        for d in range(self.dim + 1):
            img = self.find(d, img.take(self.parent[d]), vmap.take(self.last[d])).astype(np.int32, copy=False)
            yield img

    def locate(self, chain) -> tuple[int, int]:
        """Cell id of a chain given as vertex indices or as a Simplex, else
        KeyError: the chain must be non-empty, its vertices integers in
        range, each less than the next; find then extends it vertex by
        vertex from the empty chain."""
        if isinstance(chain, Simplex):
            chain = [self.element_index[v] for v in chain]
        chain, m = tuple(chain), len(self.less)
        if not (
            chain
            and all(isinstance(v, Integral) and 0 <= v < m for v in chain)
            and all(self.less[a, b] for a, b in zip(chain, chain[1:]))
        ):
            raise KeyError(f"chain {chain} is not a cell of this complex")
        i = 0
        for d, v in enumerate(chain):
            i = self.find(d, i, v)
        return len(chain) - 1, int(i)

    def simplex(self, d: int, i: int) -> Simplex:
        return Simplex(tuple(self.elements[v] for v in self.chains(d, [i])[0].tolist()))

    def cell_label(self, d: int, i: int) -> str:
        return self.cell_labels(d, [i])[0]

    @cached_property
    def _names(self) -> list[str]:
        """The element strings, made once, when a label is first asked for;
        formatted from the label rows unless the complex was built from
        its elements."""
        if "elements" in self.__dict__:
            return [str(p) for p in self.elements]
        return [format_rgs(row) for row in self.labels.tolist()]

    def cell_labels(self, d: int, cells) -> list[str]:
        names = self._names
        return [" < ".join([names[v] for v in row]) for row in self.chains(d, cells).tolist()]

    def face_table(self, d: int, cells: np.ndarray) -> np.ndarray:
        """(len(cells), d+1) int32 array whose column k holds, for each of
        the given cells of dimension d >= 1, the index of its face without
        vertex k: face d is the prefix, and face k < d is face k of the
        prefix (the empty chain at d = 1) extended by the last vertex, one
        find for k = d-1; face k < d-1 keeps the prefix's top, so it lies as
        far into its run as the cell into its own.  The prefixes' faces come
        from face_rows, read off face_array(d-1) once that is kept."""
        prefix = self.parent[d].take(cells)
        below = self.face_rows(d - 1, prefix) if d > 1 else np.zeros((len(prefix), 1), dtype=np.int32)
        table = np.empty((len(prefix), d + 1), dtype=np.int32)
        table[:, d] = prefix
        table[:, d - 1] = self.find(d - 1, below[:, d - 1], self.last[d].take(cells))
        rank = cells - self._first[d].take(prefix)
        for k in range(d - 1):
            table[:, k] = self._first[d - 1].take(below[:, k]) + rank
        return table

    # bound in the class body: the per-layer tracer in perfbench/ wraps
    # OrderComplex.__dict__["boundary_columns"] and fails without it
    boundary_columns = FaceTableComplex.boundary_columns


class ExplicitComplex(CellComplex):
    """A small regular complex given by explicit cell names and face lists.

    Used for complexes that are not nerves of posets (test fixtures,
    hand-built examples).  `face_lists[d][i]` lists
    (face index, coefficient) pairs for cell i of dimension d; repeated
    faces merge into one coefficient, zeros drop, and faces keep their
    first-occurrence order.  Dimension 0 needs no entry.  The merged
    faces are kept as boundary_arrays, built once.
    """

    def __init__(self, labels: list[list[str]], face_lists: list[list[list[tuple[int, int]]]]):
        if len(face_lists) != max(len(labels) - 1, 0):
            raise ValueError("face lists must cover every dimension above 0")
        self.labels = labels
        vertices = [[[]] * len(layer) for layer in labels[:1]]  # no faces
        self._arrays = [_rows(columns) for columns in vertices + face_lists]
        super().__init__(len(layer) for layer in labels)

    def cell_label(self, d: int, i: int) -> str:
        return self.labels[d][i]

    def boundary_arrays(self, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._arrays[d]


def _rows(columns) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """boundary_arrays of a list of (face, coefficient) lists, with repeated
    faces merged in first-occurrence order and zeros dropped."""
    merged = []
    for col in columns:
        acc: dict[int, int] = {}
        for j, c in col:
            acc[j] = acc.get(j, 0) + c
        merged.append([(j, c) for j, c in acc.items() if c])
    indptr = np.cumsum([0] + [len(col) for col in merged], dtype=np.int64)
    return (indptr, *np.array([e for col in merged for e in col], dtype=np.int64).reshape(-1, 2).T)


def pair_masks(labels: np.ndarray) -> np.ndarray:
    """The same-block pair bitmask of each row of block labels (such as
    restricted-growth strings) of {1,...,n}: bit k is set iff the k-th pair
    a < b, in the order of np.triu_indices(n, 1), lies in one block.  A
    partition refines another iff its mask is a subset of the other's.
    uint32 up to 32 pairs (n <= 8), uint64 up to 64 (n <= 11)."""
    labels = np.asarray(labels)
    a, b, bits = _pair_bits(labels.shape[1])
    return np.bitwise_or.reduce((labels[:, a] == labels[:, b]) * bits, axis=1)


@lru_cache(maxsize=None)
def _pair_bits(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs a < b of pair_masks for width n and their bit weights,
    made once per width and read-only, as every caller shares them."""
    a, b = np.triu_indices(n, 1)
    if len(a) > 64:
        raise ValueError(f"{len(a)} pairs do not fit in a 64-bit mask")
    dtype = np.uint32 if len(a) <= 32 else np.uint64
    out = a, b, np.left_shift(dtype(1), np.arange(len(a), dtype=dtype))
    for x in out:
        x.flags.writeable = False
    return out


def proper_part_complex(n: int) -> OrderComplex:
    """The nerve of the proper part of the partition lattice of {1,...,n},
    built from its restricted-growth table.  p < q iff p != q and p's pair
    mask is a subset of q's, computed in blocks of rows of at most 2^16
    mask words."""
    labels = proper_rgs(n)
    masks = pair_masks(labels)
    outside = ~masks
    rel = np.empty((len(masks), len(masks)), dtype=bool)
    step = max((1 << 16) // max(len(masks), 1), 1)
    for r in range(0, len(masks), step):
        np.equal(masks[r : r + step, None] & outside, 0, out=rel[r : r + step])
    np.fill_diagonal(rel, False)
    return OrderComplex(None, rel, labels)
