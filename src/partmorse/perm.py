"""Permutations of {1,...,n}, generated subgroups, and their actions.

A group keeps its elements as one sorted (order, n) int32 table of image
rows (images minus one).  generate closes the generators by breadth-first
search on that table, one gather per round, and finds new products by
sort and binary search on their row codes; no np.unique, whose first
call imports numpy.ma (about 15 ms per process).  Membership is a search
among the row codes; Perm objects for the elements are made only when
elements is read.  Fixed points, subgroup containment, orbits, and
actions on complexes and quotients go through the generators only: a map
that is a poset automorphism for every generator is one for every
product of them, and an orbit is the closure of a point under the
generator images (its stabilizer has order |G| / |orbit|).

A group element acts on the nerve through a vertex map, built from the
complex's restricted-growth table by permuting its columns and locating
the rows (OrderComplex.locate_labels), and then on every cell at once
through OrderComplex.map_chains: per-dimension int32 image arrays, the
image of a chain being its prefix's image extended by the image of its
last vertex.  A generator's vertex map is accepted iff it is a bijection
that sends every 1-cell i < j of the nerve to a pair of the order; for a
bijection that is the same as preserving the whole order, and it reads
less once, flat, at the pairs' images.  ComplexAction keeps the image
arrays for the generators only; other elements are computed when asked
for, not kept for the whole group.  One ComplexAction per group is built
and proved once: a QuotientComplex is built over an action, reads the
generator images of its action one dimension at a time, keeping none,
and labels orbits by their smallest cell in array passes; orbit labels
and orbit_of are int32, like the image arrays.  The boundary of an orbit
maps the faces of its representative, read off the base's face rows, to
their orbits.

As in ordercomplex, a 1-D gather by an integer index array is
ndarray.take, since a subscript casts an int32 index to intp and takes
numpy's slower general indexing path; the propagation rounds of
orbit_labels take into buffers kept across rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ordercomplex import FaceTableComplex, OrderComplex, Simplex, row_codes
from .setpart import Partition


class Perm:
    """A permutation of {1,...,n}; images[i-1] is the image of i."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images}")
        self.images = images

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(range(1, n + 1))

    @classmethod
    def from_cycles(cls, n: int, text: str) -> "Perm":
        """Parse cycle notation, e.g. "(2 3)(4 5)"; "" is the identity.  The
        cycles must be disjoint."""
        images = list(range(1, n + 1))
        seen: set[int] = set()
        text = text.strip()
        if text and text not in ("id", "()"):
            if text.count("(") != text.count(")") or not text.startswith("("):
                raise ValueError(f"malformed cycle notation: {text!r}")
            for cycle_text in text.replace(")", ")\n").split("\n"):
                cycle_text = cycle_text.strip()
                if not cycle_text:
                    continue
                if not (cycle_text.startswith("(") and cycle_text.endswith(")")):
                    raise ValueError(f"malformed cycle notation: {text!r}")
                entries = [t for t in cycle_text[1:-1].replace(",", " ").split() if t]
                cycle = [int(t) for t in entries]
                if len(set(cycle)) != len(cycle):
                    raise ValueError(f"repeated point in cycle: {cycle_text!r}")
                for e in cycle:
                    if not 1 <= e <= n:
                        raise ValueError(f"point {e} out of range 1..{n}")
                    if e in seen:
                        raise ValueError(f"point {e} is in two cycles of {text!r}; write the cycles disjoint")
                    seen.add(e)
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    images[a - 1] = b
        return cls(images)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        # (g*h)(x) = g(h(x))
        return Perm(self.images[i - 1] for i in other.images)

    def inverse(self) -> "Perm":
        inv = [0] * len(self.images)
        for i, v in enumerate(self.images, start=1):
            inv[v - 1] = i
        return Perm(inv)

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its smallest point."""
        seen = [False] * (len(self.images) + 1)
        out = []
        for start in range(1, len(self.images) + 1):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            cur = self(start)
            while cur != start:
                cyc.append(cur)
                seen[cur] = True
                cur = self(cur)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: "Perm") -> bool:
        return self.images < other.images

    def __str__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "id"
        return "".join("(" + " ".join(str(e) for e in c) + ")" for c in cycs)

    def __repr__(self) -> str:
        return f"Perm({str(self)!r}, n={self.n})"


def act(g: Perm, x):
    """Apply a permutation to a partition or a simplex."""
    if isinstance(x, Partition):
        if g.n != x.n:
            raise ValueError(f"permutation of [{g.n}] cannot act on partition of [{x.n}]")
        return Partition(x.n, [[g(e) for e in b] for b in x.blocks])
    if isinstance(x, Simplex):
        # the action is a poset automorphism, so vertex order survives
        return Simplex(tuple(act(g, v) for v in x.vertices))
    raise TypeError(f"cannot act on {type(x).__name__}")


class PermGroup:
    """A permutation group on {1,...,n}, kept as the (order, n) int32 table
    of its elements' images minus one, rows in lexicographic order."""

    def __init__(self, n: int, generators, table: np.ndarray):
        self.n = n
        self.generators = tuple(generators)
        self.table = table
        self._codes = row_codes(table)

    @classmethod
    def generate(cls, n: int, generators) -> "PermGroup":
        """Close the generators by breadth-first search over image rows:
        each round composes every generator with every element found in the
        round before, in one gather, and keeps the products whose codes are
        new."""
        gens = tuple(generators)
        for g in gens:
            if g.n != n:
                raise ValueError(f"generator {g} is not a permutation of [{n}]")
        garr = np.array([g.images for g in gens], dtype=np.int32).reshape(len(gens), n) - 1
        frontier = np.arange(n, dtype=np.int32)[None]
        rows, seen = [frontier], row_codes(frontier)
        codes = [seen]
        while len(frontier):
            # (g*h)(x) = g(h(x)): row h of the frontier read through each g
            products = garr[:, frontier].reshape(-1, n)
            found = row_codes(products)
            order = np.argsort(found)
            found = found.take(order)
            at = np.minimum(np.searchsorted(seen, found), len(seen) - 1)
            # the first copy of each product that is not an element yet
            fresh = seen.take(at) != found
            fresh[1:] &= found[1:] != found[:-1]
            frontier = products[order[fresh]]
            rows.append(frontier)
            codes.append(found[fresh])
            seen = np.sort(np.concatenate([seen, found[fresh]]))
        return cls(n, gens, np.concatenate(rows)[np.argsort(np.concatenate(codes))])

    @classmethod
    def trivial(cls, n: int) -> "PermGroup":
        return cls.generate(n, ())

    @classmethod
    def point_stabilizer(cls, n: int) -> "PermGroup":
        """All permutations of [n] fixing 1; order (n-1)!."""
        if n < 3:
            raise ValueError(f"point stabilizer needs n >= 3, got {n}")
        gens = [Perm.from_cycles(n, "(2 3)")]
        if n > 3:
            gens.append(Perm.from_cycles(n, "(" + " ".join(map(str, range(2, n + 1))) + ")"))
        return cls.generate(n, gens)

    @classmethod
    def from_cycle_strings(cls, n: int, texts) -> "PermGroup":
        return cls.generate(n, (Perm.from_cycles(n, t) for t in texts))

    @cached_property
    def elements(self) -> tuple[Perm, ...]:
        """Every element as a Perm, in sorted order; made on first use."""
        return tuple(Perm(row) for row in (self.table + 1).tolist())

    @property
    def order(self) -> int:
        return len(self.table)

    def __contains__(self, g: Perm) -> bool:
        if g.n != self.n:
            return False
        code = row_codes(np.array([g.images], dtype=self.table.dtype) - 1)
        at = min(int(np.searchsorted(self._codes, code)[0]), len(self._codes) - 1)
        return bool(self._codes[at] == code[0])

    def __iter__(self):
        return iter(self.elements)

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        """A group lies in another iff its generators do."""
        return self.n == other.n and all(g in other for g in self.generators)

    def index_in(self, other: "PermGroup") -> int:
        if not self.is_subgroup_of(other):
            raise ValueError("not a subgroup")
        return other.order // self.order

    def fixes_point(self, x: int) -> bool:
        """A group fixes x iff each of its generators does."""
        return all(g(x) == x for g in self.generators)

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators) or "id"
        return f"PermGroup(n={self.n}, order={self.order}, generators=[{gens}])"


@dataclass
class Orbit:
    representative: object
    members: list
    stabilizer_order: int


def orbits(group: PermGroup, items) -> list[Orbit]:
    """Group the items into orbits; the representative is the canonically
    smallest member.  Members are closed under the generator images and
    the stabilizer order is |G| / |orbit|.  Nothing in the program calls
    orbits or act; they remain because perfbench's tracer wraps orbits."""
    seen: set = set()
    out = []
    for x in items:
        if x in seen:
            continue
        members = {x}
        stack = [x]
        while stack:
            y = stack.pop()
            for g in group.generators:
                z = act(g, y)
                if z not in members:
                    members.add(z)
                    stack.append(z)
        seen |= members
        ordered = sorted(members, key=_canonical_key)
        out.append(Orbit(ordered[0], ordered, group.order // len(members)))
    return out


def _canonical_key(x):
    if isinstance(x, Partition):
        return x.rgs
    if isinstance(x, Simplex):
        return tuple(v.rgs for v in x.vertices)
    return x


class ComplexAction:
    """A permutation group acting on the cells of an order complex whose
    ground poset consists of partitions.

    Vertex maps come from restricted-growth strings: g sends a partition
    to the one that labels g(e) as the partition labels e, found among the
    complex's label rows by OrderComplex.locate_labels.  They are built
    and checked to be poset automorphisms for the generators only.  A
    complex built from its elements derives its label rows from them.  An
    element acts on cells as the per-dimension int32 image arrays of
    OrderComplex.map_chains: those of the generators are kept once
    computed; those of another element are computed when asked for, and
    only the most recent such element's are kept (all 720 elements of the
    stabilizer at n = 7 would take about 750 MB).
    """

    def __init__(self, complex: OrderComplex, group: PermGroup):
        self.complex = complex
        self.group = group
        self.vertex_maps: dict[Perm, np.ndarray] = {g: self.vertex_map(g) for g in group.generators}
        # a bijection of the vertices that sends every pair i < j (every
        # 1-cell) to a pair of the order is an automorphism: the order has
        # as many pairs after it as before
        below, above = complex.pairs()
        identity = np.arange(len(complex.less))
        for g, v in self.vertex_maps.items():
            if not np.array_equal(np.sort(v), identity) or not complex.related(v.take(below), v.take(above)).all():
                raise ValueError(f"{g} does not act by poset automorphisms")
        self._images: dict[Perm, list[np.ndarray]] = {}
        self._recent: dict[Perm, list[np.ndarray]] = {}

    def vertex_map(self, g: Perm) -> np.ndarray:
        """vertex_map(g)[v] is the index of the image of vertex v under g."""
        labels = self.complex.labels
        if g.n != labels.shape[1]:
            raise ValueError(f"permutation of [{g.n}] cannot act on partitions of [{labels.shape[1]}]")
        # the image labels position g(e) as the partition labels e
        return self.complex.locate_labels(labels[:, np.argsort(g.images)])

    def images(self, g: Perm) -> list[np.ndarray]:
        """images(g)[d][i] is the index of the image of cell (d, i) under
        an element g of the group."""
        found = self._images.get(g) or self._recent.get(g)
        if found is None:
            if g not in self.group:
                raise KeyError(f"{g} is not an element of {self.group}")
            generator = g in self.vertex_maps
            found = list(self.complex.map_chains(self.vertex_maps[g] if generator else self.vertex_map(g)))
            if generator:
                self._images[g] = found
            else:
                self._recent = {g: found}
        return found

    def cell_image(self, g: Perm, cell: tuple[int, int]) -> tuple[int, int]:
        """Image of cell (dim, index) under an element g of the group."""
        return cell[0], int(self.images(g)[cell[0]][cell[1]])


def orbit_labels(size: int, images) -> np.ndarray:
    """The smallest cell of the orbit of each of size cells under the generators
    with these image arrays, by min-label propagation with pointer jumping;
    int32, like the image arrays.  Every round gathers into the same three
    buffers.  take(out=) buffers its result unless indices are clipped, so
    the image arrays are range-checked once and then taken with
    mode="clip", which then clips nothing."""
    for img in images:
        if len(img) and not 0 <= img.min() <= img.max() < size:
            raise IndexError(f"image array with entries outside 0..{size - 1}")
    label = np.arange(size, dtype=np.int32)
    new, gathered = np.empty_like(label), np.empty_like(label)
    while True:
        np.copyto(new, label)
        for img in images:
            np.minimum(new, new.take(img, out=gathered, mode="clip"), out=new)
        new.take(new, out=gathered, mode="clip")
        if np.array_equal(gathered, label):
            return label
        label, gathered = gathered, label


class QuotientComplex(FaceTableComplex):
    """Cells are orbits of the cells of an action's complex.  It reads the
    generator images of its action one dimension at a time and keeps only
    int32 arrays: orbit_of[d], and reps[d], the smallest cell of each
    orbit, off which its boundary is read.  Distinct faces of a chain never
    share an orbit, since an automorphism of finite order cannot carry one
    facet of a chain onto another, so every coefficient is a sign."""

    def __init__(self, action: ComplexAction):
        self.action, self.group, self.base = action, action.group, action.complex
        streams = [self.base.map_chains(v) for v in action.vertex_maps.values()]
        self.orbit_of: list[np.ndarray] = []
        self.reps: list[np.ndarray] = []
        for d in range(self.base.dim + 1):
            label = orbit_labels(self.base.n_cells(d), [next(s) for s in streams])
            # a cell labels itself iff it is the smallest of its orbit;
            # numbering orbits by that cell is first-appearance order
            is_rep = label == np.arange(len(label))
            self.orbit_of.append((np.cumsum(is_rep, dtype=np.int32) - 1).take(label))
            self.reps.append(np.flatnonzero(is_rep).astype(np.int32))
        super().__init__(len(layer) for layer in self.reps)

    def cell_label(self, d: int, i: int) -> str:
        return "[" + self.base.cell_label(d, self.reps[d][i]) + "]"

    def face_table(self, d: int, cells) -> np.ndarray:
        """The orbits of the faces of the representatives of the given orbits."""
        return self.orbit_of[d - 1].take(self.base.face_rows(d, self.reps[d].take(cells)))

    # bound in the class body: the per-layer tracer in perfbench/ wraps
    # QuotientComplex.__dict__["boundary_columns"] and fails without it
    boundary_columns = FaceTableComplex.boundary_columns
