"""Permutations of {1,...,n}, generated subgroups, and their actions.

Groups keep their full element list, which at desk scale (subgroups of
S_7) is cheap to close by breadth-first multiplication and answers order,
membership and the orbit/stabilizer counts of `orbits`.  Fixed points,
containment, and actions on complexes and quotients go through the
generators only: a map that is a poset automorphism for every generator
is one for every product of them, and an orbit is the closure of a point
under the generator images.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ordercomplex import CellComplex, OrderComplex, Simplex
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
        """Parse cycle notation, e.g. "(2 3)(4 5)"; "" is the identity."""
        images = list(range(1, n + 1))
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
    """A permutation group on {1,...,n} with its full element list."""

    def __init__(self, n: int, generators, elements):
        self.n = n
        self.generators = tuple(generators)
        self.elements = tuple(sorted(elements))
        self._members = frozenset(p.images for p in self.elements)

    @classmethod
    def generate(cls, n: int, generators) -> "PermGroup":
        gens = tuple(generators)
        for g in gens:
            if g.n != n:
                raise ValueError(f"generator {g} is not a permutation of [{n}]")
        els = {Perm.identity(n)}
        frontier = list(els)
        while frontier:
            new = []
            for g in gens:
                for h in frontier:
                    p = g * h
                    if p not in els:
                        els.add(p)
                        new.append(p)
            frontier = new
        return cls(n, gens, els)

    @classmethod
    def trivial(cls, n: int) -> "PermGroup":
        return cls.generate(n, ())

    @classmethod
    def symmetric(cls, n: int) -> "PermGroup":
        if n == 1:
            return cls.trivial(1)
        gens = [Perm.from_cycles(n, "(1 2)")]
        if n > 2:
            gens.append(Perm.from_cycles(n, "(" + " ".join(map(str, range(1, n + 1))) + ")"))
        return cls.generate(n, gens)

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

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, g: Perm) -> bool:
        return g.images in self._members

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
    smallest member and stabilizer orders are counted directly."""
    items = list(items)
    seen: set = set()
    out = []
    for x in items:
        if x in seen:
            continue
        members = {act(g, x) for g in group}
        seen |= members
        fixers = sum(1 for g in group if act(g, x) == x)
        ordered = sorted(members, key=_canonical_key)
        if len(members) * fixers != group.order:
            raise AssertionError(f"orbit-stabilizer mismatch at {x}")
        out.append(Orbit(ordered[0], ordered, fixers))
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

    Vertex maps are built and checked for the generators; maps of other
    group elements are filled in on first use by cell_image.
    """

    def __init__(self, complex: OrderComplex, group: PermGroup):
        self.complex = complex
        self.group = group
        self._elem_index = {p: i for i, p in enumerate(complex.elements)}
        self.vertex_maps: dict[Perm, tuple[int, ...]] = {}
        less = complex.less
        for g in group.generators:
            v = np.asarray(self._vertex_map(g))
            if not (less[np.ix_(v, v)] == less).all():
                raise ValueError(f"{g} does not act by poset automorphisms")

    def _vertex_map(self, g: Perm) -> tuple[int, ...]:
        vmap = tuple(self._elem_index[act(g, p)] for p in self.complex.elements)
        self.vertex_maps[g] = vmap
        return vmap

    def cell_image(self, g: Perm, cell: tuple[int, int]) -> tuple[int, int]:
        """Image of cell (dim, index) under an element g of the group."""
        d, i = cell
        vmap = self.vertex_maps.get(g)
        if vmap is None:
            if g not in self.group:
                raise KeyError(f"{g} is not an element of {self.group}")
            vmap = self._vertex_map(g)
        chain = tuple(vmap[v] for v in self.complex.cells[d][i])
        return d, self.complex.index[d][chain]


class QuotientComplex(CellComplex):
    """Cells are group orbits of cells; the boundary of an orbit is read
    off a representative.  Distinct faces of a chain never share an
    orbit, since an automorphism of finite order cannot carry one facet
    of a chain onto another, so every coefficient is a sign."""

    def __init__(self, complex: OrderComplex, group: PermGroup):
        self.base = complex
        self.group = group
        self.action = ComplexAction(complex, group)
        gen_maps = list(self.action.vertex_maps.values())
        self.orbit_of: list[np.ndarray] = []
        self.reps: list[list[int]] = []
        for d in range(complex.dim + 1):
            layer = complex.cells[d]
            index = complex.index[d]
            assign = [-1] * len(layer)
            reps: list[int] = []
            for i, chain in enumerate(layer):
                if assign[i] >= 0:
                    continue
                o = len(reps)
                reps.append(i)
                assign[i] = o
                stack = [chain]
                while stack:
                    c = stack.pop()
                    for vmap in gen_maps:
                        # setwise stabilization forces pointwise fixing: stored
                        # chains are poset-ordered, so an image with the same
                        # vertex set is the identical tuple
                        img = tuple(vmap[v] for v in c)
                        j = index[img]
                        if assign[j] < 0:
                            assign[j] = o
                            stack.append(img)
            self.orbit_of.append(np.asarray(assign, dtype=np.int64))
            self.reps.append(reps)
        super().__init__(len(layer) for layer in self.reps)

    def orbit_index(self, d: int, base_index: int) -> int:
        return int(self.orbit_of[d][base_index])

    def representative(self, d: int, i: int) -> tuple[int, ...]:
        return self.base.cells[d][self.reps[d][i]]

    def simplex(self, d: int, i: int) -> Simplex:
        base_i = self.reps[d][i]
        return self.base.simplex(d, base_i)

    def cell_label(self, d: int, i: int) -> str:
        return "[" + self.base.cell_label(d, self.reps[d][i]) + "]"

    def _boundary(self, d: int, i: int):
        assign = self.orbit_of[d - 1]
        return ((int(assign[j]), s) for j, s in self.base.faces(d, self.reps[d][i]))

    # bound in the class body: the per-layer tracer in perfbench/ wraps
    # QuotientComplex.__dict__["boundary_columns"] and fails without it
    boundary_columns = CellComplex.boundary_columns
