"""Acyclic matchings on face posets and their Morse chain data.

A Matching is kept in one format: partner arrays up[d] and down[d], -1
for an unmatched cell.  Its producers hand over sets of pairs as {d:
(lo, hi)}, one index array each for the lower cells of dimension d and
their upper partners; tuple lists ((d, i), (d+1, j)) are accepted at the
API edge and converted once.  Structure is checked in bulk (an index
array by its min and max against its dimension's cell count, bincount for
a cell in two pairs, CellComplex.incidence for the coefficients), and
acyclicity by Kahn's topological sort of the modified face digraph
(matched edges reversed) on the boundary arrays, one dimension pair at a
time; its levels, kept on the Matching once sorted, also order the one
discrete flow: the gradient chains of critical cells, their cycle
representatives, pushed as int64 columns in blocks of CHAIN_BLOCK entries
under one overflow guard.  The Morse boundary is their boundary at the
critical cells (Forman), and MorseData, the Morse complex, is a
CellComplex on the critical cells that homology_of reads as it is.  The
patchwork pattern composes matchings: an order-preserving cell key (an
int array per dimension of ids of a boolean order matrix, checked in
range and against face_array) plus one matching per fiber, checked to
lie in its fiber in one pass per dimension over the glued pairs, gives a
matching of the whole complex, and the generators of an action move
whole fibers across orbits of its complex through their image arrays
(perm.ComplexAction.images), onto keys not yet reached, and checks their
stabilizer condition once, on the glued matching, in one pass per
generator (Schreier's lemma, at equivariant_patchwork_matching).
Equivariance is one comparison per generator and dimension against up,
and a quotient matching checks it against the images that its
quotient's action keeps.  Cone and closure matchings are prefix-tree
folds, which construction glues into the zero fiber.  Assembly checks
structure, not acyclicity: an assembled matching is certified once, by
validate_matching.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .ordercomplex import CellComplex, distinct, entry_cells, entry_positions, parse_simplex
from .perm import Perm

Cell = tuple[int, int]
Pair = tuple[Cell, Cell]


class InvalidMatchingError(ValueError):
    pass


class DanglingCellError(InvalidMatchingError):
    """A pair names a cell that the complex does not have."""


def _pair_arrays(complex, pairs) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """A set of pairs as {d: (lo, hi)}, one index array each for the lower
    cells of dimension d and their upper partners.  pairs is given so, or
    as tuples ((d, lo), (d+1, hi)), kept in list order per dimension; a
    cell the complex lacks raises DanglingCellError, and then a pair that
    does not span one dimension InvalidMatchingError.  An index array of
    dimension e must have an integer dtype (else InvalidMatchingError) and
    is checked by its min and max against n_cells(e), 0 for e outside the
    complex; its first bad cell is looked for only then."""
    if isinstance(pairs, dict):
        for d, (lo, hi) in pairs.items():
            for e, idx in ((d, lo), (d + 1, hi)):
                if idx.dtype.kind not in "iu":
                    raise InvalidMatchingError(f"cells of dimension {e} given as {idx.dtype}, not as integers")
                size = complex.n_cells(e)
                if len(idx) and (idx.min() < 0 or idx.max() >= size):
                    raise DanglingCellError(f"dangling cell ({e}, {idx[(idx < 0) | (idx >= size)][0]})")
        return pairs
    # rows (dim, index): the lower and then the upper cell of each pair
    flat = np.fromiter(chain.from_iterable(chain.from_iterable(pairs)), dtype=np.int64, count=4 * len(pairs))
    flat = flat.reshape(-1, 2)
    dims, idx = flat.T
    # a dimension out of range reads the trailing 0, at -1 or dim + 1
    sizes = np.array([complex.n_cells(d) for d in range(complex.dim + 1)] + [0])
    bad = np.flatnonzero((idx < 0) | (idx >= sizes[np.clip(dims, -1, complex.dim + 1)]))
    if len(bad):
        raise DanglingCellError(f"dangling cell ({dims[bad[0]]}, {idx[bad[0]]})")
    lo, hi = flat[0::2], flat[1::2]
    bad = np.flatnonzero(hi[:, 0] != lo[:, 0] + 1)
    if len(bad):
        raise InvalidMatchingError(f"pair {pairs[bad[0]]} does not span one dimension")
    return {d: (lo[lo[:, 0] == d, 1], hi[lo[:, 0] == d, 1]) for d in distinct(lo[:, 0]).tolist()}


class Matching:
    """A validated partial matching along codimension-1 incidences, kept
    as partner arrays: up[d][i] is the (d+1)-cell matched with the d-cell
    i, down[d][j] the (d-1)-cell matched with the d-cell j, -1 for none.
    The arrays that a Kahn sort has read are read-only from then on."""

    def __init__(self, complex, pairs):
        self.complex = complex
        # d -> (up[d-1], down[d], levels, cycle), kept by _gradient_levels
        self._levels: dict[int, tuple] = {}
        sizes = [complex.n_cells(d) for d in range(complex.dim + 1)]
        self.up = [np.full(size, -1, dtype=np.int32) for size in sizes]
        self.down = [np.full(size, -1, dtype=np.int32) for size in sizes]
        uses = [np.zeros(size, dtype=np.int64) for size in sizes]
        for d, (lo, hi) in _pair_arrays(complex, pairs).items():
            coeff = complex.incidence(d + 1, hi, lo)
            bad = np.flatnonzero(np.abs(coeff) != 1)
            if len(bad):
                i, j, c = lo[bad[0]], hi[bad[0]], coeff[bad[0]]
                raise InvalidMatchingError(f"cell ({d},{i}) is not a regular face of ({d + 1},{j}) (coefficient {c})")
            uses[d] += np.bincount(lo, minlength=sizes[d])
            uses[d + 1] += np.bincount(hi, minlength=sizes[d + 1])
            self.up[d][lo] = hi
            self.down[d + 1][hi] = lo
        for d, count in enumerate(uses):
            twice = np.flatnonzero(count > 1)
            if len(twice):
                raise InvalidMatchingError(f"cell {(d, int(twice[0]))} appears in two pairs")

    def pair_arrays(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """{d: (lo, hi)} for every d below the top, lower cells ascending."""
        lows = [np.flatnonzero(up >= 0) for up in self.up[:-1]]
        return {d: (lo, self.up[d][lo]) for d, lo in enumerate(lows)}

    @property
    def pairs(self) -> list[Pair]:
        """The pairs ((d, i), (d+1, j)) in sorted order."""
        return [((d, i), (d + 1, j)) for d, (lo, hi) in self.pair_arrays().items() for i, j in zip(lo.tolist(), hi.tolist())]

    def critical_cells(self) -> list[list[int]]:
        """Per-dimension sorted index lists of unmatched cells."""
        return [np.flatnonzero((up < 0) & (down < 0)).tolist() for up, down in zip(self.up, self.down)]

    def critical_counts(self) -> list[int]:
        return [len(layer) for layer in self.critical_cells()]

    def dump(self) -> str:
        """One line "lower -> upper" per pair, labelled a dimension at a time."""
        label = self.complex.cell_labels
        pairs = self.pair_arrays().items()
        return "\n".join(f"{a} -> {b}" for d, (lo, hi) in pairs for a, b in zip(label(d, lo), label(d + 1, hi)))


def matching_from_dump(complex, text: str) -> Matching:
    """Inverse of Matching.dump for complexes over partitions."""
    pairs = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        left, sep, right = line.partition("->")
        if not sep:
            raise InvalidMatchingError(f"missing '->' in line: {line!r}")
        a = complex.locate(parse_simplex(left.strip()))
        b = complex.locate(parse_simplex(right.strip()))
        pairs.append((a, b))
    return Matching(complex, pairs)


@dataclass
class MatchingCertificate:
    is_matching: bool
    is_acyclic: bool
    critical_counts: tuple[int, ...]
    equivariant_under: str | None = None
    witness_cycle: tuple[str, ...] | None = None
    defect: str | None = None

    def to_json(self) -> dict:
        out = {
            "isMatching": self.is_matching,
            "isAcyclic": self.is_acyclic,
            "equivariantUnder": self.equivariant_under,
            "criticalCounts": list(self.critical_counts),
        }
        if self.witness_cycle is not None:
            out["witnessCycle"] = list(self.witness_cycle)
        if self.defect is not None:
            out["defect"] = self.defect
        return out


def _gradient_levels(matching: Matching, d: int, arrays) -> tuple[list[np.ndarray], list[Cell] | None]:
    """_kahn_levels of dimension d, kept on the matching with the partner
    arrays it reads, up[d-1] and down[d], which become read-only: so
    find_cycle and morse_data sort each dimension once, a write into those
    arrays after the sort raises, and arrays put in their place are sorted
    again."""
    up, down = matching.up[d - 1], matching.down[d]
    found = matching._levels.get(d)
    if found is None or found[0] is not up or found[1] is not down:
        up.flags.writeable = down.flags.writeable = False
        found = matching._levels[d] = (up, down, *_kahn_levels(matching, d, arrays))
    return found[2:]


def _kahn_levels(matching: Matching, d: int, arrays) -> tuple[list[np.ndarray], list[Cell] | None]:
    """Kahn's topological sort of the modified face digraph between
    dimensions d-1 and d, given the boundary arrays of dimension d: its
    nodes are the d-cells matched downwards, with an edge u -> v when the
    partner of v is a face of u other than u's own.  Returns the levels,
    node arrays whose edges all lead to later levels, and a cycle as in
    find_cycle when some nodes are left; each of those has an in-edge from
    another, so walking back along in-edges repeats a node."""
    indptr, faces, _ = arrays
    down = matching.down[d]
    src, dst = entry_cells(indptr), matching.up[d - 1][faces]
    edge = (down[src] >= 0) & (dst >= 0) & (dst != src)
    src, dst = src[edge], dst[edge]
    out_ptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=len(down)))])
    indeg = np.bincount(dst, minlength=len(down))
    levels, level = [], np.flatnonzero((down >= 0) & (indeg == 0))
    while len(level):
        levels.append(level)
        reached = dst[entry_positions(out_ptr, level)]
        np.subtract.at(indeg, reached, 1)
        level = distinct(reached[indeg[reached] == 0])
    stuck = (down >= 0) & (indeg > 0)
    if not stuck.any():
        return levels, None
    back = stuck[src] & stuck[dst]
    pred, seen = np.full(len(down), -1), np.full(len(down), -1)
    pred[dst[back]] = src[back]
    path, v = [], int(np.argmax(stuck))
    while seen[v] < 0:
        seen[v] = len(path)
        path.append(v)
        v = int(pred[v])
    # walking back reversed the edges
    cycle = path[seen[v] :][::-1]
    steps = zip(cycle, cycle[1:] + cycle[:1])
    return levels, [c for a, b in steps for c in ((d, a), (d - 1, int(down[b])))] + [(d, cycle[0])]


def find_cycle(matching: Matching) -> list[Cell] | None:
    """A directed cycle of the modified face digraph, or None.

    Cycles always alternate between consecutive dimensions, so each
    dimension pair is sorted separately (_gradient_levels).  Returns
    alternating upper/lower cells, first cell repeated last.
    """
    complex = matching.complex
    for d in range(1, complex.dim + 1):
        _, cycle = _gradient_levels(matching, d, complex.boundary_arrays(d))
        if cycle is not None:
            return cycle
    return None


def equivariance_witness(matching: Matching, action) -> str | None:
    """None when every element of the acting group sends every pair to a
    pair; otherwise the first generator, pair and image that fail, by
    generator, dimension and lower cell, named with their cell labels.

    Only the generators are applied: a generator that maps the finite pair
    set into itself permutes it, and products of such maps do too.  A
    generator with image arrays img keeps the pairs (lo, hi) of dimension
    d iff up[d][img[d][lo]] == img[d+1][hi] throughout.  An action on a
    complex of another f-vector raises ValueError naming both.
    """
    ours, theirs = matching.complex.f_vector(), action.complex.f_vector()
    if ours != theirs:
        raise ValueError(f"the action is on a complex with f-vector {theirs}, the matching on one with f-vector {ours}")
    label = matching.complex.cell_label
    pairs = matching.pair_arrays()
    for g in action.group.generators:
        img = action.images(g)
        for d, (lo, hi) in pairs.items():
            bad = np.flatnonzero(matching.up[d][img[d][lo]] != img[d + 1][hi])
            if len(bad):
                i, j = lo[bad[0]], hi[bad[0]]
                pair = f"{label(d, i)} -> {label(d + 1, j)}"
                image = f"{label(d, img[d][i])} -> {label(d + 1, img[d + 1][j])}"
                return f"{g} sends the pair {pair} to {image}, which is no pair"
    return None


def check_equivariance(matching: Matching, action) -> bool:
    """True iff every element of the acting group sends every pair to a
    pair: equivariance_witness finds no failure."""
    return equivariance_witness(matching, action) is None


def validate_matching(complex, pairs_or_matching, action=None) -> MatchingCertificate:
    """Certificate with matching-structure and acyclicity verdicts.

    Dangling cell references raise; structural defects (a cell in two
    pairs, a non-face pair) yield isMatching=False, the first one named
    in defect.  A Matching is checked again from its up arrays alone, and
    its down arrays must be the partners these give.  When an action is
    supplied and the matching is stable under it, equivariantUnder
    records the group.
    """
    matching = pairs_or_matching
    try:
        if isinstance(matching, Matching):
            rebuilt = Matching(complex, matching.pair_arrays())
            if not all(map(np.array_equal, rebuilt.up + rebuilt.down, matching.up + matching.down)):
                raise InvalidMatchingError("the down arrays are not the partners of the up arrays")
        else:
            matching = Matching(complex, matching)
    except DanglingCellError:
        raise
    except InvalidMatchingError as exc:
        return MatchingCertificate(False, False, (), defect=str(exc))
    cycle = find_cycle(matching)
    counts = tuple(matching.critical_counts())
    equivariant_under = None
    if action is not None and check_equivariance(matching, action):
        equivariant_under = ", ".join(str(g) for g in action.group.generators) or "id"
    witness = None if cycle is None else tuple(matching.complex.cell_label(d, i) for d, i in cycle)
    return MatchingCertificate(True, cycle is None, counts, equivariant_under, witness)


def _check_key_ids(key, key_leq) -> None:
    """ValueError naming the first cell whose key is no id of key_leq."""
    for d, layer in enumerate(key):
        if len(layer) and (layer.min() < 0 or layer.max() >= len(key_leq)):
            i = int(np.flatnonzero((layer < 0) | (layer >= len(key_leq)))[0])
            raise ValueError(f"cell ({d},{i}) has key {layer[i]}, not an id 0..{len(key_leq) - 1} of the key order")


def _glue(complex, key, key_leq, fibers: dict) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """The tail of both patchwork assemblers, which check first that the
    keys are ids of key_leq: checks that the key is order-preserving on
    faces, concatenates the {d: (lo, hi)} fibers[k] per dimension, in
    order, and checks that each pair lies in its fiber k in one pass per
    dimension, against the fiber keys repeated from the fiber lengths.  A
    failure names the first fiber that has a bad pair, its lowest such
    dimension and its first bad pair there."""
    for d in range(1, complex.dim + 1):
        faces = complex.face_array(d)
        leq = key_leq[key[d - 1][faces], key[d][:, None]]
        if not leq.all():
            j, k = np.argwhere(~leq)[0]
            raise ValueError(f"cell key not order-preserving at cell ({d},{j}) face {faces[j, k]}")
    parts: dict = {}
    for p, fiber in enumerate(fibers.values()):
        for d, (lo, hi) in sorted(fiber.items()):
            parts.setdefault(d, []).append((p, lo, hi))
    names, glued, bad = list(fibers), {}, []
    for d, part in parts.items():
        p, lo, hi = zip(*part)
        p = np.repeat(p, [len(cells) for cells in lo])
        lo, hi = glued[d] = np.concatenate(lo), np.concatenate(hi)
        k = np.take(names, p)
        miss = (key[d][lo] != k) | (key[d + 1][hi] != k)
        if miss.any():
            i = int(miss.argmax())
            bad.append((p[i], d, i))
    if bad:
        p, d, i = min(bad)
        lo, hi = glued[d]
        raise ValueError(f"pair ({(d, int(lo[i]))},{(d + 1, int(hi[i]))}) leaves fiber {names[p]}")
    return glued


def patchwork_matching(complex, key, key_leq, fiber_pairs: dict) -> Matching:
    """Union of per-fiber matchings along an order-preserving cell key.

    complex is an OrderComplex; key[d][i] is the key of cell (d, i), an id
    of a poset whose order is the boolean matrix key_leq over ids, else a
    ValueError names the first cell.  The key must be order-preserving on
    faces, checked per dimension in one comparison against face_array,
    and every pair of fiber_pairs[k], given as arrays or as a list of
    pairs, must lie in fiber k; a failure names the first bad cell and
    face, or pair.  The union is acyclic whenever
    each piece is, which is not checked here: validate_matching certifies
    acyclicity.
    """
    _check_key_ids(key, key_leq)
    fibers = {k: _pair_arrays(complex, pairs) for k, pairs in fiber_pairs.items()}
    return Matching(complex, _glue(complex, key, key_leq, fibers))


def equivariant_patchwork_matching(action, key, key_action, key_leq, rep_pairs: dict) -> Matching:
    """Assemble a matching of action.complex stable under action.group
    from one matching per key orbit.

    key and key_leq are as in patchwork_matching; key_action(g, q) is the
    key id that g sends key id q to.  rep_pairs supplies exactly one
    fiber matching per key orbit, each stable under the stabilizer of its
    key.  A breadth-first search from each representative key r moves its
    fiber one generator step at a time onto each key q it reaches first,
    as whole {d: (lo, hi)} arrays through the generator's image arrays,
    recording a transversal element t_q with t_q(r) = q; a key reached
    again is not compared.  Once the fibers are glued, one pass per
    generator g checks that g sends each pair (lo, hi) of fiber q to a
    pair of fiber gq: up[d][img[d][lo]] == img[d+1][hi] and
    key[d][img[d][lo]] == gq, read off g's table of key_action.  That is
    complete: each fiber of the orbit has the size of the fiber at r, so g
    carries fiber q onto fiber gq, and the elements t_{gq}^-1 g t_q, which
    generate the stabilizer of r (Schreier's lemma), carry the fiber at r
    onto itself.  A failure names r and that element.
    """
    complex = action.complex
    _check_key_ids(key, key_leq)
    keys = set(chain.from_iterable(np.flatnonzero(np.bincount(layer)).tolist() for layer in key))
    generators = action.group.generators
    # tables[i][q]: the key id that generator i sends key q to
    tables = np.zeros((len(generators), len(key_leq)), dtype=np.int64)
    fibers: dict = {}
    # q -> (r, t_q as its images, composed without building a Perm)
    origin: dict = {}
    for r, pairs in rep_pairs.items():
        if r not in keys:
            raise ValueError(f"representative {r} is not the key of any cell")
        if r in fibers:
            raise ValueError(f"representative {r} lies in the key orbit of another representative")
        fibers[r] = _pair_arrays(complex, pairs)
        origin[r] = (r, tuple(range(1, action.group.n + 1)))
        queue = [r]
        for q in queue:
            for i, g in enumerate(generators):
                gq = tables[i, q] = key_action(g, q)
                if gq not in origin:
                    img = action.images(g)
                    fibers[gq] = {d: (img[d][lo], img[d + 1][hi]) for d, (lo, hi) in fibers[q].items()}
                    origin[gq] = (r, tuple(g(x) for x in origin[q][1]))
                    queue.append(gq)
    missing = keys - fibers.keys()
    if missing:
        raise ValueError(f"no representative for the key orbit of {min(missing)}")
    matching = Matching(complex, _glue(complex, key, key_leq, fibers))
    pairs = matching.pair_arrays()
    for g, table in zip(generators, tables):
        img = action.images(g)
        for d, (lo, hi) in pairs.items():
            moved = img[d].take(lo)
            bad = (matching.up[d].take(moved) != img[d + 1].take(hi)) | (key[d].take(moved) != table.take(key[d].take(lo)))
            if bad.any():
                q = int(key[d][lo[bad.argmax()]])
                (r, t_q), t_gq = origin[q], origin[int(table[q])][1]
                witness = Perm(t_gq).inverse() * g * Perm(t_q)
                raise ValueError(f"fiber matching at {r} is not stabilizer-equivariant (fails {witness})")
    return matching


def quotient_matching(matching: Matching, quotient) -> Matching:
    """Push an equivariant matching down to orbit cells; raises
    InvalidMatchingError, with a witness, when the matching is not
    equivariant or the result is cyclic."""
    witness = equivariance_witness(matching, quotient.action)
    if witness is not None:
        raise InvalidMatchingError(f"matching is not equivariant under the quotient group: {witness}")
    orbit_of = quotient.orbit_of
    pairs = {}
    for d, (lo, hi) in matching.pair_arrays().items():
        # the distinct pairs of orbits, sorted, as int64 codes lo << 32 | hi
        codes = distinct(orbit_of[d][lo].astype(np.int64) << 32 | orbit_of[d + 1][hi])
        pairs[d] = (codes >> 32, codes & 0xFFFFFFFF)
    result = Matching(quotient, pairs)
    cycle = find_cycle(result)
    if cycle is not None:
        witness = tuple(quotient.cell_label(d, i) for d, i in cycle)
        raise InvalidMatchingError(f"quotient matching is cyclic: {witness}")
    return result


def _vertex_array(complex, vertex_indices) -> np.ndarray:
    """The vertex indices as an intp array; ValueError names the first one
    outside 0..m-1 for the m elements of the ground poset."""
    verts = np.fromiter(vertex_indices, dtype=np.intp)
    bad = np.flatnonzero((verts < 0) | (verts >= len(complex.less)))
    if len(bad):
        raise ValueError(f"vertex index {verts[bad[0]]} is not in 0..{len(complex.less) - 1}")
    return verts


def cone_matching(complex, vertex_indices, apex_index: int) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Matching pairs sigma \\ {apex} <-> sigma + {apex} over all chains
    inside the given vertex set, as {d: (lo, hi)} arrays; the apex must be
    the subposet maximum.  The upper cells are the chains inside the set
    that end at the apex, each paired with its prefix chain, so the only
    cell left unmatched is the apex vertex itself."""
    keep = np.isin(np.arange(len(complex.less)), _vertex_array(complex, vertex_indices))
    if not keep[apex_index]:
        raise ValueError("apex not inside the vertex set")
    bad = np.flatnonzero(keep & ~complex.less[:, apex_index])
    bad = bad[bad != apex_index]
    if len(bad):
        raise ValueError(f"apex is not a maximum: vertex {bad[0]} is not below it")
    inside = complex.fold(keep, np.logical_and)
    pairs = {}
    for d in range(1, complex.dim + 1):
        upper = np.flatnonzero(inside[d] & (complex.last[d] == apex_index))
        pairs[d - 1] = (complex.parent[d][upper], upper)
    return pairs


def closure_matching(complex, descend, vertex_indices=None) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Matching induced by a descending closure operator on the ground
    poset, as {d: (lo, hi)} arrays: each chain holding a vertex not fixed
    by the operator is toggled on the image of its smallest such vertex.
    Critical cells are exactly the chains inside the image.

    descend maps vertex index to vertex index; it must satisfy d(x) <= x,
    d(d(x)) = d(x), and monotonicity at the order's pairs, all checked
    here.  Then the vertices before the smallest moving vertex m of a chain
    are fixed and below d(m), so a chain is an upper cell iff d(m) is the
    vertex just before m, and its partner is the face without d(m).
    """
    m = len(complex.less)
    verts = np.arange(m) if vertex_indices is None else distinct(_vertex_array(complex, vertex_indices))
    image = np.arange(m)
    image[verts] = [descend(v) for v in verts.tolist()]
    img = image[verts]
    bad = np.flatnonzero(~np.isin(img, verts))
    if len(bad):
        raise ValueError(f"operator escapes the ground poset at vertex {verts[bad[0]]}")
    bad = np.flatnonzero((img != verts) & ~complex.related(img, verts))
    if len(bad):
        raise ValueError(f"operator is not descending at vertex {verts[bad[0]]}")
    bad = np.flatnonzero(image[img] != img)
    if len(bad):
        raise ValueError(f"operator is not idempotent at vertex {verts[bad[0]]}")
    keep = np.isin(np.arange(m), verts)
    edges = np.stack(complex.pairs())
    edges = edges[:, keep[edges].all(axis=0)]
    moved = image[edges]
    bad = np.flatnonzero((moved[0] != moved[1]) & ~complex.related(*moved))
    if len(bad):
        v, u = edges[:, bad[0]]
        raise ValueError(f"operator is not monotone on {v} <= {u}")

    moving = image != np.arange(m)
    inside = complex.fold(keep, np.logical_and)
    # pos: the position of the smallest moving vertex, -1 when none, int8
    # like a dimension; hit: whether the vertex just before it is its image
    pos = np.where(moving[complex.last[0]], 0, -1).astype(np.int8)
    hit = np.zeros(len(pos), dtype=bool)
    pairs = {}
    for d in range(1, complex.dim + 1):
        parent, last = complex.parent[d], complex.last[d]
        up = pos.take(parent)
        new = up < 0
        new &= moving.take(last)
        hit = np.where(new, complex.last[d - 1].take(parent) == image.take(last), hit.take(parent))
        pos = np.where(new, d, up)
        upper = np.flatnonzero(inside[d] & hit)
        pairs[d - 1] = (complex.face_array(d)[upper, pos[upper] - 1], upper)
    return pairs


class MorseData(CellComplex):
    """The Morse complex on the critical cells critical[d]: its boundary
    arrays in dimension d >= 1, kept as arrays[d], map the j-th critical
    d-cell to the boundary of its gradient chain (gradient_chain) at places
    in critical[d-1]."""

    def __init__(self, complex, matching: Matching, critical: list[list[int]], arrays: list[tuple]):
        self.complex, self.matching, self.critical, self.arrays = complex, matching, critical, arrays
        super().__init__(len(layer) for layer in critical)

    def critical_counts(self) -> list[int]:
        return [len(layer) for layer in self.critical]

    def cell_label(self, d: int, i: int) -> str:
        return self.complex.cell_label(d, self.critical[d][i])

    def boundary_arrays(self, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.arrays[d]


def _gradient(matching: Matching, d: int):
    """The boundary arrays of dimension d, the Kahn levels of the digraph
    between dimensions d-1 and d (_gradient_levels), and sign[w] = [w : y]
    for each d-cell w matched downwards with y; raises InvalidMatchingError
    on a cycle or on a matched incidence other than +-1."""
    cx = matching.complex
    indptr, faces, coeffs = arrays = cx.boundary_arrays(d)
    levels, cycle = _gradient_levels(matching, d, arrays)
    if cycle is not None:
        raise InvalidMatchingError(f"matching is cyclic: {tuple(cx.cell_label(e, i) for e, i in cycle)}")
    down, owner = matching.down[d], entry_cells(indptr)
    sign = np.zeros(len(down), dtype=np.int64)
    partner = faces == down[owner]
    sign[owner[partner]] = coeffs[partner]
    bad = np.flatnonzero((down >= 0) & (np.abs(sign) != 1))
    if len(bad):
        w = bad[0]
        raise InvalidMatchingError(f"matched incidence of ({d - 1},{down[w]}) in ({d},{w}) is {sign[w]}")
    return arrays, levels, sign


def _morse_boundary(matching: Matching, d: int, critical: list[list[int]]) -> np.ndarray:
    """The Morse boundary of dimension d as a dense int64 array, one row
    per critical d-cell c: the boundary of the gradient chain of c at the
    critical (d-1)-cells (Forman, Thm 8.10), read off each block of
    _chain_blocks under the guard of _push.  _gradient certifies the
    dimension first; no chain is pushed without rows and columns."""
    gradient = _gradient(matching, d)
    out = np.zeros((len(critical[d - 1]), len(critical[d])), dtype=np.int64)
    if out.size:
        (indptr, faces, coeffs), _, _ = gradient
        column = np.full(len(matching.up[d - 1]), -1)
        column[critical[d - 1]] = np.arange(len(critical[d - 1]))
        owner = entry_cells(indptr)
        # the critical faces of the d-cells that a gradient chain can hold
        hit = np.flatnonzero((column[faces] >= 0) & (matching.up[d][owner] < 0))
        y, w = column[faces[hit]], owner[hit]
        for cols, chains in _chain_blocks(matching, d, critical[d], gradient):
            _push(out[:, cols], y, coeffs[hit], chains[w], np.zeros(len(out)), d)
    return out.T


def morse_data(matching: Matching) -> MorseData:
    """The Morse complex of the matching: its critical cells and the Morse
    boundary (_morse_boundary), whose nonzero entries, row by row, are the
    boundary arrays; cycle representatives are made on demand by
    gradient_chain."""
    cx = matching.complex
    critical = matching.critical_cells()
    empty = np.zeros(0, dtype=np.int64)
    arrays = [(np.zeros(len(critical[0]) + 1, dtype=np.int64), empty, empty)]
    for d in range(1, cx.dim + 1):
        block = _morse_boundary(matching, d, critical)
        rows, faces = np.nonzero(block)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=len(block)))])
        arrays.append((indptr, faces, block[rows, faces]))
    return MorseData(cx, matching, critical, arrays)


def _push(out: np.ndarray, target: np.ndarray, coef: np.ndarray, rows: np.ndarray, bound: np.ndarray, d: int) -> None:
    """out[target] += coef * rows after adding to bound[t], in floats, |coef|
    times max |rows| over the entries into row t, which bounds every partial
    sum there: OverflowError at 2^62, before int64 could wrap.  The one guard
    of the gradient chains and of the Morse boundary read off them."""
    bound += np.bincount(target, np.abs(coef).astype(float) * np.abs(rows).max(axis=1, initial=0), len(bound))
    if bound.max(initial=0) >= 2.0**62:
        raise OverflowError(f"a gradient chain or Morse boundary coefficient in dimension {d} may exceed int64")
    np.add.at(out, target, coef[:, None] * rows)


def _gradient_chains(matching: Matching, d: int, cells, gradient=None) -> np.ndarray:
    """The stabilized discrete flows of the critical d-cells cells as the
    int64 columns of an array with one row per d-cell: the flow of c is c
    plus a_w w over the d-cells w matched downwards with y, where a_w is
    -[w:y] times the sum of [u:y] a_u over u = c and the other cells that
    have y as a face.  Every column is pushed at once along the Kahn levels
    of gradient, _gradient(matching, d) when not given, guarded by _push."""
    cells = np.asarray(cells, dtype=np.intp)
    chains = np.zeros((matching.complex.n_cells(d), len(cells)), dtype=np.int64)
    chains[cells, np.arange(len(cells))] = 1
    if not d:
        return chains
    (indptr, faces, coeffs), levels, sign = gradient or _gradient(matching, d)
    up = matching.up[d - 1]
    bound = np.zeros(len(chains))
    for level in [cells] + levels:
        pos = entry_positions(indptr, level)
        k = np.repeat(level, indptr[level + 1] - indptr[level])
        w = up[faces[pos]]
        via = np.flatnonzero((w >= 0) & (w != k))
        _push(chains, w[via], -sign[w[via]] * coeffs[pos[via]], chains[k[via]], bound, d)
    return chains


# entries of the gradient chains pushed at once
CHAIN_BLOCK = 1 << 22


def _chain_blocks(matching: Matching, d: int, cells, gradient):
    """Pairs (cols, chains): the _gradient_chains of cells[cols] along the
    one gradient, in blocks of at most CHAIN_BLOCK entries of chains."""
    cells = np.asarray(cells, dtype=np.intp)
    step = max(CHAIN_BLOCK // max(matching.complex.n_cells(d), 1), 1)
    for s in range(0, len(cells), step):
        yield slice(s, s + step), _gradient_chains(matching, d, cells[s : s + step], gradient)


def gradient_chain(matching: Matching, cell: Cell) -> dict[int, int]:
    """Stabilized discrete flow of a critical d-cell c, the fixpoint of
    x -> x + boundary(raise(x)) + raise(boundary(x)), as {cell: coefficient}
    (_gradient_chains)."""
    d, c = cell
    if matching.up[d][c] >= 0 or matching.down[d][c] >= 0:
        raise ValueError(f"cell {cell} is not critical")
    chain = _gradient_chains(matching, d, [c])[:, 0]
    support = np.flatnonzero(chain)
    return dict(zip(support.tolist(), chain[support].tolist()))


def cohomology_pairing(data: MorseData) -> np.ndarray:
    """Pairing matrix of the top cochain representatives against their
    gradient chains: row i is the chains at critical cell i.  No top cell
    is matched upwards, so each representative is the indicator of its
    critical cell.  One _gradient serves every chain, pushed in the blocks
    of _chain_blocks; _push keeps every entry below 2^62."""
    d, matching = data.complex.dim, data.matching
    critical = data.critical[d]
    gradient = _gradient(matching, d) if d and critical else None
    mat = np.zeros((len(critical), len(critical)), dtype=np.int64)
    for cols, chains in _chain_blocks(matching, d, critical, gradient):
        mat[:, cols] = chains[critical]
    return mat
