"""Acyclic matchings on face posets and their Morse chain data.

A Matching is kept in one format: partner arrays up[d] and down[d], -1
for an unmatched cell.  Its producers hand over sets of pairs as {d:
(lo, hi)}, one index array each for the lower cells of dimension d and
their upper partners; tuple lists ((d, i), (d+1, j)) are accepted at the
API edge and converted once.  Structure is checked in bulk (bincount for
a cell in two pairs, CellComplex.incidence for the coefficients), and
acyclicity on the modified face digraph (matched edges reversed).  The
patchwork pattern composes matchings: an order-preserving cell key (an
int array per dimension, ordered by a boolean matrix and checked against
face_table) plus one matching per fiber gives a matching of the whole
complex, and a group moves whole fibers across orbits through the image
arrays of its generators (perm.ComplexAction.images); equivariance is
one comparison per generator and dimension against up.  Cone and closure
matchings are prefix-tree folds.  Assembly checks structure but not
acyclicity: an assembled matching is certified once, by validate_matching.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .ordercomplex import ExplicitComplex, parse_simplex
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
    does not span one dimension InvalidMatchingError."""
    if isinstance(pairs, dict):
        cells = [(np.full(len(c), e), c) for d, (lo, hi) in pairs.items() for e, c in ((d, lo), (d + 1, hi))]
    else:
        # rows (dim, index): the lower and then the upper cell of each pair
        flat = np.fromiter(chain.from_iterable(chain.from_iterable(pairs)), dtype=np.int64, count=4 * len(pairs))
        flat = flat.reshape(-1, 2)
        cells = [(flat[:, 0], flat[:, 1])]
    # a dimension out of range reads the trailing 0, at -1 or dim + 1
    sizes = np.array([complex.n_cells(d) for d in range(complex.dim + 1)] + [0])
    for dims, idx in cells:
        bad = np.flatnonzero((idx < 0) | (idx >= sizes[np.clip(dims, -1, complex.dim + 1)]))
        if len(bad):
            raise DanglingCellError(f"dangling cell ({dims[bad[0]]}, {idx[bad[0]]})")
    if isinstance(pairs, dict):
        return pairs
    lo, hi = flat[0::2], flat[1::2]
    bad = np.flatnonzero(hi[:, 0] != lo[:, 0] + 1)
    if len(bad):
        raise InvalidMatchingError(f"pair {pairs[bad[0]]} does not span one dimension")
    return {d: (lo[lo[:, 0] == d, 1], hi[lo[:, 0] == d, 1]) for d in np.unique(lo[:, 0]).tolist()}


class Matching:
    """A validated partial matching along codimension-1 incidences, kept
    as partner arrays: up[d][i] is the (d+1)-cell matched with the d-cell
    i, down[d][j] the (d-1)-cell matched with the d-cell j, -1 for none."""

    def __init__(self, complex, pairs):
        self.complex = complex
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

    def to_json(self) -> dict:
        out = {
            "isMatching": self.is_matching,
            "isAcyclic": self.is_acyclic,
            "equivariantUnder": self.equivariant_under,
            "criticalCounts": list(self.critical_counts),
        }
        if self.witness_cycle is not None:
            out["witnessCycle"] = list(self.witness_cycle)
        return out


def find_cycle(matching: Matching) -> list[Cell] | None:
    """A directed cycle of the modified face digraph, or None.

    Cycles always alternate between consecutive dimensions, so each
    dimension pair is searched separately; nodes are the upper cells of
    pairs, with an edge u -> u' when the cell matched to u' is a face of
    u.  Returns alternating upper/lower cells, first cell repeated last.
    """
    complex = matching.complex
    for d in range(complex.dim):
        up, down = matching.up[d].tolist(), matching.down[d + 1].tolist()
        nodes = [j for j, y in enumerate(down) if y >= 0]

        def successors(j: int) -> list[int]:
            return [up[y] for y, _ in complex.faces(d + 1, j) if y != down[j] and up[y] >= 0]

        color: dict[int, int] = {}
        for start in nodes:
            if color.get(start):
                continue
            color[start] = 1
            path = [start]
            stack = [iter(successors(start))]
            while stack:
                for nxt in stack[-1]:
                    if color.get(nxt) == 1:
                        cycle_nodes = path[path.index(nxt) :] + [nxt]
                        witness: list[Cell] = []
                        for a, b in zip(cycle_nodes, cycle_nodes[1:]):
                            witness.append((d + 1, a))
                            witness.append((d, down[b]))
                        witness.append((d + 1, cycle_nodes[-1]))
                        return witness
                    if nxt not in color:
                        color[nxt] = 1
                        path.append(nxt)
                        stack.append(iter(successors(nxt)))
                        break
                else:
                    color[path.pop()] = 2
                    stack.pop()
    return None


def check_equivariance(matching: Matching, action) -> bool:
    """True iff every element of the acting group sends every pair to a pair.

    Only the generators are applied: a generator that maps the finite pair
    set into itself permutes it, and products of such maps do too.  A
    generator with image arrays img keeps the pairs (lo, hi) of dimension
    d iff up[d][img[d][lo]] == img[d+1][hi] throughout.
    """
    pairs = matching.pair_arrays()
    for g in action.group.generators:
        img = action.images(g)
        for d, (lo, hi) in pairs.items():
            if not (matching.up[d][img[d][lo]] == img[d + 1][hi]).all():
                return False
    return True


def validate_matching(complex, pairs_or_matching, action=None) -> MatchingCertificate:
    """Certificate with matching-structure and acyclicity verdicts.

    Dangling cell references raise; structural defects (a cell in two
    pairs, a non-face pair) yield isMatching=False.  When an action is
    supplied and the matching is stable under it, equivariantUnder
    records the group.
    """
    matching = pairs_or_matching
    if not isinstance(matching, Matching):
        try:
            matching = Matching(complex, matching)
        except DanglingCellError:
            raise
        except InvalidMatchingError:
            return MatchingCertificate(False, False, ())
    cycle = find_cycle(matching)
    counts = tuple(matching.critical_counts())
    equivariant_under = None
    if action is not None and check_equivariance(matching, action):
        equivariant_under = ", ".join(str(g) for g in action.group.generators) or "id"
    witness = None
    if cycle is not None:
        witness = tuple(matching.complex.cell_label(d, i) for d, i in cycle)
    return MatchingCertificate(True, cycle is None, counts, equivariant_under, witness)


def _union(fibers) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """The {d: (lo, hi)} fibers concatenated per dimension, in order."""
    parts: dict = {}
    for fiber in fibers:
        for d, pair in fiber.items():
            parts.setdefault(d, []).append(pair)
    return {d: tuple(np.concatenate(cells) for cells in zip(*pairs)) for d, pairs in parts.items()}


def _pair_codes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Sorted distinct int64 codes lo << 32 | hi of a set of pairs."""
    return np.unique(lo.astype(np.int64) << 32 | hi)


def _check_fiber(key, fiber, k) -> None:
    """Every pair of the {d: (lo, hi)} fiber has both cells in fiber k;
    a failure names the first bad pair of the lowest dimension."""
    for d, (lo, hi) in sorted(fiber.items()):
        bad = np.flatnonzero((key[d][lo] != k) | (key[d + 1][hi] != k))
        if len(bad):
            i, j = int(lo[bad[0]]), int(hi[bad[0]])
            raise ValueError(f"pair ({(d, i)},{(d + 1, j)}) leaves fiber {k}")


def _check_order(complex, key, key_leq) -> None:
    for d in range(1, complex.dim + 1):
        faces = complex.face_table(d, np.arange(complex.n_cells(d)))
        bad = np.argwhere(~key_leq[key[d - 1][faces], key[d][:, None]])
        if len(bad):
            j, k = bad[0]
            raise ValueError(f"cell key not order-preserving at cell ({d},{j}) face {faces[j, k]}")


def patchwork_pairs(complex, key, key_leq, fiber_pairs: dict) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Union of per-fiber matchings along an order-preserving cell key, as
    {d: (lo, hi)} arrays.

    complex is an OrderComplex; key[d][i] is the key of cell (d, i), an id
    of a poset whose order is the boolean matrix key_leq over ids.  The
    key must be order-preserving on faces, checked per dimension in one
    comparison against face_table, and every pair of fiber_pairs[k], given
    as arrays or as a list of pairs, must lie in fiber k; a failure names
    the first bad cell and face, or pair.  The union is acyclic whenever
    each piece is, which is not checked here, and neither is its
    structure: a Matching built from the pairs checks that, and
    validate_matching certifies acyclicity.
    """
    _check_order(complex, key, key_leq)
    fibers = {k: _pair_arrays(complex, pairs) for k, pairs in fiber_pairs.items()}
    for k, fiber in fibers.items():
        _check_fiber(key, fiber, k)
    return _union(fibers.values())


def patchwork_matching(complex, key, key_leq, fiber_pairs: dict) -> Matching:
    """The Matching of patchwork_pairs."""
    return Matching(complex, patchwork_pairs(complex, key, key_leq, fiber_pairs))


def equivariant_patchwork_matching(complex, action, key, key_action, key_leq, rep_pairs: dict) -> Matching:
    """Assemble a group-stable matching from one matching per key orbit.

    key and key_leq are as in patchwork_pairs; key_action(g, q) is the
    key id that g sends key id q to.  rep_pairs supplies exactly one
    fiber matching per key orbit, each stable under the stabilizer of its
    key.  A breadth-first search from each representative key r moves its
    fiber one generator step at a time, as whole {d: (lo, hi)} arrays
    through the generator's image arrays, recording a transversal element
    t_q with t_q(r) = q for every key q it reaches.  A step g from q onto
    an already reached key must reproduce, as a set, the fiber stored
    there; the elements t_{gq}^-1 g t_q so tested generate the stabilizer
    of r (Schreier's lemma), so the search checks the stabilizer condition,
    covers the orbit and transports the fiber in one pass.
    """
    keys = set(np.unique(np.concatenate(key)).tolist())
    generators = action.group.generators
    fibers: dict = {}
    for r, pairs in rep_pairs.items():
        if r not in keys:
            raise ValueError(f"representative {r} is not the key of any cell")
        if r in fibers:
            raise ValueError(f"representative {r} lies in the key orbit of another representative")
        fibers[r] = _pair_arrays(complex, pairs)
        _check_fiber(key, fibers[r], r)
        transversal = {r: Perm.identity(action.group.n)}
        queue = [r]
        for q in queue:
            for g in generators:
                gq = key_action(g, q)
                img = action.images(g)
                # every fiber of the orbit is moved from fibers[r], so all of
                # them hold the same dimensions
                image = {d: (img[d][lo], img[d + 1][hi]) for d, (lo, hi) in fibers[q].items()}
                if gq not in transversal:
                    fibers[gq] = image
                    transversal[gq] = g * transversal[q]
                    queue.append(gq)
                elif any(not np.array_equal(_pair_codes(*image[d]), _pair_codes(*fibers[gq][d])) for d in image):
                    witness = transversal[gq].inverse() * g * transversal[q]
                    raise ValueError(f"fiber matching at {r} is not stabilizer-equivariant (fails {witness})")
    missing = keys - fibers.keys()
    if missing:
        raise ValueError(f"no representative for the key orbit of {min(missing)}")
    _check_order(complex, key, key_leq)
    for k, fiber in fibers.items():
        _check_fiber(key, fiber, k)
    return Matching(complex, _union(fibers.values()))


def quotient_matching(matching: Matching, quotient) -> Matching:
    """Push an equivariant matching down to orbit cells; raises
    InvalidMatchingError when the result is cyclic."""
    if not check_equivariance(matching, quotient.action):
        raise ValueError("matching is not equivariant under the quotient group")
    orbit_of = quotient.orbit_of
    pairs = {}
    for d, (lo, hi) in matching.pair_arrays().items():
        codes = _pair_codes(orbit_of[d][lo], orbit_of[d + 1][hi])
        pairs[d] = (codes >> 32, codes & 0xFFFFFFFF)
    result = Matching(quotient, pairs)
    cert = validate_matching(quotient, result)
    if not cert.is_acyclic:
        raise InvalidMatchingError(f"quotient matching is cyclic: {cert.witness_cycle}")
    return result


def cone_matching(complex, vertex_indices, apex_index: int) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Matching pairs sigma \\ {apex} <-> sigma + {apex} over all chains
    inside the given vertex set, as {d: (lo, hi)} arrays; the apex must be
    the subposet maximum.  The upper cells are the chains inside the set
    that end at the apex, each paired with its prefix chain, so the only
    cell left unmatched is the apex vertex itself."""
    keep = np.isin(np.arange(len(complex.elements)), list(vertex_indices))
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

    descend maps vertex index to vertex index; it must satisfy
    d(x) <= x, d(d(x)) = d(x), and monotonicity, all checked here.  Then
    the vertices before the smallest moving vertex m of a chain are fixed
    and below d(m), so a chain is an upper cell iff d(m) is the vertex
    just before m, and its partner is the face without d(m).
    """
    m = len(complex.elements)
    verts = np.arange(m) if vertex_indices is None else np.unique(np.fromiter(vertex_indices, dtype=np.intp))
    image = np.arange(m)
    image[verts] = [descend(v) for v in verts.tolist()]
    img, less = image[verts], complex.less
    bad = np.flatnonzero(~np.isin(img, verts))
    if len(bad):
        raise ValueError(f"operator escapes the ground poset at vertex {verts[bad[0]]}")
    bad = np.flatnonzero((img != verts) & ~less[img, verts])
    if len(bad):
        raise ValueError(f"operator is not descending at vertex {verts[bad[0]]}")
    bad = np.flatnonzero(image[img] != img)
    if len(bad):
        raise ValueError(f"operator is not idempotent at vertex {verts[bad[0]]}")
    bad = np.argwhere(less[np.ix_(verts, verts)] & (img[:, None] != img) & ~less[np.ix_(img, img)])
    if len(bad):
        v, u = verts[bad[0]]
        raise ValueError(f"operator is not monotone on {v} <= {u}")

    keep = np.isin(np.arange(m), verts)
    moving = image != np.arange(m)
    inside = complex.fold(keep, np.logical_and)
    # pos: the position of the smallest moving vertex, -1 when none; hit:
    # whether the vertex just before it is its image
    pos = np.where(moving[complex.last[0]], 0, -1)
    hit = np.zeros(len(pos), dtype=bool)
    pairs = {}
    for d in range(1, complex.dim + 1):
        parent, last = complex.parent[d], complex.last[d]
        new = (pos[parent] < 0) & moving[last]
        hit = np.where(new, complex.last[d - 1][parent] == image[last], hit[parent])
        pos = np.where(new, d, pos[parent])
        upper = np.flatnonzero(inside[d] & hit)
        pairs[d - 1] = (complex.face_table(d, upper)[np.arange(len(upper)), pos[upper] - 1], upper)
    return pairs


@dataclass
class MorseData:
    """Critical cells with gradient-path boundary and cycle representatives."""

    complex: object
    matching: Matching
    critical: list[list[int]]
    boundary: list[list[dict[int, int]]]
    cycle_reps: dict[Cell, dict[int, int]] | None = None

    def critical_counts(self) -> list[int]:
        return [len(layer) for layer in self.critical]

    def chain_data(self) -> ExplicitComplex:
        """The Morse complex, its cells labelled as the critical cells."""
        labels = [[self.complex.cell_label(d, i) for i in layer] for d, layer in enumerate(self.critical)]
        return ExplicitComplex(labels, [[list(col.items()) for col in layer] for layer in self.boundary[1:]])


def _flow_memo(complex, up: list[int], crit_layer: set[int], d: int) -> dict:
    """Lazy signed gradient-path counts from d-cells down into critical
    d-cells, up being the upper partners of the d-cells; memo[y] maps
    critical cell index -> path count."""
    memo: dict[int, dict[int, int]] = {}

    def flow(y0: int) -> dict[int, int]:
        stack = [y0]
        while stack:
            y = stack[-1]
            if y in memo:
                stack.pop()
                continue
            if y in crit_layer:
                memo[y] = {y: 1}
                stack.pop()
                continue
            w = up[y]
            if w < 0:
                # unmatched handled above; matched downward dead-ends
                memo[y] = {}
                stack.pop()
                continue
            inc = dict(complex.faces(d + 1, w))
            sy = inc[y]
            if abs(sy) != 1:
                raise InvalidMatchingError(f"matched incidence of ({d},{y}) in ({d+1},{w}) is {sy}")
            pending = [z for z in inc if z != y and z not in memo]
            if pending:
                stack.extend(pending)
                continue
            acc: dict[int, int] = {}
            for z, sz in inc.items():
                if z == y:
                    continue
                for c, v in memo[z].items():
                    acc[c] = acc.get(c, 0) + (-sy * sz) * v
            memo[y] = {c: v for c, v in acc.items() if v}
            stack.pop()
        return memo[y0]

    return flow


def morse_data(matching: Matching, cycle_reps=False) -> MorseData:
    """Critical cells, gradient-path boundary matrices, and optionally a
    cycle representative per critical cell (the stabilized discrete flow)."""
    cx = matching.complex
    critical = matching.critical_cells()
    boundary: list[list[dict[int, int]]] = [[]]
    for d in range(1, cx.dim + 1):
        crit_below = critical[d - 1]
        position = {c: k for k, c in enumerate(crit_below)}
        flow = _flow_memo(cx, matching.up[d - 1].tolist(), set(crit_below), d - 1)
        cols = []
        for u in critical[d]:
            acc: dict[int, int] = {}
            for y, s in cx.faces(d, u):
                for c, v in flow(y).items():
                    acc[c] = acc.get(c, 0) + s * v
            cols.append({position[c]: v for c, v in acc.items() if v})
        boundary.append(cols)
    reps = None
    if cycle_reps:
        reps = {}
        for d in range(cx.dim + 1):
            for i in critical[d]:
                reps[(d, i)] = gradient_chain(matching, (d, i))
    return MorseData(cx, matching, critical, boundary, reps)


def gradient_chain(matching: Matching, cell: Cell) -> dict[int, int]:
    """Stabilized discrete flow of a critical cell: iterate
    x -> x + boundary(raise(x)) + raise(boundary(x)) to a fixpoint."""
    cx = matching.complex
    d, start = cell

    def raise_chain(chain: dict[int, int], k: int) -> dict[int, int]:
        out: dict[int, int] = {}
        for a, va in chain.items():
            b = int(matching.up[k][a])
            if b < 0:
                continue
            s = dict(cx.faces(k + 1, b))[a]
            out[b] = out.get(b, 0) + (-s) * va
        return {b: v for b, v in out.items() if v}

    def lower_chain(chain: dict[int, int], k: int) -> dict[int, int]:
        out: dict[int, int] = {}
        for a, va in chain.items():
            for y, s in cx.faces(k, a):
                out[y] = out.get(y, 0) + s * va
        return {y: v for y, v in out.items() if v}

    r = {start: 1}
    for _ in range(cx.total_cells() + 10):
        nxt = dict(r)
        if d >= 1:
            for b, v in raise_chain(lower_chain(r, d), d - 1).items():
                nxt[b] = nxt.get(b, 0) + v
        up = raise_chain(r, d)
        if up:
            for b, v in lower_chain(up, d + 1).items():
                nxt[b] = nxt.get(b, 0) + v
        nxt = {a: v for a, v in nxt.items() if v}
        if nxt == r:
            return r
        r = nxt
    raise InvalidMatchingError("discrete flow did not stabilize; matching is not acyclic")


def cohomology_representatives(data: MorseData, d: int) -> list[dict[int, int]]:
    """One integer cochain per critical top cell: the signed count of
    alternating gradient paths from each top cell down-up to the critical
    one.  Only the top dimension is supported."""
    cx = data.complex
    if d != cx.dim:
        raise ValueError(f"representatives are only available in the top dimension {cx.dim}")
    crit_top = set(data.critical[d])
    up = data.matching.up[d - 1].tolist()
    memo: dict[int, dict[int, int]] = {}

    def project(s0: int) -> dict[int, int]:
        stack = [s0]
        while stack:
            s = stack[-1]
            if s in memo:
                stack.pop()
                continue
            steps = []
            for y, sy in cx.faces(d, s):
                w = up[y]
                if w >= 0 and w != s:
                    sw = dict(cx.faces(d, w))[y]
                    if abs(sw) != 1:
                        raise InvalidMatchingError(f"matched incidence of ({d-1},{y}) in ({d},{w}) is {sw}")
                    steps.append((w, -sy * sw))
            pending = [w for w, _ in steps if w not in memo]
            if pending:
                stack.extend(pending)
                continue
            acc: dict[int, int] = {s: 1} if s in crit_top else {}
            for w, coef in steps:
                for c, v in memo[w].items():
                    acc[c] = acc.get(c, 0) + coef * v
            memo[s] = {c: v for c, v in acc.items() if v}
            stack.pop()
        return memo[s0]

    cochains = []
    for c in data.critical[d]:
        z: dict[int, int] = {}
        for s in range(cx.n_cells(d)):
            v = project(s).get(c, 0)
            if v:
                z[s] = v
        cochains.append(z)
    return cochains


def cohomology_pairing(data: MorseData) -> np.ndarray:
    """Pairing matrix of the top cochain representatives against the
    cycle representatives of the critical top cells."""
    d = data.complex.dim
    if data.cycle_reps is None:
        raise ValueError("morse_data must be computed with cycle_reps=True")
    cochains = cohomology_representatives(data, d)
    reps = [data.cycle_reps[(d, c)] for c in data.critical[d]]
    mat = np.zeros((len(cochains), len(reps)), dtype=np.int64)
    for a, z in enumerate(cochains):
        for b, r in enumerate(reps):
            mat[a, b] = sum(v * r.get(s, 0) for s, v in z.items())
    return mat
