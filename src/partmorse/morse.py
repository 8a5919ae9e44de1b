"""Acyclic matchings on face posets and their Morse chain data.

A matching pairs cells with codimension-1 faces; acyclicity is decided on
the modified face digraph (matched edges reversed).  Composition follows
the patchwork pattern: an order-preserving map into a small poset plus one
matching per fiber yields a matching on the whole complex, and a group
action transports fiber matchings across orbits.  Group conditions are
checked on the generators alone.  Assembly checks structure but not
acyclicity: an assembled matching is certified once, by validate_matching.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ordercomplex import ExplicitComplex, parse_simplex
from .perm import Perm

Cell = tuple[int, int]
Pair = tuple[Cell, Cell]


class InvalidMatchingError(ValueError):
    pass


def _build_partner(complex, pairs) -> dict[Cell, Cell]:
    """Strict structural check; raises InvalidMatchingError on any defect."""
    partner: dict[Cell, Cell] = {}
    for pair in pairs:
        (d, i), (e, j) = pair
        if e != d + 1:
            raise InvalidMatchingError(f"pair {pair} does not span one dimension")
        for dd, k in ((d, i), (e, j)):
            if not (0 <= dd <= complex.dim and 0 <= k < complex.n_cells(dd)):
                raise InvalidMatchingError(f"dangling cell ({dd}, {k})")
        coeff = dict(complex.faces(e, j)).get(i, 0)
        if abs(coeff) != 1:
            raise InvalidMatchingError(
                f"cell ({d},{i}) is not a regular face of ({e},{j}) (coefficient {coeff})"
            )
        for c in pair:
            if c in partner:
                raise InvalidMatchingError(f"cell {c} appears in two pairs")
        partner[(d, i)] = (e, j)
        partner[(e, j)] = (d, i)
    return partner


class Matching:
    """A validated partial matching along codimension-1 incidences."""

    def __init__(self, complex, pairs):
        self.complex = complex
        self.pairs: tuple[Pair, ...] = tuple(sorted(pairs))
        self.partner = _build_partner(complex, self.pairs)

    def partner_of(self, cell: Cell) -> Cell | None:
        return self.partner.get(cell)

    def is_critical(self, cell: Cell) -> bool:
        return cell not in self.partner

    def critical_cells(self) -> list[list[int]]:
        """Per-dimension sorted index lists of unmatched cells."""
        out = []
        for d in range(self.complex.dim + 1):
            out.append([i for i in range(self.complex.n_cells(d)) if (d, i) not in self.partner])
        return out

    def critical_counts(self) -> list[int]:
        return [len(layer) for layer in self.critical_cells()]

    def dump(self) -> str:
        lines = []
        for (d, i), (e, j) in self.pairs:
            lines.append(f"{self.complex.cell_label(d, i)} -> {self.complex.cell_label(e, j)}")
        return "\n".join(lines)


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


def find_cycle(complex, partner: dict[Cell, Cell]) -> list[Cell] | None:
    """A directed cycle of the modified face digraph, or None.

    Cycles always alternate between consecutive dimensions, so each
    dimension pair is searched separately; nodes are the upper cells of
    pairs, with an edge u -> u' when the cell matched to u' is a face of
    u.  Returns alternating upper/lower cells, first cell repeated last.
    """
    for d in range(complex.dim):
        nodes = []
        for j in range(complex.n_cells(d + 1)):
            down = partner.get((d + 1, j))
            if down is not None and down[0] == d:
                nodes.append(j)
        node_set = set(nodes)

        def successors(j: int) -> list[tuple[int, int]]:
            down = partner[(d + 1, j)][1]
            out = []
            for y, _ in complex.faces(d + 1, j):
                if y == down:
                    continue
                up = partner.get((d, y))
                if up is not None and up[0] == d + 1 and up[1] in node_set:
                    out.append((y, up[1]))
            return out

        color: dict[int, int] = {}
        for start in nodes:
            if color.get(start):
                continue
            path: list[int] = []
            pos: dict[int, int] = {}
            stack: list[tuple[int, iter]] = [(start, iter(successors(start)))]
            color[start] = 1
            pos[start] = 0
            path.append(start)
            while stack:
                j, it = stack[-1]
                advanced = False
                for _, nxt in it:
                    if color.get(nxt) == 1:
                        cycle_nodes = path[pos[nxt] :] + [nxt]
                        witness: list[Cell] = []
                        for a, b in zip(cycle_nodes, cycle_nodes[1:]):
                            witness.append((d + 1, a))
                            witness.append(partner[(d + 1, b)])
                        witness.append((d + 1, cycle_nodes[-1]))
                        return witness
                    if nxt not in color:
                        color[nxt] = 1
                        pos[nxt] = len(path)
                        path.append(nxt)
                        stack.append((nxt, iter(successors(nxt))))
                        advanced = True
                        break
                if not advanced:
                    color[j] = 2
                    path.pop()
                    pos.pop(j, None)
                    stack.pop()
    return None


def check_equivariance(matching: Matching, action) -> bool:
    """True iff every element of the acting group sends every pair to a pair.

    Only the generators are applied: a generator that maps the finite pair
    set into itself permutes it, and products of such maps do too.
    """
    partner = matching.partner
    for g in action.group.generators:
        for a, b in matching.pairs:
            if partner.get(action.cell_image(g, a)) != action.cell_image(g, b):
                return False
    return True


def validate_matching(complex, pairs_or_matching, action=None) -> MatchingCertificate:
    """Certificate with matching-structure and acyclicity verdicts.

    Dangling cell references raise; structural defects (a cell in two
    pairs, a non-face pair) yield isMatching=False.  When an action is
    supplied and the matching is stable under it, equivariantUnder
    records the group.
    """
    if isinstance(pairs_or_matching, Matching):
        matching = pairs_or_matching
    else:
        for pair in pairs_or_matching:
            for dd, k in pair:
                if not (0 <= dd <= complex.dim and 0 <= k < complex.n_cells(dd)):
                    raise InvalidMatchingError(f"dangling cell ({dd}, {k})")
        try:
            matching = Matching(complex, pairs_or_matching)
        except InvalidMatchingError:
            return MatchingCertificate(False, False, ())
    cycle = find_cycle(complex, matching.partner)
    counts = tuple(matching.critical_counts())
    equivariant_under = None
    if action is not None and check_equivariance(matching, action):
        gens = ", ".join(str(g) for g in action.group.generators) or "id"
        equivariant_under = gens
    witness = None
    if cycle is not None:
        witness = tuple(matching.complex.cell_label(d, i) for d, i in cycle)
    return MatchingCertificate(True, cycle is None, counts, equivariant_under, witness)


def _coerce_pairs(piece) -> list[Pair]:
    if isinstance(piece, Matching):
        return list(piece.pairs)
    return list(piece)


def patchwork_matching(complex, cell_key, key_leq, fiber_pairs: dict) -> Matching:
    """Union of per-fiber matchings along an order-preserving cell key.

    cell_key maps cells to elements of a poset with order key_leq; it
    must be order-preserving on cover relations, and every supplied pair
    must stay inside its own fiber; both conditions are checked.  The
    union is acyclic whenever each piece is, which is not checked here:
    certify the assembled matching with validate_matching.
    """
    for d in range(1, complex.dim + 1):
        for j in range(complex.n_cells(d)):
            ku = cell_key((d, j))
            for y, _ in complex.faces(d, j):
                if not key_leq(cell_key((d - 1, y)), ku):
                    raise ValueError(f"cell key not order-preserving at cell ({d},{j}) face {y}")
    union: list[Pair] = []
    for k, piece in fiber_pairs.items():
        for a, b in _coerce_pairs(piece):
            if cell_key(a) != k or cell_key(b) != k:
                raise ValueError(f"pair ({a},{b}) leaves fiber {k}")
            union.append((a, b))
    return Matching(complex, union)


def equivariant_patchwork_matching(complex, action, cell_key, key_action, key_leq, rep_pairs: dict) -> Matching:
    """Assemble a group-stable matching from one matching per key orbit.

    Keys are acted on through key_action; rep_pairs supplies exactly one
    fiber matching per key orbit, each stable under the stabilizer of its
    key.  A breadth-first search from each representative key r moves its
    fiber one generator step at a time, recording a transversal element
    t_q with t_q(r) = q for every key q it reaches.  A step g from q onto
    an already reached key must reproduce, as a set, the fiber stored
    there; the elements t_{gq}^-1 g t_q so tested generate the stabilizer
    of r (Schreier's lemma), so the search checks the stabilizer condition,
    covers the orbit and transports the fiber in one pass.
    """
    keys = {cell_key((d, i)) for d in range(complex.dim + 1) for i in range(complex.n_cells(d))}
    generators = action.group.generators
    fibers: dict = {}
    for r, piece in rep_pairs.items():
        if r not in keys:
            raise ValueError(f"representative {r} is not the key of any cell")
        if r in fibers:
            raise ValueError(f"representative {r} lies in the key orbit of another representative")
        pairs = _coerce_pairs(piece)
        for a, b in pairs:
            if cell_key(a) != r or cell_key(b) != r:
                raise ValueError(f"pair ({a},{b}) leaves fiber {r}")
        fibers[r] = pairs
        transversal = {r: Perm.identity(action.group.n)}
        queue = [r]
        for q in queue:
            for g in generators:
                gq = key_action(g, q)
                image = [(action.cell_image(g, a), action.cell_image(g, b)) for a, b in fibers[q]]
                if gq not in transversal:
                    fibers[gq] = image
                    transversal[gq] = g * transversal[q]
                    queue.append(gq)
                elif set(image) != set(fibers[gq]):
                    witness = transversal[gq].inverse() * g * transversal[q]
                    raise ValueError(f"fiber matching at {r} is not stabilizer-equivariant (fails {witness})")
    missing = keys - fibers.keys()
    if missing:
        raise ValueError(f"no representative for the key orbit of {min(missing, key=repr)}")
    return patchwork_matching(complex, cell_key, key_leq, fibers)


def quotient_matching(matching: Matching, quotient) -> Matching:
    """Push an equivariant matching down to orbit cells; raises
    InvalidMatchingError when the result is cyclic."""
    if not check_equivariance(matching, quotient.action):
        raise ValueError("matching is not equivariant under the quotient group")
    pairs = set()
    for (d, i), (e, j) in matching.pairs:
        pairs.add(((d, quotient.orbit_index(d, i)), (e, quotient.orbit_index(e, j))))
    result = Matching(quotient, sorted(pairs))
    cert = validate_matching(quotient, result)
    if not cert.is_acyclic:
        raise InvalidMatchingError(f"quotient matching is cyclic: {cert.witness_cycle}")
    return result


def cone_matching(complex, vertex_indices, apex_index: int) -> list[Pair]:
    """Matching pairs sigma \\ {apex} <-> sigma + {apex} over all chains
    inside the given vertex set; the apex must be the subposet maximum.
    The only cell left unmatched is the apex vertex itself."""
    keep = set(vertex_indices)
    if apex_index not in keep:
        raise ValueError("apex not inside the vertex set")
    for v in keep:
        if v != apex_index and not complex.less[v, apex_index]:
            raise ValueError(f"apex is not a maximum: vertex {v} is not below it")
    pairs: list[Pair] = []
    for d in range(complex.dim + 1):
        for i, chain in enumerate(complex.cells[d]):
            if apex_index in chain or any(v not in keep for v in chain):
                continue
            upper = chain + (apex_index,)
            j = complex.index[d + 1].get(upper)
            if j is None:
                raise ValueError(f"cone partner of cell ({d},{i}) is not a stored chain")
            pairs.append(((d, i), (d + 1, j)))
    return pairs


def closure_matching(complex, descend, vertex_indices=None) -> list[Pair]:
    """Matching induced by a descending closure operator on the ground
    poset: each chain holding a vertex not fixed by the operator is
    toggled on the image of its smallest such vertex.  Critical cells are
    exactly the chains inside the image.

    descend maps vertex index to vertex index; it must satisfy
    d(x) <= x, d(d(x)) = d(x), and monotonicity, all checked here.
    """
    keep = set(vertex_indices) if vertex_indices is not None else set(range(len(complex.elements)))
    image = {}
    for v in keep:
        w = descend(v)
        if w not in keep:
            raise ValueError(f"operator escapes the ground poset at vertex {v}")
        if w != v and not complex.less[w, v]:
            raise ValueError(f"operator is not descending at vertex {v}")
        image[v] = w
    for v in keep:
        if image[image[v]] != image[v]:
            raise ValueError(f"operator is not idempotent at vertex {v}")
    for v in keep:
        for u in keep:
            if complex.less[v, u] and image[v] != image[u] and not complex.less[image[v], image[u]]:
                raise ValueError(f"operator is not monotone on {v} <= {u}")

    pairs: list[Pair] = []
    for d in range(complex.dim + 1):
        for i, chain in enumerate(complex.cells[d]):
            if any(v not in keep for v in chain):
                continue
            moving = next((v for v in chain if image[v] != v), None)
            if moving is None:
                continue
            w = image[moving]
            if w in chain:
                continue  # handled from the smaller chain
            k = 0
            while k < len(chain) and complex.less[chain[k], w]:
                k += 1
            upper = chain[:k] + (w,) + chain[k:]
            j = complex.index[d + 1].get(upper)
            if j is None:
                raise ValueError(f"toggle partner of cell ({d},{i}) is not a stored chain")
            pairs.append(((d, i), (d + 1, j)))
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


def _flow_memo(complex, partner: dict[Cell, Cell], crit_layer: set[int], d: int) -> dict:
    """Lazy signed gradient-path counts from d-cells down into critical
    d-cells; memo[y] maps critical cell index -> path count."""
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
            p = partner.get((d, y))
            if p is None or p[0] == d - 1:
                # unmatched handled above; matched downward dead-ends
                memo[y] = {}
                stack.pop()
                continue
            w = p[1]
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
        flow = _flow_memo(cx, matching.partner, set(crit_below), d - 1)
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
    partner = matching.partner
    d, start = cell

    def raise_chain(chain: dict[int, int], k: int) -> dict[int, int]:
        out: dict[int, int] = {}
        for a, va in chain.items():
            p = partner.get((k, a))
            if p is None or p[0] != k + 1:
                continue
            b = p[1]
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
    partner = data.matching.partner
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
                up = partner.get((d - 1, y))
                if up is not None and up[0] == d and up[1] != s:
                    w = up[1]
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
