"""The equivariant acyclic matching on the partition-lattice nerve.

The paper splits the cells of the nerve by the atom a chain starts with:
chains led by a "pair vertex" (a doubleton {1,k} plus singletons) form
one fiber per k, and the rest form the zero fiber, which collapses onto
the split vertex {{1},{2,...,n}} through a closure operator and then a
cone (fiber_zero_matching).  The fiber over {1,n} is a lifted copy of
the whole construction one size down, and the other fibers are its
transports under the stabilizer of 1, glued by the Equivariant
Patchwork Theorem.  build_main_matching reads that matching off each
chain by the rule the recursion unrolls to, in one fold along the
prefix tree of the nerve of size n alone: un-lifting a chain led by
{1,k} (swap k and n, delete n) leaves a chain one size down, and what
the un-lifts leave falls to the zero fiber of a smaller size.  The tests
keep the lift-and-patchwork assembly as the rule's oracle.  What
survives is the split vertex plus one free orbit of top-dimensional
chains of "anchored" partitions (all blocks away from 1 singleton), kept
as cell indices: anchored_flags folds the anchored vertices along the
prefix tree, and critical_set_witness compares them and the split vertex
with the critical cells.

Every vertex predicate is one array operation on the nerve's
restricted-growth table (OrderComplex.labels), label 0 being the block
of 1, with no Partition or Simplex form, and no Perm is made beyond
group generators.  get_action(n), the one action of the stabilizer of 1
at size n, serves the equivariance check, the flag orbits and the
stabilizer quotient.
"""

from __future__ import annotations

import numpy as np

from .morse import (
    Matching,
    check_equivariance,
    patchwork_matching,
    closure_matching,
    cone_matching,
    quotient_matching,
    validate_matching,
)
from .ordercomplex import OrderComplex, distinct, proper_part_complex
from .perm import ComplexAction, PermGroup, QuotientComplex, orbit_labels


# -- the predicates on restricted-growth tables -------------------------


def _anchored_mask(labels: np.ndarray) -> np.ndarray:
    """Which rows are anchored: the block of 1 (label 0) and singletons,
    so as many blocks as elements outside the block of 1, plus one."""
    return labels.max(axis=1) == labels.shape[1] - (labels == 0).sum(axis=1)


def _pair_mask(labels: np.ndarray) -> np.ndarray:
    """Which rows are pair vertices: anchored with a block of 1 of size 2."""
    return _anchored_mask(labels) & ((labels == 0).sum(axis=1) == 2)


def _split_row(n: int) -> list[int]:
    """The restricted-growth string of the split vertex {{1},{2,...,n}}."""
    return [0] + [1] * (n - 1)


def _vertex(cx: OrderComplex, row) -> int:
    """The index of the vertex of the nerve cx with this restricted-growth string."""
    return int(cx.locate_labels(np.array([row]))[0])


# -- cached complexes, actions, matchings ------------------------------

_complexes: dict[int, OrderComplex] = {}
_actions: dict[int, ComplexAction] = {}
_matchings: dict[int, Matching] = {}


def get_complex(n: int) -> OrderComplex:
    if n not in _complexes:
        _complexes[n] = proper_part_complex(n)
    return _complexes[n]


def get_action(n: int) -> ComplexAction:
    """The stabilizer of 1 acting on the nerve cells."""
    if n not in _actions:
        _actions[n] = ComplexAction(get_complex(n), PermGroup.point_stabilizer(n))
    return _actions[n]


def anchored_flags(n: int) -> np.ndarray:
    """Sorted indices of the top cells of get_complex(n) whose vertices
    are all anchored.  Along such a chain the block holding 1 grows one
    element per step from size 2 to n-1, so the flags correspond to
    ordered choices of n-2 of the n-1 other elements: (n-1)! of them."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    cx = get_complex(n)
    return np.flatnonzero(cx.fold(_anchored_mask(cx.labels), np.logical_and)[cx.dim])


def patchwork_keys(cx: OrderComplex) -> list[np.ndarray]:
    """The cell key of the paper's patchwork: key[d][i] is the largest key
    of a vertex of chain (d, i), which is 0 for a vertex with {1} a block
    (the cone stage), 1 for another vertex of the zero fiber (the closure
    stage) and k for the pair vertex {1,k}, the place of the last label 0
    in its row.  A pair vertex is an atom, so it can only lead a chain:
    key k >= 2 is the fiber led by {1,k}, and key < 2 the zero fiber."""
    labels = cx.labels
    k = labels.shape[1] - np.argmax(labels[:, ::-1] == 0, axis=1)
    return cx.fold(np.where(_pair_mask(labels), k, (labels == 0).sum(axis=1) > 1), np.maximum)


def fiber_zero_matching(n: int) -> Matching:
    """Matching on the chains with no pair vertex; only the split vertex
    survives.  Stage one collapses along the descending closure operator
    x -> meet(x, split): chains holding a vertex that does not keep 1
    in a singleton block are toggled on the split-off copy of their
    smallest such vertex.  Stage two cones what remains (chains of
    partitions with {1} a singleton) onto the split vertex.  The stages
    are glued along patchwork_keys clipped at 2, which puts the
    pair-vertex fibers, holding no pairs here, at key 2."""
    cx = get_complex(n)
    key = [np.minimum(layer, 2) for layer in patchwork_keys(cx)]
    leq = np.triu(np.ones((3, 3), dtype=bool))
    return patchwork_matching(cx, key, leq, _fiber_zero_pairs(n))


def _fiber_zero_pairs(n: int) -> dict[int, dict]:
    """The pairs of the zero fiber by stage, as {0: cone pairs, 1: closure
    pairs}, each {d: (lo, hi)}, unchecked."""
    cx = get_complex(n)
    ground = np.flatnonzero(~_pair_mask(cx.labels))
    # the meet with the split vertex moves 1 into a block of its own, the
    # unused label n-1; at a pair vertex that gives the discrete partition
    met = cx.labels[ground]
    met[:, 0] = n - 1
    descend = np.arange(len(cx.labels))
    descend[ground] = cx.locate_labels(met)
    fixed = ground[descend[ground] == ground]
    cone = cone_matching(cx, fixed, _vertex(cx, _split_row(n)))
    return {0: cone, 1: closure_matching(cx, descend.__getitem__, ground)}


def build_main_matching(n: int) -> Matching:
    """The stabilizer-equivariant acyclic matching on the nerve of the
    proper partition lattice, by one fold along the prefix tree.  With
    b(v) the size of the block of 1 and c(v) the number of blocks, a
    chain v_0 < ... < v_d has p, the length of its leading run of anchored
    v_i with b(v_i) = i+2, and q, its first index >= p with b(v_q) > p+1,
    if any.  Given q, it drops v_{q-1} iff q >= p+1 and c(v_{q-1}) =
    c(v_q)+1 (closure stage); else v_d iff d >= p and c(v_d) = 2 (cone
    stage, which at d = p closes off the lifted split vertex).  Its
    partner is the face without that vertex, read off face_array.

    Critical cells: the split vertex and the (n-1)! anchored flags.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if n in _matchings:
        return _matchings[n]
    cx = get_complex(n)
    b = (cx.labels == 0).sum(axis=1).astype(np.int8)
    c = (cx.labels.max(axis=1) + 1).astype(np.int8)
    anchored = _anchored_mask(cx.labels)
    # per chain: p, q (-1 while none) and hit, the closure test at q; the
    # vertices are the 0-cells in order
    p = (anchored & (b == 2)).astype(np.int8)
    q = np.where(b > p + 1, 0, -1).astype(np.int8)
    hit = np.zeros(len(b), dtype=bool)
    pairs = {}
    for d in range(1, cx.dim + 1):
        parent, v = cx.parent[d], cx.last[d]
        bv, cv = b.take(v), c.take(v)
        p, q = p.take(parent), q.take(parent)
        p[(p == d) & anchored.take(v) & (bv == d + 2)] = d + 1
        new = (q < 0) & (p <= d) & (bv > p + 1)
        hit = np.where(new, (p < d) & (c.take(cx.last[d - 1].take(parent)) == cv + 1), hit.take(parent))
        q[new] = d
        upper = np.flatnonzero(np.where(q < 0, (p <= d) & (cv == 2), hit))
        drop = np.where(q[upper] < 0, d, q[upper] - 1)
        pairs[d - 1] = (cx.face_array(d)[upper, drop], upper)
    _matchings[n] = Matching(cx, pairs)
    return _matchings[n]


# -- quotients, witnesses and reports -----------------------------------


def quotient_critical_cells(n: int, subgroup: PermGroup):
    """Quotient the main matching by a subgroup fixing 1, over one action
    of the subgroup; returns the quotient matching and the quotient
    complex."""
    if not subgroup.fixes_point(1):
        raise ValueError("subgroup must fix 1")
    matching = build_main_matching(n)
    qc = QuotientComplex(ComplexAction(get_complex(n), subgroup))
    qm = quotient_matching(matching, qc)
    return qm, qc


def flag_orbits(n: int, flags) -> tuple[np.ndarray, np.ndarray]:
    """The distinct top-cell indices among flags, and the sizes of their
    orbits under the stabilizer of 1, by perm.orbit_labels."""
    cx, action = get_complex(n), get_action(n)
    top = distinct(flags)
    label = orbit_labels(cx.n_cells(cx.dim), [action.images(g)[cx.dim] for g in action.group.generators])
    return top, np.bincount(label)[distinct(label[top])]


def critical_set_witness(matching: Matching, flags, among=None) -> str | None:
    """None when the critical cells of a matching on the nerve are exactly
    the top cells flags plus the split vertex; otherwise the first cell,
    by dimension then index, in only one of the two sets, named with its
    label as unexpected (critical) or missing.  among, one boolean mask
    per dimension, restricts both sets to its cells."""
    cx = matching.complex
    wanted = [np.zeros(size, dtype=bool) for size in cx.f_vector()]
    wanted[cx.dim][np.asarray(flags, dtype=np.intp)] = True
    wanted[0][_vertex(cx, _split_row(cx.labels.shape[1]))] = True
    for d, critical in enumerate(matching.critical_cells()):
        odd = wanted[d].copy()
        odd[critical] = ~odd[critical]
        if among is not None:
            odd &= among[d]
        if odd.any():
            i = int(odd.argmax())
            return f"{'missing' if wanted[d][i] else 'unexpected'} cell ({d}, {i}): {cx.cell_label(d, i)}"
    return None


def zero_fiber_witness(matching: Matching) -> str | None:
    """None when the zero fiber of a matching on the nerve, its cells of
    patchwork_keys below 2, collapses to the split vertex: no pair has
    exactly one cell in it, and the split vertex is its one critical cell.
    Otherwise the first pair with one cell in it, by dimension then lower
    cell, named with its labels, or else the cell critical_set_witness
    names among the zero fiber."""
    cx = matching.complex
    zero = [key < 2 for key in patchwork_keys(cx)]
    for d, (lo, hi) in matching.pair_arrays().items():
        cross = np.flatnonzero(zero[d][lo] != zero[d + 1][hi])
        if len(cross):
            i, j = lo[cross[0]], hi[cross[0]]
            labels = f"{cx.cell_label(d, i)} -> {cx.cell_label(d + 1, j)}"
            return f"pair ({d}, {i}) -> ({d + 1}, {j}) crosses the zero fiber: {labels}"
    return critical_set_witness(matching, [], among=zero)


def matching_report(n: int) -> dict:
    """Certificates and counts for the main matching at one size."""
    matching = build_main_matching(n)
    cx = matching.complex
    action = get_action(n)
    cert = validate_matching(cx, matching)
    flags = anchored_flags(n)
    _, orbit_sizes = flag_orbits(n, flags)
    return {
        "n": n,
        "criticalCounts": matching.critical_counts(),
        "cardinalityCn": len(flags),
        "certificates": {
            "acyclic": cert.is_acyclic,
            "equivariant": check_equivariance(matching, action),
            "criticalSetMatches": critical_set_witness(matching, flags) is None,
        },
        "orbitData": {
            "orbits": len(orbit_sizes),
            "stabilizerOrder": action.group.order // int(orbit_sizes.min()),
        },
    }
