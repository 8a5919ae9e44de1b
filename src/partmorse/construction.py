"""The equivariant acyclic matching on the partition-lattice nerve.

The construction splits the cells of the nerve by the atom a chain
starts with: chains led by a "pair vertex" (a doubleton {1,k} plus
singletons) form one fiber per k, and everything else forms the zero
fiber.  The zero fiber collapses onto the split vertex {{1},{2,...,n}}
through a closure operator followed by a cone; the fiber over {1,n} is a
lifted copy of the whole construction one size down; the remaining
fibers are transported copies under the stabilizer of 1.  What survives
is the split vertex plus one free orbit of top-dimensional chains of
"anchored" partitions (all blocks away from 1 singleton).  These special
cells are kept as cell indices of the nerve: anchored_flags folds the
anchored vertices along the prefix tree, and critical_set_witness
compares them and the split vertex with the critical cells.

Every vertex predicate is one array operation on the nerve's
restricted-growth table (OrderComplex.labels), label 0 being the block
of 1: anchored, pair vertex, patchwork key, the meet with the split vertex
(1 moved to the unused label n-1) and the lift (label 0 appended), with
no Partition or Simplex form; split_vertex and pair_vertex are the
Partition forms of the two named vertices, for callers.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from .morse import (
    Matching,
    check_equivariance,
    equivariant_patchwork_matching,
    patchwork_matching,
    closure_matching,
    cone_matching,
    quotient_matching,
    validate_matching,
)
from .ordercomplex import OrderComplex, distinct, proper_part_complex
from .perm import ComplexAction, Perm, PermGroup, QuotientComplex, orbit_labels
from .setpart import Partition


def split_vertex(n: int) -> Partition:
    """The partition {{1},{2,...,n}}: the unique critical vertex."""
    return Partition.from_rgs(_split_row(n))


def pair_vertex(n: int, k: int) -> Partition:
    """The atom {{1,k}, singletons}."""
    if not 2 <= k <= n:
        raise ValueError(f"pair vertex needs 2 <= k <= n, got {k}")
    return Partition.from_rgs(_pair_row(n, k))


# -- the predicates on restricted-growth tables -------------------------


def _anchored_mask(labels: np.ndarray) -> np.ndarray:
    """Which rows are anchored: the block of 1 (label 0) and singletons,
    so as many blocks as elements outside the block of 1, plus one."""
    return labels.max(axis=1) == labels.shape[1] - (labels == 0).sum(axis=1)


def _pair_mask(labels: np.ndarray) -> np.ndarray:
    """Which rows are pair vertices: anchored with a block of 1 of size 2."""
    return _anchored_mask(labels) & ((labels == 0).sum(axis=1) == 2)


def _split_row(n: int) -> list[int]:
    """The restricted-growth string of split_vertex(n)."""
    return [0] + [1] * (n - 1)


def _pair_row(n: int, k: int) -> list[int]:
    """The restricted-growth string of pair_vertex(n, k)."""
    return [0 if e in (1, k) else e - 1 - (e > k) for e in range(1, n + 1)]


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
    """The cell key of build_main_matching: key[d][i] is the largest key
    of a vertex of chain (d, i), which is 0 for a vertex with {1} a block
    (the cone stage), 1 for another vertex of the zero fiber (the closure
    stage) and k for the pair vertex {1,k}, the place of the last label 0
    in its row.  A pair vertex is an atom, so it can only lead a chain:
    key k >= 2 is the fiber led by {1,k}, and key < 2 the zero fiber."""
    labels = cx.labels
    k = labels.shape[1] - np.argmax(labels[:, ::-1] == 0, axis=1)
    return cx.fold(np.where(_pair_mask(labels), k, (labels == 0).sum(axis=1) > 1), np.maximum)


def _key_action(g: Perm, k: int) -> int:
    return g(k) if k else 0


def fiber_zero_matching(n: int) -> Matching:
    """Matching on the chains with no pair vertex; only the split vertex
    survives.

    Stage one collapses along the descending closure operator
    x -> meet(x, split): chains holding a vertex that does not keep 1
    in a singleton block are toggled on the split-off copy of their
    smallest such vertex.  Stage two cones what remains (chains of
    partitions with {1} a singleton) onto the split vertex.  The stages
    are glued along patchwork_keys clipped at 2, which puts the
    pair-vertex fibers, holding no pairs here, at key 2.
    """
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


def lift_cells(prev_cx: OrderComplex, cx: OrderComplex) -> list[np.ndarray]:
    """lift_cells(...)[d][i] is the index in dimension d+1 of cx, the nerve
    one size up, of the lift of cell (d, i) of prev_cx: the new element n
    joins the block of 1 in every vertex, which on restricted-growth
    strings appends label 0, and the pair vertex {1,n} is put in front."""
    labels = prev_cx.labels
    n = labels.shape[1] + 1
    vmap = cx.locate_labels(np.column_stack([labels, np.zeros(len(labels), dtype=labels.dtype)]))
    return list(prev_cx.map_chains(vmap, cx, start=_vertex(cx, _pair_row(n, n))))


def build_main_matching(n: int) -> Matching:
    """The stabilizer-equivariant acyclic matching on the nerve of the
    proper partition lattice, assembled fiber by fiber.

    Critical cells: the split vertex and the (n-1)! anchored flags.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if n in _matchings:
        return _matchings[n]
    cx = get_complex(n)
    action = get_action(n)

    last_pairs = {}
    if n > 3:
        prev = build_main_matching(n - 1)
        img = lift_cells(prev.complex, cx)
        # the lift leaves the bare pair-vertex chain unmatched; close it
        # off against the lift of the split vertex one size down
        bottom = _vertex(cx, _pair_row(n, n))
        first_edge = img[0][_vertex(prev.complex, _split_row(n - 1))]
        last_pairs = {0: (np.array([bottom]), np.array([first_edge]))}
        for d, (lo, hi) in prev.pair_arrays().items():
            last_pairs[d + 1] = (img[d][lo], img[d + 1][hi])

    # cone stage 0 < closure stage 1 < every fiber k, the fibers being
    # incomparable; at n = 3 key 1 names no cell.  All pairs are checked once.
    leq = np.eye(n + 1, dtype=bool)
    leq[0] = leq[1, 1:] = True
    fibers = {**_fiber_zero_pairs(n), n: last_pairs}
    if n == 3:
        del fibers[1]
    matching = equivariant_patchwork_matching(cx, action, patchwork_keys(cx), _key_action, leq, fibers)
    _matchings[n] = matching
    return matching


# -- quotients and labels ----------------------------------------------


def quotient_critical_cells(n: int, subgroup: PermGroup):
    """Quotient the main matching by a subgroup fixing 1; returns the
    quotient matching and the quotient complex."""
    if not subgroup.fixes_point(1):
        raise ValueError("subgroup must fix 1")
    matching = build_main_matching(n)
    qc = QuotientComplex(get_complex(n), subgroup)
    qm = quotient_matching(matching, qc)
    return qm, qc


def block_size_label(p: Partition) -> str:
    """Number-partition label distinguishing the block of 1; the
    partition 1,2|3|4 gets "2⊕1+1", the split vertex 1|2,3,4 gets "1⊕3"."""
    first = len(p.block_containing(1))
    rest = sorted((len(b) for b in p.blocks if 1 not in b), reverse=True)
    return f"{first}⊕" + "+".join(str(v) for v in rest)


def orbit_vertex_label(qc: QuotientComplex, i: int) -> str:
    """Label of a vertex orbit of the quotient by the full stabilizer of 1."""
    n = qc.base.labels.shape[1]
    if qc.group.order != factorial(n - 1) or not qc.group.fixes_point(1):
        raise ValueError("labels require the quotient by the full stabilizer of 1")
    return block_size_label(Partition.from_rgs(qc.base.labels[qc.reps[0][i]].tolist()))


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
