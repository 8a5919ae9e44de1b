"""Chains of a poset enumerated from its order relation alone.

An independent reference for OrderComplex: the chains are grown one vertex
at a time from the boolean matrix `less`, never read off the prefix tree
parent/last, and returned per dimension as tuples in lexicographic order.
refinement_rows builds the refinement order of the proper part of the
partition lattice one row at a time from block labels, as
proper_part_complex did before it compared pair bitmasks.

Two more references stand beside the array tables of the package:
recursive_rgs grows the restricted-growth strings of [n] one element at a
time by recursion, as all_partitions did before setpart.rgs_table, and
perm_product_closure closes a generating set by multiplying Perm objects
breadth first, as PermGroup.generate did before it closed int32 tables.

The construction's vertex predicates and its lift, one Partition or
Simplex at a time, read off the blocks: is_anchored and is_pair_vertex
are the references for the label masks of construction, fiber_of for
the keys k >= 2 of patchwork_keys, and lift_partition and lift_chain
for lift_cells.
dense_boundary is the boundary map of one dimension as a dense matrix.
symmetric_group builds S_n from (1 2) and the n-cycle through
PermGroup.from_cycle_strings.
monotonicity_witness checks a closure operator on two |verts|^2 boolean
matrices, as closure_matching did before it read the pairs of the order.
"""

import numpy as np

from partmorse.construction import pair_vertex
from partmorse.ordercomplex import Simplex, entry_cells
from partmorse.perm import PermGroup
from partmorse.setpart import Partition


def relation_chains(less) -> list[list[tuple[int, ...]]]:
    """chains[d]: every (d+1)-element chain of the strict order `less`."""
    less = np.asarray(less, dtype=bool)
    chains = [[(i,) for i in range(len(less))]]
    while chains[-1]:
        chains.append([c + (j,) for c in chains[-1] for j in np.flatnonzero(less[c[-1]]).tolist()])
    return chains[:-1]


def chain_positions(chains) -> list[dict[tuple[int, ...], int]]:
    """index[d][chain]: the position of each chain in its dimension."""
    return [{c: i for i, c in enumerate(layer)} for layer in chains]


def refinement_rows(elements) -> np.ndarray:
    """The strict refinement order of a list of partitions of one set, one
    row at a time: p refines q iff q's block labels are constant on the
    blocks of p."""
    rgs = np.array([p.rgs for p in elements], dtype=np.int8)
    n = rgs.shape[1]
    # first[p, e]: the first element of e's block in p (blocks are numbered
    # by first appearance, so block b starts where the label b first occurs)
    starts = np.argmax(rgs[:, None, :] == np.arange(n, dtype=np.int8)[:, None], axis=2)
    first = np.take_along_axis(starts, rgs.astype(np.intp), axis=1)
    rel = np.empty((len(elements), len(elements)), dtype=bool)
    for i in range(len(elements)):
        rel[i] = (rgs[:, first[i]] == rgs).all(axis=1)
    np.fill_diagonal(rel, False)
    return rel


def recursive_rgs(n: int) -> list[tuple[int, ...]]:
    """The restricted-growth strings of [n] in lexicographic order, each
    extended by recursion with every label from 0 to its maximum plus one."""
    out: list[tuple[int, ...]] = []
    code = [0] * n

    def extend(i: int, mx: int):
        if i == n:
            out.append(tuple(code))
            return
        for v in range(mx + 2):
            code[i] = v
            extend(i + 1, max(mx, v))

    extend(1, 0)
    return out


def perm_product_closure(n: int, generators) -> tuple:
    """The sorted elements of the group the generators make, closed breadth
    first by Perm products g * h over the new elements h of each round."""
    from partmorse.perm import Perm

    els = {Perm.identity(n)}
    frontier = list(els)
    while frontier:
        new = []
        for g in generators:
            for h in frontier:
                p = g * h
                if p not in els:
                    els.add(p)
                    new.append(p)
        frontier = new
    return tuple(sorted(els))


def is_anchored(p: Partition) -> bool:
    """Every block not containing 1 is a singleton."""
    return all(len(b) == 1 for b in p.blocks if 1 not in b)


def is_pair_vertex(p: Partition) -> bool:
    """The block of 1 has two elements and every other block one."""
    return all(len(b) == (2 if 1 in b else 1) for b in p.blocks)


def fiber_of(s: Simplex):
    """The unique pair vertex of the chain, or 0 when it has none.

    Pair vertices are atoms of the refinement order, so a chain can hold
    at most one and only in front position.
    """
    hits = [v for v in s if is_pair_vertex(v)]
    if len(hits) > 1:
        raise AssertionError(f"chain {s} holds two pair vertices")
    return hits[0] if hits else 0


def lift_partition(p: Partition) -> Partition:
    """Add n to the block containing 1 (partition of [n-1] -> [n])."""
    n = p.n + 1
    return Partition(n, [sorted(b) + [n] if 1 in b else list(b) for b in p.blocks])


def lift_chain(s: Simplex) -> Simplex:
    """Send a chain over [n-1] into the fiber of the pair vertex {1,n}:
    add n to the block of 1 in every vertex and prepend the pair vertex."""
    n = s.vertices[0].n + 1
    return Simplex((pair_vertex(n, n),) + tuple(lift_partition(v) for v in s))


def dense_boundary(cx, d: int) -> np.ndarray:
    """The boundary map of dimension d >= 1 of a cell complex as a dense
    int64 matrix, rows the (d-1)-cells and columns the d-cells."""
    indptr, faces, coeffs = cx.boundary_arrays(d)
    mat = np.zeros((cx.n_cells(d - 1), cx.n_cells(d)), dtype=np.int64)
    mat[faces, entry_cells(indptr)] = coeffs
    return mat


def monotonicity_witness(less, verts, image):
    """The first v < u in row order over verts x verts (sorted) whose images
    differ and are not in order, as a pair of ints, or None: read off
    less on verts x verts and on their images x images."""
    verts = np.asarray(verts)
    img = np.asarray(image)[verts]
    bad = np.argwhere(less[np.ix_(verts, verts)] & (img[:, None] != img) & ~less[np.ix_(img, img)])
    return tuple(verts[bad[0]].tolist()) if len(bad) else None


def symmetric_group(n: int) -> PermGroup:
    """S_n generated by (1 2) and the n-cycle; by (1 2) alone at n = 2 and
    by nothing at n = 1."""
    cycle = "(" + " ".join(map(str, range(1, n + 1))) + ")"
    return PermGroup.from_cycle_strings(n, ["(1 2)", cycle][: max(n - 1, 0)])
