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
tree_quotient_reference builds the chains and face tables of
trees.TreeQuotient as it did before it filtered candidates and kept the
tops of faces: every candidate is coded, and face k of a d-cell recodes
every level above k.
morse_chain_complex is the Morse complex as an ExplicitComplex, as
MorseData.chain_data built it before MorseData was a complex itself:
the critical cells' labels, and the face lists read off its boundary.
"""

import numpy as np

from partmorse.construction import pair_vertex
from partmorse.ordercomplex import ExplicitComplex, Simplex, entry_cells
from partmorse.perm import PermGroup
from partmorse.setpart import Partition, proper_rgs, rgs_table
from partmorse import trees
from partmorse.trees import _Codes, _first_per_code


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


def tree_quotient_reference(colours) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The chains and face tables of TreeQuotient(colours), per dimension.
    Every proper partition, and every proper coarsening of the top of a
    cell, is coded, in batches of about trees.BATCH rows; the first of
    each root code is kept.  Face k < d of a d-cell codes level k+1 over
    level k-1 (the points when k = 0), then each level above over the
    recoded one, and is found by its root code among the sorted codes of
    dimension d-1."""
    batch = trees.BATCH
    first: dict = {}
    colours = np.array([first.setdefault(c, len(first)) for c in list(colours)], dtype=np.int8)
    n = len(colours)
    codes = _Codes(colours)
    coarser = {k: rgs_table(k)[1:-1].astype(np.int8) for k in range(3, n)}

    def leaves(rows):
        return np.broadcast_to(np.arange(n, dtype=np.int8), (rows, n)), np.broadcast_to(colours, (rows, n))

    def extend(layer):
        parts, pending = [], []

        def code(new, rep):
            low = leaves(len(new)) if layer is None else (layer[0][rep, -1], layer[1][rep, -1])
            new_codes = codes.level(new, low)
            keep, root = _first_per_code(codes.root(new_codes))
            new, new_codes, rep = new[keep, None], new_codes[keep, None], rep[keep]
            if layer is not None:
                new = np.concatenate([layer[0][rep], new], axis=1)
                new_codes = np.concatenate([layer[1][rep], new_codes], axis=1)
            parts.append((new, new_codes, root, rep))

        if layer is None:
            table = proper_rgs(n).astype(np.int8)
            for s in range(0, len(table), batch):
                code(table[s : s + batch], np.zeros(len(table[s : s + batch]), dtype=np.int32))
        else:
            top = layer[0][:, -1]
            blocks = top.max(axis=1) + 1
            for k, rows in coarser.items():
                reps = np.flatnonzero(blocks == k)
                step = max(batch // len(rows), 1)
                for s in range(0, len(reps), step):
                    rep = reps[s : s + step]
                    new = rows.take(top[rep], axis=1).transpose(1, 0, 2).reshape(-1, n)
                    pending.append((new, np.repeat(rep, len(rows))))
                    if sum(len(p[0]) for p in pending) >= batch:
                        code(*(np.concatenate(a) for a in zip(*pending)))
                        pending = []
            if pending:
                code(*(np.concatenate(a) for a in zip(*pending)))
        if not parts:
            return None
        keep, root = _first_per_code(np.concatenate([p[2] for p in parts]))
        labels, levels, _, below = (np.concatenate([p[i] for p in parts])[keep] for i in range(4))
        return labels, levels, root, below

    def faces(labels, levels, below, lower_roots):
        m, d = len(labels), labels.shape[1] - 1
        table = np.empty((m, d + 1), dtype=np.int32)
        table[:, d] = below
        for k in range(d):
            recoded = leaves(m) if k == 0 else (labels[:, k - 1], levels[:, k - 1])
            for i in range(k + 1, d + 1):
                recoded = labels[:, i], codes.level(labels[:, i], recoded)
            root = codes.root(recoded[1])
            at = np.searchsorted(lower_roots, root)
            assert np.array_equal(lower_roots[np.minimum(at, len(lower_roots) - 1)], root), (k, d)
            table[:, k] = at
        return table

    chains, tables, roots = [], [], None
    layer = extend(None)
    while layer is not None:
        labels, levels, root, below = layer
        tables.append(np.empty((len(labels), 0), dtype=np.int32) if roots is None else faces(labels, levels, below, roots))
        chains.append(labels)
        roots = root
        layer = extend(layer)
    return chains, tables


def morse_chain_complex(data) -> ExplicitComplex:
    """The Morse complex of a MorseData, its cells labelled as the critical cells."""
    labels = [data.complex.cell_labels(d, layer) for d, layer in enumerate(data.critical)]
    return ExplicitComplex(labels, [[list(col.items()) for col in layer] for layer in data.boundary[1:]])
