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
patchwork_main_matching is the paper's assembly of the main matching,
the oracle of build_main_matching's rule: the matching one size down,
lifted by lift_cells into the fiber over {1,n}, transported to the
other pair-vertex fibers and glued to the zero fiber by
equivariant_patchwork_matching, with key_action moving the keys of
patchwork_keys.  rule_pairs is the rule read off the vertex rows
of whole chains, not folded along the prefix tree; its mutations are
the faults the certificates must catch.
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

from functools import lru_cache

import numpy as np

from partmorse.construction import (
    _anchored_mask,
    _fiber_zero_pairs,
    _split_row,
    _vertex,
    get_action,
    get_complex,
    pair_vertex,
    patchwork_keys,
)
from partmorse.morse import equivariant_patchwork_matching
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


def lift_cells(prev_cx, cx) -> list[np.ndarray]:
    """lift_cells(...)[d][i] is the index in dimension d+1 of cx, the nerve
    one size up, of the lift of cell (d, i) of prev_cx: the new element n
    joins the block of 1 in every vertex, which on restricted-growth
    strings appends label 0, and the pair vertex {1,n} is put in front."""
    labels = prev_cx.labels
    n = labels.shape[1] + 1
    vmap = cx.locate_labels(np.column_stack([labels, np.zeros(len(labels), dtype=labels.dtype)]))
    start = _vertex(cx, pair_vertex(n, n).rgs)
    return list(prev_cx.map_chains(vmap, cx, start=start))


def key_action(g, k: int) -> int:
    """The key id that g sends the key k of patchwork_keys to."""
    return g(k) if k else 0


def key_order(n: int) -> np.ndarray:
    """The order of patchwork_keys: cone stage 0 < closure stage 1 < every
    fiber k, the fibers being incomparable."""
    leq = np.eye(n + 1, dtype=bool)
    leq[0] = leq[1, 1:] = True
    return leq


@lru_cache(maxsize=None)
def patchwork_main_matching(n: int):
    """The main matching at size n >= 3 assembled fiber by fiber, over the
    nerves and stabilizer actions of every size 3..n."""
    cx = get_complex(n)
    last_pairs = {}
    if n > 3:
        prev = patchwork_main_matching(n - 1)
        img = lift_cells(prev.complex, cx)
        # the lift leaves the bare pair-vertex chain unmatched; close it
        # off against the lift of the split vertex one size down
        bottom = _vertex(cx, pair_vertex(n, n).rgs)
        first_edge = img[0][_vertex(prev.complex, _split_row(n - 1))]
        last_pairs = {0: (np.array([bottom]), np.array([first_edge]))}
        for d, (lo, hi) in prev.pair_arrays().items():
            last_pairs[d + 1] = (img[d][lo], img[d + 1][hi])
    # at n = 3 key 1 names no cell
    fibers = {**_fiber_zero_pairs(n), n: last_pairs}
    if n == 3:
        del fibers[1]
    keys = patchwork_keys(cx)
    return equivariant_patchwork_matching(get_action(n), keys, key_action, key_order(n), fibers)


def rule_pairs(cx, mutation=None) -> dict:
    """The pairs of build_main_matching on the nerve cx, {d: (lo, hi)},
    by the rule on the vertex rows of each dimension's chains: p counts the
    leading v_i anchored with a block of 1 of size i+2, q is the first
    index >= p whose block of 1 is larger than p+1, and the chain drops
    v_{q-1} when q >= p+1 and v_{q-1} has one block more than v_q, else,
    with no q, v_d when d >= p and v_d has two blocks.  mutation breaks
    one case: "closure-late" runs the closure test one vertex late, on
    v_q and v_{q+1}, dropping v_q; "cone-first" drops v_0 in the cone
    stage; "split-alone-early" drops v_{p-1}, not v_p, from a chain
    v_0 < ... < v_p ending at the lift of the split vertex."""
    labels = cx.labels
    size, blocks, anchored = (labels == 0).sum(axis=1), labels.max(axis=1) + 1, _anchored_mask(labels)
    pairs = {}
    for d in range(1, cx.dim + 1):
        rows = cx.chains(d)
        b, c = size[rows], blocks[rows]
        run = anchored[rows] & (b == np.arange(2, d + 3))
        p = np.where(run.all(axis=1), d + 1, run.argmin(axis=1))
        later = (b > p[:, None] + 1) & (np.arange(d + 1) >= p[:, None])
        found = later.any(axis=1) & (p <= d)
        q = later.argmax(axis=1)
        at = np.arange(len(rows))
        if mutation == "closure-late":
            upper = found & (q < d) & (c[at, q] == c[at, np.minimum(q + 1, d)] + 1)
            drop = q
        else:
            upper = found & (q >= p + 1) & (c[at, q - 1] == c[at, q] + 1)
            drop = q - 1
        cone = ~found & (p <= d) & (c[:, d] == 2)
        cone_drop = np.full(len(rows), d)
        if mutation == "cone-first":
            cone_drop[:] = 0
        elif mutation == "split-alone-early":
            cone_drop[p == d] = d - 1
        upper |= cone
        drop = np.where(cone, cone_drop, drop)
        cells = np.flatnonzero(upper)
        pairs[d - 1] = (cx.face_array(d)[cells, drop[cells]], cells)
    return pairs


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
