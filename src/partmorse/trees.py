"""The nerve of the partition lattice modulo a Young subgroup, built from
leveled trees without the nerve.

A d-chain p_0 < ... < p_d of proper partitions of [n] is a leveled rooted
tree: its leaves are the points 1..n, level i holds the blocks of p_i,
each block hangs under the block of the level above that contains it,
and the root holds them all.  Colour the points by the orbits of a Young
subgroup S_lambda, the permutations that keep every point's colour.  Two
chains lie in one orbit iff their trees are isomorphic by a map that
keeps the leaves' colours (restricted to the leaves, such a map is the
permutation), so an orbit is a tree up to isomorphism.  Each has a
canonical code (Aho, Hopcroft and Ullman, "The Design and Analysis of
Computer Algorithms", 1974): a leaf's code is its colour, and a node's is
the sorted list of its children's codes, interned.  Interning walks one
trie of (state, child code) pairs, kept as sorted int64 keys state << 32
| child with the state they lead to, whose states are numbered after the
colours: equal codes are equal sorted lists, so codes are exact, agree
across layers and batches, and a tree's root code fixes its depth.  No
hash, and no np.unique, whose first call imports numpy.ma.

Cells are built layer by layer, one per code.  Layer 0 codes rows of
setpart.proper_rgs(n).  Layer d extends each cell of layer d-1 by proper
coarsenings of its top partition, rgs_table(k)[1:-1] read at its k top
labels, the tables for k = 3..n taken from one pass of
setpart.rgs_tables; only the new top level and the root get new codes,
the levels below keep the representative's.  The first candidate of each root code
is kept, candidates taken in batches of about BATCH rows, and a layer is
ordered by root code.

Lemma: in every orbit of a Young subgroup on set partitions, the
lexicographically least restricted-growth string numbers the points of
each colour in non-decreasing order.  (If i < j share a colour and
label(i) > label(j), swapping i and j gives a smaller string in the same
orbit.)  So layer 0 codes only the rows that are non-decreasing on each
colour, and layer d only the coarsenings that are non-decreasing on each
class of top blocks with equal codes, which an automorphism of the
representative swaps (McKay, "Isomorph-free exhaustive generation", J.
Algorithms 26, 1998).  The first candidate of each code is the least,
so the kept ones are those that coding every candidate keeps.  New codes
are numbered by key within a round of the trie, so their numbers depend
on the batch that first meets them; batches are counted before the
filter, so they meet the same codes as before it, numbered the same.

The representative that was extended is face d of its cell.  The build
keeps the codes of the top level of each face k < d-1 of each cell of
layer d-1, and for a cell of layer d with new top q, face k < d-1 is q
over the top of face k of its representative and face d-1 is q over
level d-2 (over the points when d = 1).  So one level coding and one
root coding per layer give every face, which is then found among the
root codes of layer d-1 by binary search.  A face that no cell codes
raises InvalidComplexError, naming both chains.  A cell keeps its
representative's labels, an (R, d+1, n) int8 array per layer, and
nothing else of the build.

As in QuotientComplex, an orbit's faces are the orbits of its
representative's faces, with signs (-1)^k; the two complexes agree up to
the numbering of their cells, which is here the order of the codes.
"""

from __future__ import annotations

import numpy as np

from .homology import InvalidComplexError
from .ordercomplex import FaceTableComplex, distinct
from .perm import orbit_labels
from .setpart import format_rgs, rgs_tables

# candidates per batch, counted before the lemma's filter
BATCH = 1 << 16


def point_orbits(group) -> np.ndarray:
    """The orbit of each point 1..n under the group's generators, numbered
    by first appearance (a restricted-growth string)."""
    label = orbit_labels(group.n, [np.array(g.images, dtype=np.int32) - 1 for g in group.generators])
    # a point labels itself iff it is the smallest of its orbit
    return (np.cumsum(label == np.arange(group.n), dtype=np.int8) - 1).take(label)


def young_colouring(group) -> np.ndarray | None:
    """The point orbits of a group that is the full product of the
    symmetric groups on its point orbits, |G| = prod |O|!; else None."""
    orbit = point_orbits(group)
    order = 1
    for size in np.bincount(orbit).tolist():
        for f in range(2, size + 1):
            order *= f
    return orbit if order == group.order else None


def _first_per_code(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The position of the first entry of each distinct code, in increasing
    code order, and those codes."""
    order = np.argsort(codes, kind="stable")
    codes = codes.take(order)
    first = np.empty(len(codes), dtype=bool)
    first[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    return order[first], codes[first]


def non_decreasing(rows: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """keep[i, j]: whether the (Q, k) rows[j] is non-decreasing on each
    class of equal entries of the (R, k) classes[i], taken in order."""
    order = np.argsort(classes, axis=1, kind="stable")
    sorted_classes = np.take_along_axis(classes, order, axis=1)
    same = sorted_classes[:, 1:] == sorted_classes[:, :-1]
    seen = rows[:, order]
    return ~((seen[..., 1:] < seen[..., :-1]) & same).any(axis=2).T


class _Codes:
    """The interning trie: colours are the codes 0..c-1, the empty list is
    state c, and each new (state, child) pair gets the next state."""

    def __init__(self, colours: np.ndarray):
        self.start = int(colours.max()) + 1
        self.size = self.start + 1
        # a sentinel above every key, so a search never runs off the end
        self.keys = np.array([np.iinfo(np.int64).max])
        self.states = np.array([-1], dtype=np.int32)

    def step(self, state: np.ndarray, child: np.ndarray, fresh: list) -> np.ndarray:
        """The state after appending child to the list of each state.  The
        sorted keys of the pairs not yet in the trie are numbered from size
        and appended to fresh, to be entered by intern."""
        key = np.left_shift(state, 32, dtype=np.int64)
        key |= child
        at = np.searchsorted(self.keys, key)
        out = self.states.take(at)
        missing = self.keys.take(at) != key
        if missing.any():
            key = key[missing]
            new = distinct(key)
            out[missing] = np.searchsorted(new, key) + self.size
            fresh.append(new)
            self.size += len(new)
        return out

    def intern(self, fresh: list) -> None:
        """Enter the keys of fresh, numbered up to size in their order."""
        if fresh:
            new = np.concatenate(fresh)
            state = np.arange(self.size - len(new), self.size, dtype=np.int32)
            order = np.argsort(new)
            new = new.take(order)
            where = np.searchsorted(self.keys, new)
            self.keys = np.insert(self.keys, where, new)
            self.states = np.insert(self.states, where, state.take(order))

    def lists(self, child: np.ndarray, head: np.ndarray, size: np.ndarray) -> np.ndarray:
        """The state of each sorted list child[head[i] : head[i] + size[i]].
        The lists are built in rounds, the j-th entry of every list in
        round j.  A key of round j holds the state of a list of j-1 codes,
        so no round meets the new keys of another, and they are entered
        once, at the end."""
        # lists by falling size: round j appends to the first alive[j]
        order = np.argsort(-size, kind="stable")
        head = head.take(order)
        alive = np.bincount(size)[::-1].cumsum()[::-1]
        state = np.full(len(head), self.start, dtype=np.int32)
        fresh: list = []
        for j in range(1, len(alive)):
            state[: alive[j]] = self.step(state[: alive[j]], child.take(head[: alive[j]] + (j - 1)), fresh)
        self.intern(fresh)
        out = np.empty_like(state)
        out[order] = state
        return out

    def level(self, parent: np.ndarray, below) -> np.ndarray:
        """Codes of the blocks of the (N, n) labels parent, whose children
        are the blocks of below = (labels, codes), the level under it:
        entry [x, b] is the code of block b of row x, -1 past the last
        block.  A block's code is the list of its children's codes,
        sorted."""
        rows, n = parent.shape
        labels, codes = below
        # the first point of each block of a restricted-growth string is
        # where the running maximum rises
        first = np.empty((rows, n), dtype=bool)
        first[:, 0] = True
        np.greater(labels[:, 1:], np.maximum.accumulate(labels, axis=1)[:, :-1], out=first[:, 1:])
        cell = np.flatnonzero(first)
        row = cell - cell % n
        key = row + np.ravel(parent).take(cell)
        key <<= 32
        key |= np.ravel(codes).take(row + np.ravel(labels).take(cell))
        key.sort()
        block, child = key >> 32, (key & 0xFFFFFFFF).astype(np.int32)
        change = np.empty(len(block), dtype=bool)
        change[:1] = True
        np.not_equal(block[1:], block[:-1], out=change[1:])
        head = np.flatnonzero(change)
        out = np.full(rows * n, -1, dtype=np.int32)
        out[block.take(head)] = self.lists(child, head, np.append(head[1:], len(block)) - head)
        return out.reshape(rows, n)

    def root(self, codes: np.ndarray) -> np.ndarray:
        """The root code of each row of the codes of a level, as level
        gives them: the list of its blocks' codes, sorted."""
        rows, n = codes.shape
        # the -1 past the last block sort first
        codes = np.sort(codes, axis=1)
        size = np.count_nonzero(codes >= 0, axis=1)
        return self.lists(codes.ravel(), np.arange(n, (rows + 1) * n, n) - size, size)


class TreeQuotient(FaceTableComplex):
    """The nerve of the proper part of the partition lattice of [n] modulo
    the Young subgroup of the permutations that keep a colouring of the
    points, given as its n colours (module docstring)."""

    def __init__(self, colours):
        # number the colours by first appearance
        first: dict = {}
        self.colours = np.array([first.setdefault(c, len(first)) for c in np.asarray(colours).tolist()], dtype=np.int8)
        self.n = n = len(self.colours)
        if n < 3:
            raise ValueError(f"the proper part needs n >= 3, got {n}")
        codes = _Codes(self.colours)
        # the proper coarsenings of a partition with k blocks, read at its
        # labels, for k = 3..n, from one pass; layer 0 takes out those of
        # the discrete partition, as no later top has n blocks
        tables = rgs_tables(n)
        self._coarser = {k: tables[k - 1][1:-1].astype(np.int8) for k in range(3, n + 1)}
        self._labels: list[np.ndarray] = []
        roots: list[np.ndarray] = []
        faces: list[np.ndarray] = []
        layer = self._extend(codes, None)
        # the codes of the top level of each face k < d of each d-cell
        tops = np.empty((0, len(layer[0]), n), dtype=np.int32)
        while len(layer[0]):
            if self._labels:
                tops, table = self._faces(codes, layer, tops, roots[-1])
                faces.append(table)
            self._labels.append(layer[0])
            roots.append(layer[2])
            layer = self._extend(codes, layer)
        del self._coarser
        super().__init__(len(labels) for labels in self._labels)
        self._face_tables.update(enumerate([np.empty((self.n_cells(0), 0), dtype=np.int32), *faces]))

    def _leaves(self, rows: int) -> tuple[np.ndarray, np.ndarray]:
        """The points as a level under level 0: the discrete partition, its
        blocks coded by their colours."""
        shape = (rows, self.n)
        return np.broadcast_to(np.arange(self.n, dtype=np.int8), shape), np.broadcast_to(self.colours, shape)

    def _extend(self, codes: _Codes, layer):
        """The cells of the layer above layer = (labels, level codes, root
        codes, faces d), as the same four arrays; layer 0 when layer is
        None.  Only the candidates that the lemma keeps are coded, in
        batches of about BATCH candidates before that filter, and the first
        of each root code is kept, in the order of the codes."""
        parts, pending, count = [], [], 0

        def code(new, rep):
            # new top levels, over the tops of the cells rep of layer
            low = self._leaves(len(new)) if layer is None else (layer[0][rep, -1], layer[1][rep, -1])
            new_codes = codes.level(new, low)
            keep, root = _first_per_code(codes.root(new_codes))
            new, new_codes, rep = new[keep, None], new_codes[keep, None], rep.take(keep)
            if layer is not None:
                new = np.concatenate([layer[0].take(rep, axis=0), new], axis=1)
                new_codes = np.concatenate([layer[1].take(rep, axis=0), new_codes], axis=1)
            parts.append((new, new_codes, root, rep))

        if layer is None:
            table = self._coarser.pop(self.n)
            for s in range(0, len(table), BATCH):
                part = table[s : s + BATCH]
                part = part[non_decreasing(part, self.colours[None])[0]]
                code(part, np.zeros(len(part), dtype=np.int32))
        else:
            top, top_codes = layer[0][:, -1], layer[1][:, -1]
            blocks = top.max(axis=1) + 1
            for k, coarser in self._coarser.items():
                reps = np.flatnonzero(blocks == k).astype(np.int32)
                step = max(BATCH // len(coarser), 1)
                for s in range(0, len(reps), step):
                    rep = reps[s : s + step]
                    count += len(rep) * len(coarser)
                    # top blocks of equal codes are swapped by an automorphism
                    # of the representative, so the lemma applies to them
                    i, j = np.nonzero(non_decreasing(coarser, top_codes[rep, :k]))
                    rep = rep.take(i)
                    # row x coarsens the top of rep[x] by coarser[j[x]]
                    pending.append((coarser[j[:, None], top[rep]], rep))
                    if count >= BATCH:
                        code(*(np.concatenate(a) for a in zip(*pending)))
                        pending, count = [], 0
            if pending:
                code(*(np.concatenate(a) for a in zip(*pending)))
        if not parts:
            return (np.zeros((0, 0, self.n), dtype=np.int8),) * 4
        keep, root = _first_per_code(np.concatenate([p[2] for p in parts]))
        labels, levels, _, below = (np.concatenate([p[i] for p in parts]).take(keep, axis=0) for i in range(4))
        return labels, levels, root, below

    def _faces(self, codes: _Codes, layer, tops, lower_roots) -> tuple[np.ndarray, np.ndarray]:
        """The face table of layer = (labels, level codes, root codes,
        faces d+1), a layer of (d+1)-cells, and the codes of the top level
        of each face k <= d, (d+1, R, n-2-d) k-major, as that level has at
        most n-2-d blocks; tops holds those of the layer below.  A face is
        found by its root code among lower_roots, the sorted root codes of
        the layer below."""
        labels, levels, _, below = layer
        rows, d = len(labels), labels.shape[1] - 2
        table = np.empty((rows, d + 2), dtype=np.int32)
        table[:, d + 1] = below
        width = self.n - 2 - d
        face_tops = np.empty((d + 1, rows, width), dtype=np.int32)
        step = max(BATCH // (d + 1), 1)
        for s in range(0, rows, step):
            lab, lev, rep = labels[s : s + step], levels[s : s + step], below[s : s + step]
            m = len(lab)
            # face k < d: the new top over the top of face k of the
            # representative; face d: the new top over its level d-1
            low = (lab[:, d - 1], lev[:, d - 1]) if d else self._leaves(m)
            under = np.concatenate([np.tile(lab[:, d], (d, 1)), low[0]])
            # level reads only the entries of the blocks of under
            under_codes = np.empty((len(under), self.n), dtype=np.int32)
            under_codes[: d * m, : tops.shape[2]] = tops[:, rep].reshape(d * m, tops.shape[2])
            under_codes[d * m :] = low[1]
            top = np.tile(lab[:, d + 1], (d + 1, 1))
            new = codes.level(top, (under, under_codes))
            root = codes.root(new)
            at = np.minimum(np.searchsorted(lower_roots, root), len(lower_roots) - 1)
            missing = np.flatnonzero(lower_roots.take(at) != root)
            if len(missing):
                k, chain = divmod(int(missing[0]), m)
                chain = lab[chain]
                raise InvalidComplexError(
                    f"face {k} [{_chain_label(np.delete(chain, k, axis=0))}] of {d + 1}-cell "
                    f"[{_chain_label(chain)}] is no cell of dimension {d}"
                )
            face_tops[:, s : s + m] = new.reshape(d + 1, m, self.n)[:, :, :width]
            table[s : s + m, : d + 1] = at.reshape(d + 1, m).T
        return face_tops, table

    def chains(self, d: int) -> np.ndarray:
        """The (R, d+1, n) int8 restricted-growth strings of the levels of
        the representatives of the d-cells."""
        return self._labels[d]

    def cell_label(self, d: int, i: int) -> str:
        return "[" + _chain_label(self._labels[d][i]) + "]"

    def face_table(self, d: int, cells) -> np.ndarray:
        """Read off the tables kept from the build; IndexError past the top."""
        if d not in self._face_tables:
            raise IndexError(f"no face table of dimension {d}")
        return self._face_tables[d][cells]


def _chain_label(levels: np.ndarray) -> str:
    return " < ".join(format_rgs(row) for row in levels.tolist())
