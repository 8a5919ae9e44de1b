"""Set partitions of {1,...,n} and the refinement order.

A partition is kept in canonical form: blocks sorted by their minimum
element, elements sorted inside each block.  Its restricted-growth
string lists the block number of each element 1..n.  rgs_table
enumerates them as one int32 array in lexicographic order, which gives
every partition a stable position; proper_rgs keeps the proper part, and
rgs_tables gives the tables of every size up to n from one pass.
Partition objects are made from the table only when asked for.
"""

from __future__ import annotations

import numpy as np


class PartitionParseError(ValueError):
    """Raised when a partition string does not match the block grammar."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class Partition:
    """A set partition of {1,...,n} in canonical form."""

    __slots__ = ("n", "blocks", "_rgs", "_block_index", "_hash")

    def __init__(self, n: int, blocks):
        if n < 1:
            raise ValueError(f"ground-set size must be positive, got {n}")
        seen: set[int] = set()
        norm = []
        for block in blocks:
            b = tuple(sorted(block))
            if not b:
                raise ValueError("empty block")
            for e in b:
                if not isinstance(e, int) or not 1 <= e <= n:
                    raise ValueError(f"element {e} out of range 1..{n}")
                if e in seen:
                    raise ValueError(f"duplicate element {e}")
                seen.add(e)
            norm.append(b)
        if len(seen) != n:
            missing = sorted(set(range(1, n + 1)) - seen)
            raise ValueError(f"missing elements {missing}")
        self.n = n
        self.blocks = tuple(sorted(norm))
        block_index = [0] * (n + 1)
        for i, b in enumerate(self.blocks):
            for e in b:
                block_index[e] = i
        self._block_index = tuple(block_index)
        # restricted-growth string; blocks are already in first-appearance order
        self._rgs = tuple(block_index[e] for e in range(1, n + 1))
        self._hash = hash((n, self._rgs))

    @classmethod
    def from_rgs(cls, labels) -> "Partition":
        """The partition whose restricted-growth string is labels."""
        labels = list(labels)
        return cls(len(labels), [[e for e, c in enumerate(labels, start=1) if c == b] for b in range(max(labels) + 1)])

    @property
    def rgs(self) -> tuple[int, ...]:
        """Restricted-growth encoding: block index of each element 1..n."""
        return self._rgs

    def refines(self, other: "Partition") -> bool:
        """True iff every block of self lies inside a block of other."""
        if self.n != other.n:
            raise ValueError(f"mismatched ground sets: {self.n} vs {other.n}")
        idx = other._block_index
        for b in self.blocks:
            target = idx[b[0]]
            for e in b[1:]:
                if idx[e] != target:
                    return False
        return True

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.n == other.n and self._rgs == other._rgs

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Partition") -> bool:
        # canonical order: lexicographic on the restricted-growth encoding
        if self.n != other.n:
            return self.n < other.n
        return self._rgs < other._rgs

    def __le__(self, other: "Partition") -> bool:
        return self == other or self < other

    def __str__(self) -> str:
        return format_partition(self)

    def __repr__(self) -> str:
        return f"Partition({str(self)!r})"


def format_partition(p: Partition) -> str:
    """Canonical text form, e.g. "1,5|2|3|4"."""
    return format_rgs(p.rgs)


def parse_partition(text: str, n: int | None = None) -> Partition:
    """Parse the block grammar: blocks separated by '|', elements by ','.

    The ground-set size defaults to the largest element mentioned.
    """
    if not text.strip():
        raise PartitionParseError("empty partition text")
    blocks: list[list[int]] = []
    seen: set[int] = set()
    pos = 0
    for block_text in text.split("|"):
        block: list[int] = []
        for token in block_text.split(","):
            stripped = token.strip()
            if not stripped or not stripped.isdigit():
                raise PartitionParseError(f"expected integer, got {token!r}", pos)
            e = int(stripped)
            if e < 1:
                raise PartitionParseError(f"element {e} out of range", pos)
            if e in seen:
                raise PartitionParseError(f"duplicate element {e}", pos)
            seen.add(e)
            block.append(e)
            pos += len(token) + 1
        if not block:
            raise PartitionParseError("empty block", pos)
        blocks.append(block)
    size = max(seen) if n is None else n
    try:
        return Partition(size, blocks)
    except ValueError as exc:
        raise PartitionParseError(str(exc)) from exc


def format_rgs(labels) -> str:
    """Canonical text form of the partition with restricted-growth string
    labels: 0,1,2,3,0 gives "1,5|2|3|4"."""
    blocks: list[list[str]] = [[] for _ in range(max(labels) + 1)]
    for e, c in enumerate(labels, start=1):
        blocks[c].append(str(e))
    return "|".join(",".join(b) for b in blocks)


def rgs_tables(n: int) -> list[np.ndarray]:
    """rgs_table(k) for k = 1..n, in one pass of its recurrence: a string
    extends by any label from 0 to its maximum plus one, so each round
    repeats every row once per choice and numbers the copies of a row by a
    running offset, and round k-1 leaves rgs_table(k) in the first k
    columns."""
    if n < 1:
        raise ValueError(f"ground-set size must be positive, got {n}")
    table = np.zeros((1, n), dtype=np.int32)
    top = np.zeros(1, dtype=np.int32)
    tables = [table[:, :1]]
    for j in range(1, n):
        counts = top + 2
        rows = np.repeat(np.arange(len(table)), counts)
        ends = np.cumsum(counts)
        label = (np.arange(ends[-1]) - np.repeat(ends - counts, counts)).astype(np.int32)
        table = table[rows]
        table[:, j] = label
        top = np.maximum(top[rows], label)
        tables.append(table[:, : j + 1])
    return tables


def rgs_table(n: int) -> np.ndarray:
    """The restricted-growth strings of [n] as a (B_n, n) int32 array, in
    lexicographic order."""
    return rgs_tables(n)[-1]


def proper_rgs(n: int) -> np.ndarray:
    """The rows of rgs_table(n) of the proper part of the partition
    lattice: all but the total partition, first, and the discrete, last."""
    if n < 3:
        raise ValueError(f"the proper part needs n >= 3, got {n}")
    return rgs_table(n)[1:-1]


def enumerate_proper(n: int) -> list[Partition]:
    """The proper part of the partition lattice: everything except the
    discrete and the total partition, in canonical order."""
    return [Partition.from_rgs(row) for row in proper_rgs(n).tolist()]
