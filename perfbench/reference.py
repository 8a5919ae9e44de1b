"""A fixed pure-Python loop that measures how fast the host runs right now.

    python3 perfbench/reference.py

Prints one JSON object with the wall and CPU time of a fixed amount of
work.  It uses only the standard library and never imports partmorse, so
no change to the program can move it.  The benchmark runs it in its own
process between samples and divides each sample's time by the mean of the
reference times taken just before and just after it: a stretch in which
the host runs slow stretches both alike.
"""

from __future__ import annotations

import gc
import json
import time

CHUNKS = 30
CHUNK_SIZE = 12000


def chunk(size: int = CHUNK_SIZE) -> int:
    """Tuple, frozenset, sort and dict work on a small, fixed key set."""
    table: dict = {}
    acc = 0
    for i in range(size):
        j = i & 63
        t = (j, j ^ 5, j % 7, i % 3)
        f = frozenset(t)
        k = tuple(sorted(t))
        table[k] = table.get(k, 0) + len(f)
        if f in table:
            acc += 1
        acc += max(t) - min(t)
    return acc


def main():
    gc.disable()
    chunk()  # warm-up
    w0, c0 = time.perf_counter(), time.process_time()
    for _ in range(CHUNKS):
        chunk()
    print(json.dumps({"wall_s": time.perf_counter() - w0, "cpu_s": time.process_time() - c0}))


if __name__ == "__main__":
    main()
