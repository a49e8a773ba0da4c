"""Deterministic seed derivation shared by the harness and the topology layer.

Grid experiments shard (scheme × trace × seed) cells across worker processes,
and topologies instantiate one random-loss RNG per link hop.  Both need seeds
that depend only on *what* is being run — never on which worker runs it or in
what order — so that serial and parallel executions are bit-identical.

``derive_seed`` lives in its own leaf module so that :mod:`repro.topology`
can use it without importing the experiment harness.
"""

from __future__ import annotations

import zlib

__all__ = ["derive_seed"]


def derive_seed(base_seed: int, *coordinates) -> int:
    """A stable, collision-resistant seed for one grid cell or link hop.

    Hashes the coordinates (any reprable values: trace name, scheme, link
    name, replicate index, ...) together with ``base_seed`` via CRC32, so the
    same cell always gets the same seed no matter which worker runs it or in
    what order the grid is traversed.
    """
    digest = zlib.crc32(repr((int(base_seed),) + coordinates).encode("utf-8"))
    return int(digest % (2 ** 31 - 1))
