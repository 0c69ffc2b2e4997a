"""The stable key-to-shard hash.

The shard-parallel maintenance engine (:mod:`repro.core.sharded`) needs a
*stable* row-to-shard assignment so that a maintenance round touching
disjoint key ranges can run one shard per key subset and still reconcile
its access counts exactly with a single-shard run.  :func:`shard_of` is
the one hash function everything shares.  It is deliberately **not**
Python's builtin ``hash`` (randomized per process), so shard assignments
agree between the coordinator and its worker processes.

The engine keeps a single shared database and partitions the round's
*i-diff instance rows* by this hash — see ``docs/SHARDING.md``.
"""

from __future__ import annotations

import zlib
from typing import Sequence


def shard_key_bytes(values: Sequence) -> bytes:
    """The canonical byte string :func:`shard_of` hashes for a key tuple.

    Exposed separately so cross-process determinism tests (and the wire
    layer's documentation) can pin the exact encoding: ``repr`` of the
    value tuple, UTF-8 encoded.  ``repr`` of the primitive types allowed
    on the wire (bool/int/float/str/None) is stable across interpreter
    runs and independent of ``PYTHONHASHSEED``.
    """
    return repr(tuple(values)).encode("utf-8")


def shard_of(values: Sequence, n_shards: int) -> int:
    """Stable shard assignment of a key-value tuple.

    Uses CRC-32 of :func:`shard_key_bytes`: deterministic across
    processes (unlike ``hash``, which is salted) and insensitive to how
    the values were produced, as long as they compare/``repr`` equal.
    The same assignment is therefore computed by the coordinator when it
    splits i-diff instances and by any worker process re-deriving a
    row's home shard.
    """
    if n_shards <= 1:
        return 0
    return zlib.crc32(shard_key_bytes(values)) % n_shards
