"""Process-independent subject hashing.

:func:`stable_hash` is CRC32 over a key's UTF-8 bytes, so it gives the same
value in every process and after every restart (the builtin ``hash`` is
salted per process).  Two places key on it:

* the serving fabric's :class:`~repro.service.fabric.PartitionMap`, whose
  consistent-hash ring places :data:`DEFAULT_VIRTUAL_NODES` points per
  partition and maps a subject to the owner of the first point at or after
  its hash;
* the workload generator, which splits a movement trace into per-tracker
  streams by subject.
"""

from __future__ import annotations

import zlib

__all__ = ["DEFAULT_VIRTUAL_NODES", "stable_hash"]

#: Virtual nodes per partition on a consistent-hash ring.  Enough to keep the
#: per-partition load within a few percent of even for realistic subject counts.
DEFAULT_VIRTUAL_NODES = 64


def stable_hash(key: str) -> int:
    """A process-independent 32-bit hash of *key* (CRC32 of its UTF-8 bytes)."""
    return zlib.crc32(key.encode("utf-8")) & 0xFFFFFFFF
