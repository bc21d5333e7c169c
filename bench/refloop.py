"""Reference loop: a fixed piece of interpreter work that measures how fast
the host runs Python at the moment.

The benchmark's host shares its cores, and its speed drifts with the load
of its neighbours, often by 1.5x within a minute, in CPU time as much as in
wall time.  Each timed pass is bracketed by runs of this loop, and the
pass's time is rescaled by the loop's time around it, so that most of the
drift cancels.  The loop uses only the standard library and never flowprof: its
cost must not change when flowprof does.  Its mix resembles flowprof's
work: tuples and small objects as dict keys, struct packing and unpacking
of header-sized records, string formatting, sorting and hashing, over a
working set of a few hundred kilobytes.  Do not edit it: a different loop
changes every rescaled time.
"""

from __future__ import annotations

import hashlib
import struct
from time import perf_counter

# seconds one call of reference_work() takes on the reference machine (a
# 2-vCPU Intel Xeon VM at 2.1 GHz, Python 3.11.7) at its fastest; it ranged
# from 0.10 to 0.41 s there within minutes.  Rescaled times are expressed
# in seconds of that machine at that speed.
REFERENCE_S = 0.100

_HEADER = struct.Struct("!BBHHHBBH4s4sHH")
_RECORDS = 2_000
_ROUNDS = 24


def reference_work() -> int:
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    table: dict = {}
    acc = 0
    for _ in range(_ROUNDS):
        frames = []
        for i in range(_RECORDS):
            src = bytes((10, 0, i >> 8 & 255, i & 255))
            dst = bytes((192, 168, i % 7, (i * 13) & 255))
            frames.append(_HEADER.pack(0x45, 0, 40, i & 0xFFFF, 0, 64, 6, 0,
                                       src, dst, 1024 + i % 977, 443))
        for frame in frames:
            fields = _HEADER.unpack(frame)
            key = ("%d.%d.%d.%d" % tuple(fields[8]), fields[10], fields[11])
            table[key] = table.get(key, 0) + fields[3]
        ordered = sorted(table.items(), key=lambda kv: (kv[1] & 63, kv[0]))
        digest = hashlib.sha256(repr(ordered[:64]).encode()).digest()
        acc ^= int.from_bytes(digest[:4], "big") ^ len(table)
    return acc


def time_reference() -> float:
    """Wall time of one unit of reference work, in seconds."""
    start = perf_counter()
    reference_work()
    return perf_counter() - start
