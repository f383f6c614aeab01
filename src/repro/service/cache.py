"""The plan-keyed LRU result cache.

Every solve is deterministic given ``(RunPlan, seed)``
(:meth:`repro.plan.RunPlan.cache_key` is the promise), so the service
cache is *perfect*: a hit returns the exact response bytes the original
computation produced, with no staleness window and no invalidation
protocol.  Keys are derived from the canonical plan hash plus the
request grid (``solve:<cache_key>:<seed>``,
``table1:<cache_key>:<sizes>:<trials>:<seed0>``); values are the
canonical response body bytes, stored verbatim so hits bypass both the
worker pool and re-serialization.

Thread-safe: request threads and async-job threads both read and write.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional


class ResultCache:
    """A bounded, thread-safe LRU of ``key -> response bytes``.

    ``capacity`` bounds the entry count (responses are a few hundred
    bytes of flattened trial rows, so a few thousand entries is still
    sub-megabyte).  ``get`` marks the entry most-recently-used; ``put``
    evicts the least-recently-used entry past capacity.  Counters feed
    ``GET /v1/health`` and the zero-recompute tests.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[str, bytes]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str) -> Optional[bytes]:
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: str, value: bytes) -> None:
        if not isinstance(value, bytes):
            raise TypeError(
                f"cache values are canonical response bytes, got "
                f"{type(value).__name__}"
            )
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


def solve_cache_key(plan_cache_key: str, seed: int) -> str:
    """The cache key of one ``(plan, seed)`` solve."""
    return f"solve:{plan_cache_key}:{seed}"


def table1_cache_key(
    plan_cache_key: str, sizes: tuple, trials: int, seed0: int
) -> str:
    """The cache key of one table1 measurement grid."""
    grid = ",".join(str(n) for n in sizes)
    return f"table1:{plan_cache_key}:{grid}:{trials}:{seed0}"
