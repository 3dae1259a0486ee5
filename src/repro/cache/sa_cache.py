"""Set-associative cache keyed by cache-line index.

Used for L1s, LLCs, remapping caches, and (via :mod:`repro.cache.directory`)
coherence directories.  Lines are identified by their global line index
(``byte_addr >> 6``); the structure stores an optional per-entry ``state``
field so coherence layers can piggyback on it.

The hot path (lookup/fill) avoids allocation where possible: each set is a
dict ``{line: CacheEntry}`` and LRU uses integer stamps.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional

from .replacement import LruPolicy, ReplacementPolicy


class CacheEntry:
    """One resident line."""

    __slots__ = ("line", "dirty", "state", "stamp", "rrpv")

    def __init__(self, line: int, dirty: bool = False, state: object = None):
        self.line = line
        self.dirty = dirty
        self.state = state
        self.stamp = 0
        self.rrpv = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CacheEntry(line={self.line:#x}, dirty={self.dirty}, "
            f"state={self.state})"
        )


class SetAssocCache:
    """A set-associative cache of line-granularity entries."""

    __slots__ = ("num_sets", "ways", "name", "_mask", "_sets", "_policy",
                 "_lru", "_tick", "hits", "misses", "evictions")

    def __init__(
        self,
        num_sets: int,
        ways: int,
        policy: Optional[ReplacementPolicy] = None,
        name: str = "cache",
    ) -> None:
        if num_sets < 1 or ways < 1:
            raise ValueError(f"{name}: sets and ways must be >= 1")
        if num_sets & (num_sets - 1):
            raise ValueError(f"{name}: num_sets must be a power of two")
        self.num_sets = num_sets
        self.ways = ways
        self.name = name
        self._mask = num_sets - 1
        self._sets: List[Dict[int, CacheEntry]] = [dict() for _ in range(num_sets)]
        self._policy = policy if policy is not None else LruPolicy()
        # LRU is the common case across L1/LLC/remap caches.  For it, the
        # set dict doubles as the recency order (move-to-end on touch, so
        # the first key is always the LRU victim): picking a victim is then
        # O(1) instead of an O(ways) stamp scan, and no policy dispatch or
        # stamp bookkeeping runs per access.  Move-to-end keeps exactly the
        # order min-by-stamp would recover, so victims are unchanged.
        self._lru = type(self._policy) is LruPolicy
        self._tick = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- core operations -----------------------------------------------
    def lookup(self, line: int, touch: bool = True) -> Optional[CacheEntry]:
        """The entry for ``line`` or ``None``; counts hit/miss statistics."""
        cache_set = self._sets[line & self._mask]
        entry = cache_set.get(line)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        if touch:
            if self._lru:
                del cache_set[line]
                cache_set[line] = entry
            else:
                self._tick += 1
                self._policy.on_hit(entry, self._tick)
        return entry

    def peek(self, line: int) -> Optional[CacheEntry]:
        """Lookup without statistics or recency update."""
        return self._sets[line & self._mask].get(line)

    def fill(
        self, line: int, dirty: bool = False, state: object = None
    ) -> Optional[CacheEntry]:
        """Insert ``line``; returns the evicted entry, if any.

        Filling a line already present updates it in place (returns None).
        """
        cache_set = self._sets[line & self._mask]
        lru = self._lru
        existing = cache_set.get(line)
        if existing is not None:
            existing.dirty = existing.dirty or dirty
            if state is not None:
                existing.state = state
            if lru:
                del cache_set[line]
                cache_set[line] = existing
            else:
                self._tick += 1
                self._policy.on_hit(existing, self._tick)
            return None
        victim = None
        if len(cache_set) >= self.ways:
            if lru:
                victim = cache_set.pop(next(iter(cache_set)))
            else:
                victim = self._policy.victim(cache_set.values())
                del cache_set[victim.line]
            self.evictions += 1
        entry = CacheEntry(line, dirty, state)
        if not lru:
            self._tick += 1
            self._policy.on_fill(entry, self._tick)
        cache_set[line] = entry
        return victim

    def invalidate(self, line: int) -> Optional[CacheEntry]:
        """Remove ``line``; returns the removed entry, if any."""
        return self._sets[line & self._mask].pop(line, None)

    def contains(self, line: int) -> bool:
        return line in self._sets[line & self._mask]

    # -- bulk operations -------------------------------------------------
    def invalidate_where(
        self, predicate: Callable[[CacheEntry], bool]
    ) -> List[CacheEntry]:
        """Remove every entry matching ``predicate``; returns them."""
        removed: List[CacheEntry] = []
        for cache_set in self._sets:
            doomed = [line for line, e in cache_set.items() if predicate(e)]
            for line in doomed:
                removed.append(cache_set.pop(line))
        return removed

    def entries(self) -> Iterator[CacheEntry]:
        for cache_set in self._sets:
            yield from cache_set.values()

    def flush(self) -> List[CacheEntry]:
        """Remove and return every entry."""
        drained: List[CacheEntry] = []
        for cache_set in self._sets:
            drained.extend(cache_set.values())
            cache_set.clear()
        return drained

    # -- introspection ---------------------------------------------------
    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    @property
    def capacity(self) -> int:
        return self.num_sets * self.ways

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset_stats(self) -> None:
        self.hits = self.misses = self.evictions = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SetAssocCache({self.name}, {self.num_sets}x{self.ways}, "
            f"occupancy={self.occupancy})"
        )


def cache_from_geometry(
    size_bytes: int, ways: int, line_bytes: int = 64, name: str = "cache"
) -> SetAssocCache:
    """Build a cache from size/ways geometry (sets derived).

    The set count must be a power of two for index masking.  Sets lost to
    rounding down are folded back in as extra ways, so the configured
    capacity is preserved exactly whenever the line count divides the
    rounded set count — and to within one set's worth of lines otherwise —
    instead of silently shrinking the cache by up to ~2x.  The effective
    geometry is exposed as ``num_sets``/``ways``/``capacity`` on the
    returned cache.
    """
    lines = size_bytes // line_bytes
    sets = lines // ways
    if sets < 1:
        raise ValueError(f"{name}: geometry yields zero sets")
    pow2 = 1 << (sets.bit_length() - 1)
    return SetAssocCache(pow2, lines // pow2, name=name)
