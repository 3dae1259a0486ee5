"""Trace format and stream-synthesis machinery.

A :class:`WorkloadTrace` holds one access stream per host, and every
stream is one C-contiguous ``(N, 4)`` int64 array whose columns are
``gap_instructions, addr, is_write, core``.
That array is the only trace representation: generators return it,
``.npz`` export and the sweep trace store save and load it as is, and the
simulation engine bakes it column by column (see DESIGN.md, "The trace
pipeline").  Hand-built tuple lists are normalised to it on construction.

Streams are synthesized from *mixture components*: cyclic sequential scans,
zipfian random accesses, and strided walks over named regions of the shared
heap (or a host's private window).  Components are interleaved
probabilistically with a seeded RNG so runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import units
from ..mem.address import Region

def as_records(stream) -> np.ndarray:
    """``stream`` as a C-contiguous ``(N, 4)`` int64 record array, columns
    ``gap_instructions, addr, is_write, core``.

    An array already in that form is returned as is; a sequence of
    4-tuples (or an empty one) is converted.
    """
    records = np.ascontiguousarray(stream, dtype=np.int64)
    if records.size == 0:
        return np.empty((0, 4), dtype=np.int64)
    if records.ndim != 2 or records.shape[1] != 4:
        raise ValueError(
            f"a stream must be (N, 4) records, got shape {records.shape}"
        )
    return records


@dataclass(frozen=True)
class WorkloadScale:
    """How big to make a synthetic run.

    ``footprint_bytes`` scales every region proportionally against the
    workload's natural layout; ``accesses_per_host`` bounds trace length.
    """

    accesses_per_host: int = 150_000
    footprint_bytes: int = 4 * units.MB
    seed: int = 7

    @classmethod
    def tiny(cls) -> "WorkloadScale":
        """For unit tests: fast, still enough reuse to exercise migration."""
        return cls(accesses_per_host=8_000, footprint_bytes=512 * units.KB,
                   seed=7)

    @classmethod
    def small(cls) -> "WorkloadScale":
        return cls(accesses_per_host=50_000, footprint_bytes=2 * units.MB,
                   seed=7)

    @classmethod
    def default(cls) -> "WorkloadScale":
        return cls()

    @classmethod
    def large(cls) -> "WorkloadScale":
        return cls(accesses_per_host=400_000, footprint_bytes=8 * units.MB,
                   seed=7)


@dataclass
class WorkloadTrace:
    """A complete multi-host workload: metadata + per-host streams."""

    name: str
    num_hosts: int
    streams: List[np.ndarray]
    footprint_bytes: int
    regions: List[Region] = field(default_factory=list)
    mlp: float = 4.0
    read_write_ratio: float = 0.8  # fraction of reads, informational
    description: str = ""

    def __post_init__(self) -> None:
        self.streams = [as_records(stream) for stream in self.streams]

    @property
    def total_accesses(self) -> int:
        return sum(len(s) for s in self.streams)

    @property
    def total_instructions(self) -> int:
        return sum(int(s[:, 0].sum()) for s in self.streams)

    def validate(self, cxl_capacity: int, total_capacity: int) -> None:
        """Check every address of every host stream against the physical map.

        Addresses must fall in the shared CXL pool ``[0, cxl_capacity)`` or
        inside the issuing host's *own* local window — an address in another
        host's window would silently be served as if it were requester-
        private data.  Vectorized over the full address columns.
        """
        if not 0 <= cxl_capacity <= total_capacity:
            raise ValueError(
                f"{self.name}: cxl capacity {cxl_capacity} outside total "
                f"capacity {total_capacity}"
            )
        local_capacity, remainder = divmod(
            total_capacity - cxl_capacity, max(self.num_hosts, 1)
        )
        if remainder:
            raise ValueError(
                f"{self.name}: local capacity {total_capacity - cxl_capacity}"
                f" does not divide across {self.num_hosts} hosts"
            )
        for host, stream in enumerate(self.streams):
            addrs = stream[:, 1]
            window_start = cxl_capacity + host * local_capacity
            window_end = window_start + local_capacity
            ok = (addrs >= 0) & (
                (addrs < cxl_capacity)
                | ((addrs >= window_start) & (addrs < window_end))
            )
            if ok.all():
                continue
            index = int(np.argmax(~ok))
            addr = int(addrs[index])
            if 0 <= addr < total_capacity:
                raise ValueError(
                    f"{self.name}: host {host} record {index} address "
                    f"{addr:#x} falls inside another host's local window"
                )
            raise ValueError(
                f"{self.name}: host {host} record {index} address "
                f"{addr:#x} outside the physical map "
                f"[0, {total_capacity:#x})"
            )


@dataclass(frozen=True)
class MixtureComponent:
    """One behavioural strand of a host's access stream."""

    name: str
    weight: float
    addresses: np.ndarray  # cyclic pool of byte addresses (int64)
    write_fraction: float = 0.0
    #: If True the pool is walked cyclically in order; else sampled randomly
    #: by the pre-generated order of ``addresses`` (callers pre-shuffle /
    #: pre-zipf them).
    sequential: bool = True


def zipf_indices(
    rng: np.random.Generator, n: int, count: int, alpha: float = 0.99
) -> np.ndarray:
    """``count`` indexes in ``[0, n)`` with zipf popularity skew ``alpha``.

    Samples the *bounded* zipf distribution over exactly ``n`` ranks by
    inverse-CDF (``P(rank k) ∝ (k + 1) ** -alpha``), so any positive skew —
    including the common ``alpha < 1`` regime that ``numpy.random.zipf``
    cannot represent — is honored exactly as requested, and no probability
    mass from an unbounded tail gets clipped onto the last rank.  Popular
    ranks are spread over the range (not clustered at 0) via a fixed
    permutation.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if alpha <= 0:
        raise ValueError(f"zipf alpha must be positive, got {alpha}")
    weights = np.arange(1, n + 1, dtype=np.float64) ** -alpha
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    ranks = np.searchsorted(cdf, rng.random(count), side="right")
    # Spread hot ranks across the region deterministically.
    perm = np.random.default_rng(12345).permutation(n)
    return perm[ranks]


def seq_lines(region: Region, start: int = 0) -> np.ndarray:
    """All line-granule addresses of ``region`` starting at ``start`` lines in."""
    lines = region.size // units.CACHE_LINE
    idx = (np.arange(lines, dtype=np.int64) + start) % lines
    return region.start + idx * units.CACHE_LINE


def random_lines(
    rng: np.random.Generator,
    region: Region,
    count: int,
    alpha: Optional[float] = None,
) -> np.ndarray:
    """``count`` line-aligned addresses in ``region``; zipf if ``alpha``."""
    lines = region.size // units.CACHE_LINE
    if alpha is None:
        idx = rng.integers(0, lines, size=count, dtype=np.int64)
    else:
        idx = zipf_indices(rng, lines, count, alpha).astype(np.int64)
    return region.start + idx * units.CACHE_LINE


class StreamBuilder:
    """Interleaves mixture components into one host's access stream."""

    def __init__(
        self,
        rng: np.random.Generator,
        cores: int = 4,
        mean_gap: int = 10,
    ) -> None:
        if mean_gap < 1:
            raise ValueError("mean_gap must be >= 1")
        self.rng = rng
        self.cores = cores
        self.mean_gap = mean_gap

    def build(
        self, components: Sequence[MixtureComponent], length: int
    ) -> np.ndarray:
        """Synthesize ``length`` records by weighted component interleaving."""
        if not components:
            raise ValueError("need at least one mixture component")
        weights = np.array([c.weight for c in components], dtype=np.float64)
        if (weights <= 0).any():
            raise ValueError("component weights must be positive")
        weights /= weights.sum()
        choice = self.rng.choice(len(components), size=length, p=weights)

        addrs = np.empty(length, dtype=np.int64)
        writes = np.zeros(length, dtype=np.int64)
        for idx, comp in enumerate(components):
            mask = choice == idx
            count = int(mask.sum())
            if count == 0:
                continue
            pool = comp.addresses
            if comp.sequential:
                take = (np.arange(count, dtype=np.int64)) % len(pool)
            else:
                take = self.rng.integers(0, len(pool), size=count)
            addrs[mask] = pool[take]
            if comp.write_fraction > 0:
                writes[mask] = (
                    self.rng.random(count) < comp.write_fraction
                ).astype(np.int64)

        gaps = self.rng.geometric(1.0 / self.mean_gap, size=length)
        return self._records(gaps, addrs, writes)

    def from_arrays(
        self,
        addrs: np.ndarray,
        writes: np.ndarray,
        mean_gap: Optional[int] = None,
    ) -> np.ndarray:
        """Wrap pre-computed address/write arrays into trace records."""
        if len(addrs) != len(writes):
            raise ValueError("addrs and writes must be the same length")
        gap = mean_gap if mean_gap is not None else self.mean_gap
        gaps = self.rng.geometric(1.0 / gap, size=len(addrs))
        return self._records(gaps, addrs, writes)

    def _records(self, gaps, addrs, writes) -> np.ndarray:
        """Column-stack one stream's ``(N, 4)`` records; cores round-robin."""
        records = np.empty((len(gaps), 4), dtype=np.int64)
        records[:, 0] = gaps
        records[:, 1] = addrs
        records[:, 2] = writes
        records[:, 3] = np.arange(len(gaps), dtype=np.int64) % self.cores
        return records


def private_region(local_window: Tuple[int, int], size: int) -> Region:
    """A host-private (stack/code) region inside the host's local window."""
    start, end = local_window
    if start + size > end:
        raise ValueError("private region exceeds the local window")
    return Region("private", start, size)


def partition_region(region: Region, part: int, parts: int) -> Region:
    """The ``part``-th of ``parts`` page-aligned slices of ``region``."""
    if not 0 <= part < parts:
        raise ValueError(f"part {part} out of range [0, {parts})")
    pages = region.size // units.PAGE_SIZE
    base_pages = pages // parts
    extra = pages % parts
    start_page = part * base_pages + min(part, extra)
    count = base_pages + (1 if part < extra else 0)
    return Region(
        f"{region.name}[{part}/{parts}]",
        region.start + start_page * units.PAGE_SIZE,
        max(count, 1) * units.PAGE_SIZE,
    )
