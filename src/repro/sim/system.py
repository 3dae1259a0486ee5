"""The multi-host CXL-DSM system model.

Wires hosts (cores, L1s, LLC, local directory, local DRAM, TLB) to the CXL
memory node (device coherence directory, CXL DRAM, global remapping
table/cache) over per-host CXL links, and implements the access workflows
of the paper for all three placement mechanisms:

* **baseline CXL-DSM** (Fig. 2): cacheable 2-hop CXL access, 4-hop
  owner-forward when another host caches the line dirty, device-directory
  capacity back-invalidation;
* **kernel page migration / GIM** (Fig. 3): pages migrated to one host's
  local memory are served locally by that host and via the *non-cacheable
  4-hop* path by every other host; migration batches charge page-table /
  TLB management time and occupy link + DRAM bandwidth;
* **PIPM** (Figs. 7 and 9): local/global remapping table lookups,
  majority-vote promotion, incremental migration on LLC eviction,
  migrate-back on inter-host access, revocation.

The model charges latency at memory-access granularity; every latency
constant comes from :class:`repro.config.SystemConfig` (Table 2).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .. import units
from ..analysis.harmful import MigrationLedger
from ..cache.directory import DirectoryEntry, SlicedDirectory
from ..cache.sa_cache import CacheEntry
from ..config import SystemConfig
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..faults.watchdog import InvariantWatchdog
from ..host.host import Host
from ..mem.address import AddressMap, FrameAllocator
from ..mem.controller import MemoryController
from ..mem.cxl_link import (
    CONTROL_BYTES,
    TO_DEVICE,
    TO_HOST,
    LinkTransferError,
)
from ..mem.fabric import FabricTopology
from ..pipm.engine import PipmEngine
from ..pipm.remap_cache import RemapCache
from ..pipm.remap_global import NO_HOST, GlobalRemapEntry
from ..pipm.remap_local import LEAF_ENTRIES
from ..policies.base import Mechanism, MigrationScheme
from ..policies.costs import KernelCostModel
from ..stats import StatRegistry
from .results import ServicePoint

_I = 0
_S = 1
_M = 3

#: Radix-root entries are 8-byte pointers to leaves.
_ROOT_PTRS_PER_LINE = units.CACHE_LINE // 8

_SVC_L1 = int(ServicePoint.L1)
_SVC_LLC = int(ServicePoint.LLC)
_SVC_LOCAL = int(ServicePoint.LOCAL_MEM)
_SVC_PIPM = int(ServicePoint.PIPM_LOCAL)
_SVC_CXL = int(ServicePoint.CXL_MEM)
_SVC_FWD = int(ServicePoint.CXL_FWD)
_SVC_INTER = int(ServicePoint.INTER_HOST)

_LINES_MASK = units.LINES_PER_PAGE - 1
_LINE_TO_PAGE = units.PAGE_SHIFT - units.LINE_SHIFT
_LINE_SHIFT = units.LINE_SHIFT
_PAGE_SHIFT = units.PAGE_SHIFT
_CACHE_LINE = units.CACHE_LINE


class _HostBindings:
    """One host's access-path objects, resolved once at construction.

    Everything bound here is mutated in place for the lifetime of the
    system (a crash purge clears cache sets, it never replaces them), so
    the bindings never go stale.  ``l1_lanes`` holds ``(cache, sets,
    mask, ways)`` per core lane; the ``lrc*`` fields are the local remap
    cache's sets (``None`` without PIPM or for an infinite cache).
    """

    __slots__ = ("host", "tlb", "tlb_sets", "tlb_mask", "tlb_ways",
                 "lat_tlb_hit", "lat_tlb_miss", "l1_lanes", "n_l1", "llc",
                 "llc_sets", "llc_mask", "llc_ways", "local_chans",
                 "n_local", "path", "pt_mapped", "lrc", "lrc_sets",
                 "lrc_mask", "lrc_ways", "local_table", "local_entries")

    def __init__(self, system: "MultiHostSystem", host_id: int) -> None:
        host = self.host = system.hosts[host_id]
        tlb = host.tlb
        self.tlb = tlb_cache = tlb._cache
        self.tlb_sets = tlb_cache._sets
        self.tlb_mask = tlb_cache._mask
        self.tlb_ways = tlb_cache.ways
        # translate() returns hit_ns (+ walk_ns on a miss) and access()
        # adds l1_ns to it: the same additions, done once.
        self.lat_tlb_hit = tlb.hit_ns + system._l1_ns
        self.lat_tlb_miss = (tlb.hit_ns + tlb.walk_ns) + system._l1_ns
        self.l1_lanes = [(l1, l1._sets, l1._mask, l1.ways)
                         for l1 in host.l1s]
        self.n_l1 = len(host.l1s)
        llc = self.llc = host.llc
        self.llc_sets = llc._sets
        self.llc_mask = llc._mask
        self.llc_ways = llc.ways
        self.local_chans = host.local_mem.pool.channels
        self.n_local = len(self.local_chans)
        self.path = system.paths[host_id]
        self.pt_mapped = host.page_table._mapped
        lru_caches = [tlb_cache, llc, *host.l1s]
        self.lrc = self.lrc_sets = None
        self.local_table = self.local_entries = None
        self.lrc_mask = self.lrc_ways = 0
        if system._is_pipm:
            cache = system.engine.local_caches[host_id]
            if type(cache) is RemapCache:
                self.lrc = lrc = cache._cache
                self.lrc_sets = lrc._sets
                self.lrc_mask = lrc._mask
                self.lrc_ways = lrc.ways
                lru_caches.append(lrc)
            self.local_table = system.engine.local_tables[host_id]
            self.local_entries = self.local_table._entries
        if not all(cache._lru for cache in lru_caches):
            raise ValueError(
                f"host {host_id}: the access path models LRU caches only"
            )


class MultiHostSystem:
    """A complete multi-host CXL-DSM machine running one scheme."""

    def __init__(
        self,
        config: SystemConfig,
        scheme: MigrationScheme,
        workload_mlp: float = 4.0,
        stats: Optional[StatRegistry] = None,
        infinite_global_remap_cache: bool = False,
        infinite_local_remap_cache: bool = False,
        footprint_pages: Optional[int] = None,
    ) -> None:
        config.validate()
        self.config = config
        self.scheme = scheme
        self.stats = stats if stats is not None else StatRegistry()
        self.address_map = AddressMap(
            config.num_hosts,
            config.cxl_dram.capacity_bytes,
            config.local_dram.capacity_bytes,
        )
        self.hosts = [
            Host(h, config, self.stats.scoped(f"host{h}"), workload_mlp)
            for h in range(config.num_hosts)
        ]
        # The fabric graph owns the per-host edge links and resolves each
        # host's route to the memory node into a path object.  Under the
        # flat preset ``paths[h] is links[h]`` (the bare CxlLink), so the
        # default topology cannot perturb a float of the pre-fabric model;
        # switched presets route through shared, contended segments.
        self.topology = FabricTopology(
            config.fabric, config.cxl_link, config.num_hosts, self.stats
        )
        self.links = self.topology.links
        self.paths = self.topology.paths
        self.device_dir = SlicedDirectory(
            config.directory.sets,
            config.directory.ways,
            config.directory.slices,
            name="device-dir",
        )
        self.cxl_mem = MemoryController(
            config.cxl_dram, self.stats.scoped("cxl_mem")
        )

        # -- fault injection (optional; zero-cost when idle) ---------------
        self.injector: Optional[FaultInjector] = None
        self.watchdog: Optional[InvariantWatchdog] = None
        self._faults_on = False
        if config.faults is not None:
            num_lines = self.address_map.cxl_capacity // units.CACHE_LINE
            if footprint_pages is not None:
                # Poison lines the workload can actually touch; the rest of
                # the pool is never accessed, so poison there never surfaces.
                num_lines = min(
                    num_lines, footprint_pages * units.LINES_PER_PAGE
                )
            plan = FaultPlan.from_config(
                config.faults, config.num_hosts, num_lines
            )
            self.injector = FaultInjector(plan)
            for h, link in enumerate(self.links):
                link.attach_faults(self.injector.link(h))
            self._faults_on = self.injector.can_disrupt_transfers
            self.watchdog = InvariantWatchdog(
                self,
                mode=config.faults.watchdog_mode,
                period_ns=config.faults.watchdog_period_ns,
            )
            if config.faults.has_switch_down:
                # Switch-level fault: every path traversing the named
                # switch runs degraded for the window (validate() already
                # required a non-flat fabric and a valid switch index).
                self.topology.apply_switch_down(
                    config.faults.switch_down,
                    config.faults.switch_down_start_ns,
                    config.faults.switch_down_end_ns,
                    config.faults.switch_down_latency_x,
                    config.faults.switch_down_bandwidth_x,
                )

        frames_per_host = int(
            config.local_dram.capacity_bytes
            * config.migration_capacity_fraction
        ) // units.PAGE_SIZE

        # -- latency constants (ns) ------------------------------------
        self._l1_ns = config.l1.latency_ns
        self._llc_ns = config.llc.latency_ns
        self._ldir_ns = config.local_dir_latency_ns
        self._ddir_ns = config.directory.latency_ns
        self._grc_ns = config.pipm.global_remap_cache_latency_ns
        self._lrc_ns = config.pipm.local_remap_cache_latency_ns

        # -- remap-table walk address regions --------------------------
        # Table walks occupy DRAM like any other access, but at the
        # *table's* addresses: walking at the data address would prime the
        # data line's row buffer and fake a row hit on the read that
        # follows.  The regions sit above the unified data map, so they can
        # never alias workload data in any bank.  (Per-host local tables
        # live behind per-host controllers; reusing one numeric base across
        # hosts cannot alias either.)
        table_base = self.address_map.total_capacity
        num_pages = self.address_map.cxl_capacity // units.PAGE_SIZE
        root_lines = num_pages // LEAF_ENTRIES // _ROOT_PTRS_PER_LINE + 1
        self._local_root_base = table_base
        self._local_leaf_base = table_base + (root_lines << units.LINE_SHIFT)
        self._global_table_base = table_base
        self._leaf_entries_per_line = (
            units.CACHE_LINE // config.pipm.local_entry_bytes
        )
        self._global_entries_per_line = (
            units.CACHE_LINE // config.pipm.global_entry_bytes
        )

        # -- mechanism state -----------------------------------------------
        self.mechanism = scheme.mechanism
        self.all_local = scheme.all_local
        scheme.bind(config.num_hosts, frames_per_host)

        # -- hot-path predicates (static for the lifetime of the run) ------
        self._is_pipm = self.mechanism is Mechanism.PIPM
        self._is_page_map = self.mechanism is Mechanism.PAGE_MAP
        self._cxl_end = self.address_map.cxl_end
        self._check_poison = (
            self.injector is not None and self.injector.has_poison
        )
        self._check_crash = (
            self.injector is not None and self.injector.has_crashes
        )
        # Promotion gating: degraded links and/or the crash governor.
        self._governed = self.injector is not None and (
            self.injector.can_disrupt_transfers or self.injector.has_crashes
        )

        self.engine: Optional[PipmEngine] = None
        self.page_map: Dict[int, int] = {}
        self._page_frames: Dict[int, int] = {}
        self.frames: List[FrameAllocator] = []
        self.dirty_pages: set = set()
        self.ledger: Optional[MigrationLedger] = None
        self._cost_model: Optional[KernelCostModel] = None
        self._next_interval: Optional[float] = None

        if self.mechanism is Mechanism.PIPM:
            static_frames = (
                self.address_map.cxl_capacity // units.PAGE_SIZE
                // config.num_hosts
                + 1
            )
            self.engine = PipmEngine(
                config.pipm,
                config.num_hosts,
                config.cxl_dram.capacity_bytes,
                static_frames if scheme.static_map else frames_per_host,
                static_map=scheme.static_map,
                infinite_global_cache=infinite_global_remap_cache,
                infinite_local_cache=infinite_local_remap_cache,
            )
        elif self.mechanism is Mechanism.PAGE_MAP:
            kernel_frames = frames_per_host
            if footprint_pages is not None:
                kernel_frames = min(
                    kernel_frames,
                    max(16, int(config.kernel.resident_fraction_cap
                                * footprint_pages)),
                )
            self.frames = [
                FrameAllocator(kernel_frames)
                for _ in range(config.num_hosts)
            ]
            kernel_cfg = config.kernel
            scale = getattr(scheme, "initiator_cost_scale", 1.0)
            if scale != 1.0:
                import dataclasses

                kernel_cfg = dataclasses.replace(
                    kernel_cfg,
                    initiator_cost_ns=kernel_cfg.initiator_cost_ns * scale,
                )
            self._cost_model = KernelCostModel(kernel_cfg, config.num_hosts)
            self.ledger = MigrationLedger(config)
            interval = scheme.interval_ns()
            if interval is None:
                # The scheme inherits the configured interval — and must be
                # told, since interval-relative policy logic (e.g. Nomad's
                # inactive-list aging) depends on it.
                interval = config.kernel.interval_ns
                if hasattr(scheme, "_interval_ns"):
                    scheme._interval_ns = interval
            self._interval_ns = interval
            self._next_interval = interval

        # -- run counters -------------------------------------------------
        self.svc_counts = [0] * 7
        self.migrations = 0
        self.demotions = 0
        self.mgmt_ns = 0.0
        self.transfer_ns = 0.0
        self.peak_local_pages: Dict[int, int] = {}
        self.peak_local_lines: Dict[int, int] = {}
        self.back_invalidations = 0

        # -- access-path bindings (resolved once; see access()) -----------
        device_dir = self.device_dir
        self._dir_arrays = device_dir._arrays
        self._dir_sets_per_slice = device_dir.sets_per_slice
        self._dir_slices = device_dir.slices
        self._dir_mask = device_dir._mask
        self._dir_ways = device_dir.ways
        self._cxl_chans = self.cxl_mem.pool.channels
        self._n_cxl = len(self._cxl_chans)
        self._num_hosts = config.num_hosts
        self._static_map = False
        self._grc = self._grc_sets = None
        self._grc_mask = self._grc_ways = 0
        if self._is_pipm:
            engine = self.engine
            self._static_map = engine.static_map
            self._pinned = engine._pinned_cxl
            self._global_entries = engine.global_table._entries
            vote = engine.vote
            self._vote_threshold = vote.threshold
            self._global_max = vote._global_max
            self._local_max = vote._local_max
            if type(engine.global_cache) is RemapCache:
                grc = self._grc = engine.global_cache._cache
                if not grc._lru:
                    raise ValueError(
                        "the access path models LRU remap caches only"
                    )
                self._grc_sets = grc._sets
                self._grc_mask = grc._mask
                self._grc_ways = grc.ways
        self._bindings = [
            _HostBindings(self, h) for h in range(config.num_hosts)
        ]

    # ==================================================================
    # The access path
    # ==================================================================
    def access(
        self, host_id: int, core: int, addr: int, is_write: bool, now: float
    ) -> Tuple[float, int]:
        """Service one memory access; returns ``(latency_ns, service_point)``.

        The TLB, L1, LLC, remap-cache and device-directory probes, fills
        and LRU evictions run inline on the host's preresolved sets; DRAM
        and link timing stay in :class:`DramChannel` and the host's
        resolved fabric path.  Rare flows (S -> M upgrades, dirty-owner
        forwards, GIM non-cacheable accesses, PIPM inter-host accesses and
        promotions, poison) call the helpers below.
        """
        b = self._bindings[host_id]
        line = addr >> _LINE_SHIFT
        page = line >> _LINE_TO_PAGE
        shared = addr < self._cxl_end

        # TLB translate: a miss pays the walk and fills the entry.
        tlb = b.tlb
        tlb_set = b.tlb_sets[page & b.tlb_mask]
        tlb_entry = tlb_set.get(page)
        if tlb_entry is not None:
            tlb.hits += 1
            del tlb_set[page]
            tlb_set[page] = tlb_entry
            lat = b.lat_tlb_hit
        else:
            tlb.misses += 1
            if len(tlb_set) >= b.tlb_ways:
                tlb.evictions += 1
                # Recycle the victim: TLB entries carry only their page.
                tlb_entry = tlb_set.pop(next(iter(tlb_set)))
                tlb_entry.line = page
                tlb_set[page] = tlb_entry
            else:
                tlb_set[page] = CacheEntry(page)
            lat = b.lat_tlb_miss

        if self._check_poison:
            injector = self.injector
            if now >= injector.next_poison_ns:
                for poisoned_line in injector.activate_poison(now):
                    self._poison_line(poisoned_line)
            if injector.poisoned and line in injector.poisoned:
                # Poisoned-line consumption: scrub and re-fetch a clean copy
                # from the device before the access can be served.
                injector.clear_poison(line)
                lat += injector.poison_penalty_ns

        l1, l1_sets, l1_mask, l1_ways = b.l1_lanes[core % b.n_l1]
        l1_set = l1_sets[line & l1_mask]
        entry = l1_set.get(line)
        if entry is not None:
            l1.hits += 1
            del l1_set[line]
            l1_set[line] = entry
            if is_write:
                if shared and not entry.dirty and entry.state == 0:
                    # Write hit on a Shared copy: S -> M upgrade must
                    # invalidate the other hosts' copies first.
                    lat += self._upgrade(host_id, line, now)
                    entry.state = 1
                    llc_copy = b.llc_sets[line & b.llc_mask].get(line)
                    if llc_copy is not None:
                        llc_copy.state = 1
                        llc_copy.dirty = True
                entry.dirty = True
            self.svc_counts[_SVC_L1] += 1
            return lat, _SVC_L1
        l1.misses += 1

        # Kernel-migrated pages are non-cacheable at *other* hosts: skip the
        # cache hierarchy entirely (Section 3.1).
        loc = None
        if shared and self._is_page_map:
            loc = self.page_map.get(page)
            if loc is not None and loc != host_id:
                return self._inter_host_nc(host_id, loc, page, addr,
                                           is_write, now, lat)

        llc = b.llc
        llc_sets = b.llc_sets
        llc_mask = b.llc_mask
        llc_set = llc_sets[line & llc_mask]
        llc_entry = llc_set.get(line)
        lat += self._llc_ns
        if llc_entry is not None:
            llc.hits += 1
            del llc_set[line]
            llc_set[line] = llc_entry
            if is_write and not llc_entry.dirty and llc_entry.state == 0:
                # Upgrade an S copy: other sharers must be invalidated.
                lat += self._upgrade(host_id, line, now)
                llc_entry.state = 1
            if is_write:
                llc_entry.dirty = True
            exclusive = llc_entry.state or 0
            svc = _SVC_LLC
        else:
            llc.misses += 1
            to_cxl = False
            if not shared or self.all_local:
                # Host-private data (stacks, code, kernel structures), or
                # a Local-only / Ideal scheme: served at local latency.
                chans = b.local_chans
                lat += self._ldir_ns + chans[
                    (addr >> _PAGE_SHIFT) % b.n_local
                ].access(addr, now)
                exclusive = 1
                svc = _SVC_LOCAL
            elif self._is_pipm:
                b.pt_mapped.add(page)
                engine = self.engine
                line_in_page = line & _LINES_MASK
                # Local remapping lookup decides I vs I' (Section 4.3.3).
                lrc_sets = b.lrc_sets
                if lrc_sets is None:
                    cache_hit = engine.local_caches[host_id].probe(page)
                else:
                    lrc = b.lrc
                    lrc_set = lrc_sets[page & b.lrc_mask]
                    remap = lrc_set.get(page)
                    cache_hit = remap is not None
                    if cache_hit:
                        lrc.hits += 1
                        del lrc_set[page]
                        lrc_set[page] = remap
                    else:
                        lrc.misses += 1
                pentry = b.local_entries.get(page)
                if (
                    pentry is None
                    and self._static_map
                    and page % self._num_hosts == host_id
                ):
                    # HW-static materializes its statically homed entries
                    # on first touch.
                    pfn = engine.frames[host_id].alloc()
                    if pfn is not None:
                        pentry = b.local_table.insert(page, pfn)
                lat += self._lrc_ns
                if not cache_hit:
                    # Negative results are cached too, so a page with no
                    # entry does not re-walk the radix table on every miss.
                    if lrc_sets is None:
                        engine.local_caches[host_id].install(page)
                    elif len(lrc_set) >= b.lrc_ways:
                        lrc.evictions += 1
                        remap = lrc_set.pop(next(iter(lrc_set)))
                        remap.line = page
                        lrc_set[page] = remap
                    else:
                        lrc_set[page] = CacheEntry(page)
                    # Two-level radix walk in local DRAM: one read per
                    # level, each at the table's own address.
                    chans = b.local_chans
                    n_local = b.n_local
                    walk = self._local_root_base + (
                        page // LEAF_ENTRIES // _ROOT_PTRS_PER_LINE
                        << _LINE_SHIFT
                    )
                    lat += chans[(walk >> _PAGE_SHIFT) % n_local].access(
                        walk, now
                    )
                    walk = self._local_leaf_base + (
                        page // self._leaf_entries_per_line << _LINE_SHIFT
                    )
                    lat += chans[(walk >> _PAGE_SHIFT) % n_local].access(
                        walk, now
                    )

                if pentry is not None and (
                    pentry.migrated_lines >> line_in_page & 1
                ):
                    # Case 3 of Fig. 9: I' -> ME, served from local memory.
                    if pentry.counter < self._local_max:
                        pentry.counter += 1
                    chans = b.local_chans
                    lat += self._ldir_ns + chans[
                        (addr >> _PAGE_SHIFT) % b.n_local
                    ].access(addr, now)
                    exclusive = 1
                    svc = _SVC_PIPM
                else:
                    if pentry is not None:
                        # The page is partially migrated here but this line
                        # still lives in CXL memory; the access still
                        # counts as local interest.
                        if pentry.counter < self._local_max:
                            pentry.counter += 1
                    # -> CXL memory node.  The global remapping lookup
                    # rides the device-directory request/response, so
                    # only the cache probe (and a table walk on a miss)
                    # adds latency here.
                    lat += self._grc_ns
                    grc_sets = self._grc_sets
                    if grc_sets is None:
                        global_hit = engine.global_cache.probe(page)
                        if not global_hit:
                            engine.global_cache.install(page)
                    else:
                        grc = self._grc
                        grc_set = grc_sets[page & self._grc_mask]
                        remap = grc_set.get(page)
                        global_hit = remap is not None
                        if global_hit:
                            grc.hits += 1
                            del grc_set[page]
                            grc_set[page] = remap
                        else:
                            grc.misses += 1
                            if len(grc_set) >= self._grc_ways:
                                grc.evictions += 1
                                remap = grc_set.pop(next(iter(grc_set)))
                                remap.line = page
                                grc_set[page] = remap
                            else:
                                grc_set[page] = CacheEntry(page)
                    if not global_hit:
                        # Global remapping table access in CXL DRAM, in
                        # the table's own address region.
                        walk = self._global_table_base + (
                            page // self._global_entries_per_line
                            << _LINE_SHIFT
                        )
                        lat += self._cxl_chans[
                            (walk >> _PAGE_SHIFT) % self._n_cxl
                        ].access(walk, now)

                    gentry = None
                    if self._static_map:
                        current = page % self._num_hosts
                        if current == host_id:
                            current = NO_HOST  # a plain CXL access below
                    else:
                        gentry = self._global_entries.get(page)
                        current = (NO_HOST if gentry is None
                                   else gentry.current_host)

                    to_cxl = True
                    if current != NO_HOST and current != host_id:
                        served = self._pipm_inter_host(
                            host_id, current, line, page, addr, is_write,
                            now, lat,
                        )
                        if served is not None:
                            # Cases 2/5/6: the line migrated back and is
                            # cached here exclusive.
                            lat = served
                            exclusive = 1
                            svc = _SVC_INTER
                            to_cxl = False
                        # Otherwise the line was not migrated (or the
                        # migration aborted): a plain CXL access.
                    elif current == NO_HOST and not (
                        self._governed
                        and self.injector.promotion_blocked(host_id, now)
                    ):
                        # (Graceful degradation skips the vote while this
                        # host's link runs degraded or the migration
                        # governor holds promotions suspended.)
                        if (
                            not self._static_map
                            and page not in self._pinned
                        ):
                            self._vote(gentry, page, host_id)
            else:
                b.pt_mapped.add(page)
                to_cxl = True
                if self._is_page_map:
                    self.scheme.observe_shared_access(host_id, page, now,
                                                      is_write)
                    if loc == host_id:
                        # Our own migrated page: a plain local access.
                        if self.ledger is not None:
                            self.ledger.record_local_access(page)
                        if is_write:
                            self.dirty_pages.add(page)
                        chans = b.local_chans
                        lat += self._ldir_ns + chans[
                            (addr >> _PAGE_SHIFT) % b.n_local
                        ].access(addr, now)
                        exclusive = 1
                        svc = _SVC_LOCAL
                        to_cxl = False

            if to_cxl:
                # Baseline cacheable CXL-DSM access (Fig. 2): a 2-hop
                # round trip, or a 4-hop forward to a dirty owner.
                extra = b.path.round_trip(now, CONTROL_BYTES, _CACHE_LINE)
                extra += self._ddir_ns
                dset = self._dir_arrays[
                    (line // self._dir_sets_per_slice) % self._dir_slices
                ][line & self._dir_mask]
                device_dir = self.device_dir
                device_dir.lookups += 1
                dentry = dset.get(line)
                svc = _SVC_CXL
                if dentry is not None:
                    device_dir.hits += 1
                    del dset[line]
                    dset[line] = dentry
                    owner = dentry.owner
                    if (
                        dentry.state == _M
                        and owner != host_id
                        and owner >= 0
                        and self.hosts[owner].holds_line(line)
                    ):
                        extra += self._owner_forward(host_id, owner, line,
                                                     addr, is_write, now)
                        svc = _SVC_FWD
                if svc == _SVC_CXL:
                    extra += self._cxl_chans[
                        (addr >> _PAGE_SHIFT) % self._n_cxl
                    ].access(addr, now)
                # Directory update.  A capacity victim is recalled before
                # the new entry is linked in (the recall never touches
                # this directory set) and its entry object is reused.
                if is_write:
                    if dentry is not None:
                        sharers = dentry.sharers
                        if len(sharers) != 1 or host_id not in sharers:
                            for sharer in sorted(sharers):
                                if sharer != host_id:
                                    self.hosts[sharer].invalidate_line(line)
                        dentry.state = _M
                        dentry.owner = host_id
                    elif len(dset) >= self._dir_ways:
                        dentry = dset.pop(next(iter(dset)))
                        device_dir.capacity_evictions += 1
                        self._back_invalidate(dentry, now)
                        dentry.line = line
                        dentry.state = _M
                        dentry.owner = host_id
                        dset[line] = dentry
                    else:
                        dentry = DirectoryEntry(line, _M, host_id)
                        dset[line] = dentry
                    dentry.sharers = {host_id}
                    exclusive = 1
                elif dentry is not None:
                    dentry.state = _S
                    sharers = dentry.sharers
                    if sharers and (len(sharers) != 1
                                    or host_id not in sharers):
                        # E -> S downgrade: earlier sole holders lose
                        # exclusivity.
                        for sharer in sorted(sharers):
                            if sharer != host_id:
                                self._drop_exclusivity(sharer, line)
                    sharers.add(host_id)
                    exclusive = 1 if len(sharers) <= 1 else 0
                else:
                    if len(dset) >= self._dir_ways:
                        dentry = dset.pop(next(iter(dset)))
                        device_dir.capacity_evictions += 1
                        self._back_invalidate(dentry, now)
                        dentry.line = line
                        dentry.state = _S
                        dentry.owner = -1
                        dentry.sharers = {host_id}
                        dset[line] = dentry
                    else:
                        dentry = DirectoryEntry(line, _S, -1)
                        dentry.sharers.add(host_id)
                        dset[line] = dentry
                    exclusive = 1
                lat = lat + extra

        # L1 fill (a dirty L1 victim marks its LLC copy dirty).
        if len(l1_set) >= l1_ways:
            l1.evictions += 1
            victim = l1_set.pop(next(iter(l1_set)))
            if victim.dirty:
                vline = victim.line
                llc_copy = llc_sets[vline & llc_mask].get(vline)
                if llc_copy is not None:
                    llc_copy.dirty = True
            victim.line = line
            victim.dirty = is_write
            victim.state = exclusive
            l1_set[line] = victim
        else:
            l1_set[line] = CacheEntry(line, is_write, exclusive)

        if llc_entry is None:
            # LLC fill.  The victim is handled before the fill is linked
            # in (eviction handling never reads this LLC set) and its
            # entry object is reused.
            if len(llc_set) >= b.llc_ways:
                llc.evictions += 1
                victim = llc_set.pop(next(iter(llc_set)))
                self._handle_llc_eviction(b.host, victim, now)
                victim.line = line
                victim.dirty = is_write
                victim.state = exclusive
                llc_set[line] = victim
            else:
                llc_set[line] = CacheEntry(line, is_write, exclusive)
        self.svc_counts[svc] += 1
        return lat, svc

    def _vote(self, gentry, page: int, host_id: int) -> None:
        """Majority vote for a CXL access to a non-migrated page.

        A vote that crosses the promotion threshold goes through
        :meth:`PipmEngine.record_cxl_access`, which promotes the page.
        """
        if gentry is None:
            # Step 1 of Fig. 7 on a never-touched page.
            gentry = GlobalRemapEntry()
            self._global_entries[page] = gentry
        counter = gentry.counter
        candidate = gentry.candidate_host
        if candidate == NO_HOST or counter == 0:
            gentry.candidate_host = host_id
            gentry.counter = 1
        elif candidate == host_id:
            if counter < self._global_max:
                counter += 1
            if counter >= self._vote_threshold:
                dest = self.engine.record_cxl_access(page, host_id)
                if dest is not None:
                    self.migrations += 1
                    self._track_engine_peaks(dest)
            else:
                gentry.counter = counter
        else:
            gentry.counter = counter - 1

    # ------------------------------------------------------------------
    # Coherence helpers (Fig. 2) for the rare flows
    # ------------------------------------------------------------------
    def _owner_forward(
        self, host_id: int, owner: int, line: int, addr: int,
        is_write: bool, now: float,
    ) -> float:
        """4-hop forward to a dirty owner; the data returns via the CXL node.

        Returns the latency the forward adds to the requester's 2-hop
        round trip.
        """
        pair = self.topology.pair(host_id, owner)
        lat = (
            pair.owner.round_trip(now, CONTROL_BYTES, _CACHE_LINE)
            + self._ldir_ns
            + self._llc_ns
        )
        if is_write:
            self.hosts[owner].invalidate_line(line)
        else:
            self.hosts[owner].downgrade_line(line)
        self.cxl_mem.write_line(addr, now)  # async writeback (occupancy)
        return lat

    def _dir_update(self, host_id, line, is_write, now):
        """Directory update for a line migrated back by an inter-host access."""
        if is_write:
            new_entry, victim = self.device_dir.allocate(line, _M, host_id)
            new_entry.sharers = {host_id}
        else:
            new_entry, victim = self.device_dir.allocate(line, _S, -1)
            if new_entry.state == _M:
                new_entry.state = _S
            # E -> S downgrade: earlier sole holders lose exclusivity.
            for sharer in sorted(new_entry.sharers):
                if sharer != host_id:
                    self._drop_exclusivity(sharer, line)
            new_entry.sharers.add(host_id)
        if victim is not None:
            self._back_invalidate(victim, now)

    def _drop_exclusivity(self, host_id: int, line: int) -> None:
        host = self.hosts[host_id]
        entry = host.llc.peek(line)
        if entry is not None:
            entry.state = 0
        for l1 in host.l1s:
            l1_entry = l1.peek(line)
            if l1_entry is not None:
                l1_entry.state = 0

    def _back_invalidate(self, victim, now: float) -> None:
        """Device-directory capacity eviction: recall the line everywhere."""
        self.back_invalidations += 1
        holders = set(victim.sharers)
        if victim.owner >= 0:
            holders.add(victim.owner)
        for holder in sorted(holders):
            dirty = self.hosts[holder].invalidate_line(victim.line)
            if dirty:
                base = victim.line << _LINE_SHIFT
                self.paths[holder].transfer(TO_DEVICE, now, _CACHE_LINE)
                self.cxl_mem.write_line(base, now)

    def _upgrade(self, host_id: int, line: int, now: float) -> float:
        """S -> M upgrade: invalidate other sharers through the device dir."""
        lat = self.paths[host_id].round_trip(now, CONTROL_BYTES, CONTROL_BYTES)
        lat += self._ddir_ns
        entry = self.device_dir.peek(line)
        if entry is not None:
            for sharer in sorted(entry.sharers):
                if sharer != host_id:
                    self.hosts[sharer].invalidate_line(line)
            entry.sharers = {host_id}
            entry.state = _M
            entry.owner = host_id
        return lat

    # ------------------------------------------------------------------
    # GIM non-cacheable inter-host path (Fig. 3, steps 1-5)
    # ------------------------------------------------------------------
    def _inter_host_nc(
        self, host_id, owner, page, addr, is_write, now, lat
    ) -> Tuple[float, int]:
        owner_host = self.hosts[owner]
        line = addr >> _LINE_SHIFT
        # Requester -> CXL node (routing by unified PA) -> owner -> back,
        # over the pair's two resolved fabric paths.
        pair = self.topology.pair(host_id, owner)
        lat += pair.requester.round_trip(
            now, CONTROL_BYTES,
            CONTROL_BYTES if is_write else _CACHE_LINE,
        )
        lat += self._ddir_ns  # RC routing at the CXL node
        lat += pair.owner.round_trip(
            now,
            _CACHE_LINE if is_write else CONTROL_BYTES,
            _CACHE_LINE,
        )
        lat += self._ldir_ns
        if owner_host.holds_line(line):
            lat += self._llc_ns
            if is_write:
                entry = owner_host.llc.peek(line)
                if entry is not None:
                    entry.dirty = True
        elif is_write:
            # Fig. 3 step 4: the write lands in the owner's DRAM.  (This
            # used to charge ``read_line``, leaving row-buffer/occupancy
            # state inconsistent with the data flow.)
            lat += owner_host.local_mem.write_line(addr, now)
        else:
            lat += owner_host.local_mem.read_line(addr, now)
        if is_write:
            self.dirty_pages.add(page)
        self.scheme.observe_shared_access(host_id, page, now, is_write)
        if self.ledger is not None:
            self.ledger.record_remote_access(page)
        self.svc_counts[_SVC_INTER] += 1
        return lat, _SVC_INTER

    # ------------------------------------------------------------------
    # PIPM workflows (Figs. 7 and 9)
    # ------------------------------------------------------------------
    def _pipm_inter_host(
        self, host_id, current, line, page, addr, is_write, now, lat
    ) -> Optional[float]:
        """An access to a page partially migrated to another host.

        Returns the latency when the line migrates back and is served
        4-hop from the owner (the caller fills it exclusive), or ``None``
        when the line was not migrated (or the migration aborted) and the
        access continues as a plain CXL access.
        """
        engine = self.engine
        line_in_page = line & _LINES_MASK
        # Under fault injection the migrate-back/revocation sequence is
        # transactional: snapshot first, roll back on a failed transfer
        # and degrade to a direct device access.
        txn = engine.begin_txn(current, page) if self._faults_on else None
        pair = self.topology.pair(host_id, current)
        migrated, revoked = engine.inter_host_access(
            current, page, line_in_page
        )
        aborted = False
        if revoked:
            try:
                self._revocation_transfer(current, page, revoked, now)
            except LinkTransferError as exc:
                self._abort_migration(txn, exc)
                aborted = True
        if not migrated or aborted:
            return None
        # Cases 2/5/6: 4-hop to the owner's local memory; the line
        # migrates back to CXL and the requester caches it normally.
        owner_host = self.hosts[current]
        try:
            if txn is not None:
                owner_rtt = pair.owner.try_round_trip(
                    now, CONTROL_BYTES, units.CACHE_LINE
                )
            else:
                owner_rtt = pair.owner.round_trip(
                    now, CONTROL_BYTES, units.CACHE_LINE
                )
        except LinkTransferError as exc:
            self._abort_migration(txn, exc)
            return None
        lat += pair.requester.round_trip(
            now, CONTROL_BYTES, units.CACHE_LINE
        )
        lat += self._ddir_ns
        lat += self.cxl_mem.read_line(addr, now)  # verify I' bit
        lat += owner_rtt
        lat += self._ldir_ns
        if owner_host.holds_line(line):  # ME cached (cases 5/6)
            lat += self._llc_ns
            if is_write:
                owner_host.invalidate_line(line)
            else:
                owner_host.downgrade_line(line)
        else:
            lat += owner_host.local_mem.read_line(addr, now)
        self.cxl_mem.write_line(addr, now)  # async migrate-back
        self._dir_update(host_id, line, is_write, now)
        return lat

    def _revocation_transfer(
        self, owner: int, page: int, lines: List[int], now: float
    ) -> None:
        """Bulk write-back of a revoked page's migrated lines (step 6).

        The link transfer runs first so a failed/timed-out transfer (fault
        injection) raises before any bookkeeping mutates; the caller rolls
        the engine back and nothing here needs undoing.
        """
        size = len(lines) * units.CACHE_LINE
        if size:
            if self._faults_on:
                self._bulk_transfer(owner, TO_DEVICE, size, now)  # may raise
            else:
                self.paths[owner].transfer(TO_DEVICE, now, size)
            self.transfer_ns += units.transfer_ns(
                size, self.config.cxl_link.bandwidth_gbs
            )
            base = page << units.PAGE_SHIFT
            for line_in_page in lines:
                self.cxl_mem.write_line(
                    base + line_in_page * units.CACHE_LINE, now
                )
        self.demotions += 1
        # The revoked page's lines must leave the owner's caches too.
        base_line = page << _LINE_TO_PAGE
        owner_host = self.hosts[owner]
        for line_in_page in lines:
            owner_host.invalidate_line(base_line + line_in_page)

    def _bulk_transfer(
        self, host: int, direction: int, size: int, now: float
    ) -> float:
        """Chunked migration transfer that aborts on error or timeout.

        Splitting the payload into sub-page chunks lets a degraded link time
        out partway instead of committing the whole serialization up front.
        Raises :class:`LinkTransferError` when the retry budget or the
        migration timeout runs out.
        """
        link = self.paths[host]
        timeout_ns = self.injector.migration_timeout_ns
        chunk = 16 * units.CACHE_LINE
        elapsed = 0.0
        offset = 0
        while offset < size:
            step = min(chunk, size - offset)
            elapsed += link.try_transfer(direction, now + elapsed, step)
            offset += step
            if elapsed > timeout_ns:
                raise LinkTransferError(
                    host, direction, size, reason="migration timeout"
                )
        return elapsed

    def _abort_migration(self, txn, exc: LinkTransferError) -> None:
        """Count an aborted migration and restore the snapshot, if any."""
        counters = self.injector.counters
        counters.migration_aborts += 1
        if exc.reason == "migration timeout":
            counters.migration_timeouts += 1
        if txn is not None:
            if txn.local_entry is not None and (
                self.injector.consume_rollback_sabotage()
            ):
                # Deliberately botched recovery (chaos/soak testing): drop
                # the local-side snapshot so the rollback restores the
                # global remap entry but not the owner's local entry/frame,
                # leaving exactly the cross-table inconsistency the
                # invariant watchdog exists to catch.
                import dataclasses

                txn = dataclasses.replace(
                    txn, local_entry=None, cache_resident=False
                )
            self.engine.rollback(txn)
            counters.rollbacks += 1

    def _poison_line(self, line: int) -> None:
        """Device-side poison: scrub the line out of every cache + the dir."""
        for host in self.hosts:
            host.invalidate_line(line)
        self.device_dir.remove(line)

    def _track_engine_peaks(self, host: int) -> None:
        table = self.engine.local_tables[host]
        pages = len(table)
        if pages > self.peak_local_pages.get(host, 0):
            self.peak_local_pages[host] = pages

    # ------------------------------------------------------------------
    # LLC evictions
    # ------------------------------------------------------------------
    def _handle_llc_eviction(self, host: Host, victim, now: float) -> None:
        host_id = host.host_id
        b = self._bindings[host_id]
        line = victim.line
        # Keep L1s inclusive: pull any L1 residue down with the eviction.
        for _l1, l1_sets, l1_mask, _ways in b.l1_lanes:
            residue = l1_sets[line & l1_mask].pop(line, None)
            if residue is not None and residue.dirty:
                victim.dirty = True
        addr = line << _LINE_SHIFT
        if addr >= self._cxl_end:
            if victim.dirty:
                b.local_chans[(addr >> _PAGE_SHIFT) % b.n_local].access(
                    addr, now
                )
            return
        page = line >> _LINE_TO_PAGE
        dset = self._dir_arrays[
            (line // self._dir_sets_per_slice) % self._dir_slices
        ][line & self._dir_mask]

        if self._is_pipm:
            entry = b.local_entries.get(page)
            if entry is not None and (victim.dirty or victim.state == 1):
                # Case 1 (dirty M) / exclusive-clean incremental migration:
                # the writeback lands in local DRAM and the bits flip.
                line_in_page = line & _LINES_MASK
                if not entry.migrated_lines >> line_in_page & 1:
                    self.engine.incremental_migrate(host_id, entry,
                                                    line_in_page)
                b.local_chans[(addr >> _PAGE_SHIFT) % b.n_local].access(
                    addr, now
                )
                dset.pop(line, None)
                lines = b.local_table._migrated_total
                if lines > self.peak_local_lines.get(host_id, 0):
                    self.peak_local_lines[host_id] = lines
                return

        if self._is_page_map:
            loc = self.page_map.get(page)
            if loc == host_id:
                if victim.dirty:
                    b.local_chans[(addr >> _PAGE_SHIFT) % b.n_local].access(
                        addr, now
                    )
                return

        if victim.dirty:
            b.path.transfer(TO_DEVICE, now, _CACHE_LINE)
            self._cxl_chans[(addr >> _PAGE_SHIFT) % self._n_cxl].access(
                addr, now
            )
        # Update device directory bookkeeping.
        entry = dset.get(line)
        if entry is not None:
            entry.sharers.discard(host_id)
            if entry.owner == host_id:
                entry.owner = -1
                entry.state = _S if entry.sharers else _I
            if not entry.sharers:
                del dset[line]

    # ------------------------------------------------------------------
    # Kernel migration intervals
    # ------------------------------------------------------------------
    def maybe_tick(self, now: float) -> None:
        """Run the kernel migration interval if its boundary passed."""
        if self._next_interval is None or now < self._next_interval:
            return
        while self._next_interval <= now:
            self._next_interval += self._interval_ns
        frames_free = {
            h: self.frames[h].available for h in range(self.config.num_hosts)
        }
        plan = self.scheme.plan_interval(now, self.page_map, frames_free)
        if plan.empty:
            return
        self._apply_plan(plan, now)

    def _apply_plan(self, plan, now: float) -> None:
        cost_model = self._cost_model
        pages_by_initiator: Dict[int, int] = {}
        free_clean = getattr(self.scheme, "free_clean_demotions", False)
        moved_pages: List[int] = []

        for page, src in plan.demotions:
            if self.page_map.get(page) != src:
                continue
            dirty = page in self.dirty_pages
            # Transfer before commit: a failed transfer (fault injection)
            # aborts the demotion with the page still resident and mapped.
            if dirty or not free_clean:
                try:
                    self._page_transfer(src, page, to_local=False, now=now)
                except LinkTransferError as exc:
                    self._abort_migration(None, exc)
                    continue
            del self.page_map[page]
            pfn = self._page_frames.pop(page, None)
            if pfn is not None:
                self.frames[src].free(pfn)
            self.demotions += 1
            self.dirty_pages.discard(page)
            pages_by_initiator[src] = pages_by_initiator.get(src, 0) + 1
            self._flush_page(page)
            moved_pages.append(page)
            if self.ledger is not None:
                self.ledger.record_demotion(page)

        # Cap promotions at the kernel's migration throughput, round-robin
        # across initiating hosts so one host's burst cannot starve others.
        budget = cost_model.cap_pages(len(plan.promotions))
        by_host: Dict[int, List] = {}
        for page, dest in plan.promotions:
            by_host.setdefault(dest, []).append((page, dest))
        capped: List = []
        while len(capped) < budget and any(by_host.values()):
            for dest in list(by_host):
                if by_host[dest]:
                    capped.append(by_host[dest].pop(0))
                    if len(capped) >= budget:
                        break
        for page, dest in capped:
            if page in self.page_map:
                continue
            if self._check_crash and dest in self.injector.crashed:
                # Never promote pages onto a dead host.
                self.injector.counters.governor_skips += 1
                continue
            if self._governed and self.injector.promotion_blocked(dest, now):
                # Graceful degradation: do not start promotions onto a host
                # whose link is running degraded, nor during a governor
                # hold (link flap hysteresis / crash recovery).
                continue
            pfn = self.frames[dest].alloc()
            if pfn is None:
                continue
            try:
                self._page_transfer(dest, page, to_local=True, now=now)
            except LinkTransferError as exc:
                self.frames[dest].free(pfn)
                self._abort_migration(None, exc)
                continue
            self.page_map[page] = dest
            self._page_frames[page] = pfn
            self.migrations += 1
            pages_by_initiator[dest] = pages_by_initiator.get(dest, 0) + 1
            self._flush_page(page)
            moved_pages.append(page)
            if self.ledger is not None:
                self.ledger.record_migration(page, dest)
            in_use = self.frames[dest].in_use
            if in_use > self.peak_local_pages.get(dest, 0):
                self.peak_local_pages[dest] = in_use
                self.peak_local_lines[dest] = in_use * units.LINES_PER_PAGE

        charge = cost_model.charge(pages_by_initiator)
        for host_id, mgmt in charge.per_host_mgmt_ns.items():
            self.hosts[host_id].clock_ns += mgmt
        self.mgmt_ns += charge.total_mgmt_ns
        for page in moved_pages:
            for host in self.hosts:
                host.tlb.shootdown(page)
                host.page_table.remap(page)

    def _page_transfer(self, host: int, page: int, to_local: bool,
                       now: float) -> None:
        """Occupy link + DRAM bandwidth for a whole-page migration."""
        addr = page << units.PAGE_SHIFT
        direction = TO_HOST if to_local else TO_DEVICE
        if self._faults_on:
            self._bulk_transfer(host, direction, units.PAGE_SIZE, now)
        else:
            self.paths[host].transfer(direction, now, units.PAGE_SIZE)
        self.transfer_ns += units.transfer_ns(
            units.PAGE_SIZE, self.config.cxl_link.bandwidth_gbs
        )
        if to_local:
            self.cxl_mem.transfer_page(addr, now)
            self.hosts[host].local_mem.transfer_page(addr, now)
        else:
            self.hosts[host].local_mem.transfer_page(addr, now)
            self.cxl_mem.transfer_page(addr, now)

    def _flush_page(self, page: int) -> None:
        """Invalidate a migrating page's lines from every cache + the dir."""
        base_line = page << _LINE_TO_PAGE
        for line in range(base_line, base_line + units.LINES_PER_PAGE):
            for host in self.hosts:
                host.invalidate_line(line)
            self.device_dir.remove(line)

    # ------------------------------------------------------------------
    # Host-crash fault domain (recovery orchestrator)
    # ------------------------------------------------------------------
    def maybe_crash(self, now: float) -> None:
        """Process crash/rejoin epochs that came due by ``now``.

        The engine calls this at the same global-order points as
        :meth:`maybe_tick`, so the recovery timeline is a deterministic
        function of the trace and the fault plan.
        """
        injector = self.injector
        if now < injector.next_crash_ns:
            return
        for host, is_rejoin in injector.due_crash_events(now):
            if is_rejoin:
                self._rejoin_host(host, now)
            else:
                self._recover_from_crash(host, now)

    def _recover_from_crash(self, dead: int, now: float) -> None:
        """Survivor-side recovery when host ``dead`` fail-stops at ``now``.

        Ordering (each step a deterministic function of the pre-crash
        state): directory reclaim -> dead-host cache/TLB scrub -> PIPM
        transaction teardown -> global candidate fencing -> kernel
        page-map teardown -> MTTR charge + governor suspension.
        """
        import dataclasses

        injector = self.injector
        counters = injector.counters
        injector.crashed.add(dead)
        counters.host_crashes += 1

        # (1) Directory reclaim: no surviving entry may name the dead
        # host.  M-state lines the dead host never wrote back are lost
        # updates — counted, never silently dropped.
        stale = [
            entry for entry in list(self.device_dir.entries())
            if entry.owner == dead or dead in entry.sharers
        ]
        for entry in sorted(stale, key=lambda e: e.line):
            if entry.state == _M and entry.owner == dead:
                counters.crash_lost_updates += 1
            entry.sharers.discard(dead)
            if entry.owner == dead:
                entry.owner = -1
                entry.state = _S if entry.sharers else _I
            if not entry.sharers:
                self.device_dir.remove(entry.line)
            counters.crash_lines_reclaimed += 1
        dir_touched = len(stale)

        # (2) The dead host's caches and TLB vanish with it (no writeback;
        # dirty shared state was already counted through the directory).
        self._purge_host_state(dead)

        # (3) PIPM teardown: every page partially migrated to the dead
        # host is an orphaned migration transaction.  Abort each through
        # the begin_txn/rollback machinery with an empty target state:
        # the rollback frees the frame, drops the local entry + remap
        # cache line, and returns the page to the all-zeros global state.
        pages_torn = 0
        if self._is_pipm:
            engine = self.engine
            table = engine.local_tables[dead]
            for page in sorted(table._entries):
                txn = engine.begin_txn(dead, page)
                if injector.consume_rollback_sabotage():
                    # Deliberately botched recovery (chaos/soak testing):
                    # leave the orphaned entry dangling so the watchdog's
                    # crash-domain audit has a real violation to catch.
                    continue
                entry = table.lookup(page)
                if entry is not None and entry.migrated_count:
                    # Lines whose only copy lived in the dead host's DRAM.
                    counters.crash_lost_updates += entry.migrated_count
                aborted = dataclasses.replace(
                    txn, global_entry=None, local_entry=None,
                    cache_resident=False,
                )
                engine.rollback(aborted)
                counters.crash_txns_aborted += 1
                counters.crash_pages_reclaimed += 1
                pages_torn += 1
            # (4) Fence global remap entries still voting for the dead
            # host so no future promotion targets its DRAM.
            for page, gentry in sorted(engine.global_table.items()):
                if gentry.candidate_host == dead:
                    gentry.candidate_host = NO_HOST
                    gentry.counter = 0

        # (5) Kernel page-map teardown: pages migrated to the dead host's
        # DRAM return to CXL memory; dirty ones are lost updates.
        if self._is_page_map:
            dead_pages = sorted(
                page for page, loc in self.page_map.items() if loc == dead
            )
            for page in dead_pages:
                if page in self.dirty_pages:
                    counters.crash_lost_updates += 1
                    self.dirty_pages.discard(page)
                del self.page_map[page]
                pfn = self._page_frames.pop(page, None)
                if pfn is not None:
                    self.frames[dead].free(pfn)
                self._flush_page(page)
                for host in self.hosts:
                    host.tlb.shootdown(page)
                    host.page_table.remap(page)
                counters.crash_pages_reclaimed += 1
                pages_torn += 1

        # (6) MTTR: detection (heartbeat timeout) + one directory
        # transaction per reclaimed entry + two link flights per page
        # torn down.  A pure function of config constants and the counts
        # above, so the recovery timeline is byte-deterministic per seed.
        mttr = (
            injector.crash_detect_ns
            + dir_touched * self._ddir_ns
            + pages_torn * 2.0 * self.config.cxl_link.latency_ns
        )
        counters.crash_recovery_ns += mttr
        injector.suspend_promotions(now + mttr + injector.governor_hold_ns)

    def _rejoin_host(self, host_id: int, now: float) -> None:
        """A crashed host comes back cold: empty caches, TLB, remap cache.

        Its local remap table and frames were reclaimed at crash time, so
        remap state re-warms through normal promotion traffic after the
        rejoin; nothing survives from before the crash.
        """
        injector = self.injector
        injector.crashed.discard(host_id)
        injector.counters.host_rejoins += 1
        self._purge_host_state(host_id)

    def _purge_host_state(self, host_id: int) -> None:
        """Drop a host's cached state in place (crash teardown / rejoin).

        Mutates the existing cache objects rather than replacing them: the
        access path's per-host bindings hold these objects directly.
        """
        host = self.hosts[host_id]
        for l1 in host.l1s:
            l1.flush()
        host.llc.flush()
        host.tlb.flush()
        if self._is_pipm:
            self.engine.local_caches[host_id].flush()

    # ------------------------------------------------------------------
    # End-of-run accounting
    # ------------------------------------------------------------------
    def fault_stats(self) -> Dict[str, float]:
        """Nonzero fault/recovery counters (empty when nothing ever fired).

        Only counters that actually fired are reported, so a configured but
        idle fault plan leaves the result stats byte-identical to a run with
        faults disabled.
        """
        out: Dict[str, float] = {}
        if self.injector is not None:
            c = self.injector.counters
            for key, value in (
                ("fault_injected_errors", c.injected_errors),
                ("fault_link_retries", c.link_retries),
                ("fault_link_giveups", c.link_giveups),
                ("fault_migration_aborts", c.migration_aborts),
                ("fault_migration_timeouts", c.migration_timeouts),
                ("fault_rollbacks", c.rollbacks),
                ("fault_degraded_skips", c.degraded_skips),
                ("fault_sabotaged_rollbacks", c.sabotaged_rollbacks),
                ("fault_host_stall_ns", c.host_stall_ns),
                ("fault_poison_recoveries", c.poison_recoveries),
                ("fault_recovery_ns", c.recovery_ns),
                ("fault_host_crashes", c.host_crashes),
                ("fault_host_rejoins", c.host_rejoins),
                ("fault_crash_lost_updates", c.crash_lost_updates),
                ("fault_crash_lines_reclaimed", c.crash_lines_reclaimed),
                ("fault_crash_pages_reclaimed", c.crash_pages_reclaimed),
                ("fault_crash_txns_aborted", c.crash_txns_aborted),
                ("fault_crash_dropped_accesses", c.crash_dropped_accesses),
                ("fault_crash_recovery_ns", c.crash_recovery_ns),
                ("fault_crash_down_ns", c.crash_down_ns),
                ("fault_governor_skips", c.governor_skips),
            ):
                if value:
                    out[key] = float(value)
        if self.watchdog is not None and self.watchdog.violations:
            out["watchdog_violations"] = float(len(self.watchdog.violations))
        return out

    def finalize(self) -> None:
        if self._check_crash:
            end_ns = max((host.clock_ns for host in self.hosts), default=0.0)
            # A crash epoch the trace ended just short of observing is
            # still recovered, so the availability accounting below
            # matches the timeline.
            self.maybe_crash(end_ns)
            counters = self.injector.counters
            down = 0.0
            for event in self.injector.plan.crash_events:
                if event.at_ns > end_ns:
                    continue
                rejoin = event.rejoin_ns
                up = end_ns if rejoin is None else min(rejoin, end_ns)
                if up > event.at_ns:
                    down += up - event.at_ns
            counters.crash_down_ns = down
        if self.ledger is not None:
            self.ledger.finalize()
        if self.engine is not None:
            for h in range(self.config.num_hosts):
                peak = self.engine.counters.peak_pages.get(h, 0)
                if peak > self.peak_local_pages.get(h, 0):
                    self.peak_local_pages[h] = peak
                peak_l = self.engine.counters.peak_lines.get(h, 0)
                if peak_l > self.peak_local_lines.get(h, 0):
                    self.peak_local_lines[h] = peak_l
            self.migrations = self.engine.counters.promotions
            self.demotions = self.engine.counters.revocations
