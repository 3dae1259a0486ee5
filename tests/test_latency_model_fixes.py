"""Regression tests for the shared-access-path latency-model fixes.

Each class pins one of the four bugs fixed in PR 5:

* owner-drop on LLC eviction (``_S if sharers else _S`` dead ternary),
* local remap radix walk charged as ``2 *`` one read at the data address,
* global remap-table walk reading the data page's own first line (and
  thereby faking a row hit on the data read that follows),
* inter-host non-cacheable writes charged as owner-DRAM *reads*.
"""

import pytest

from repro import units
from repro.config import SystemConfig
from repro.policies import make_scheme
from repro.sim.system import MultiHostSystem


@pytest.fixture()
def cfg() -> SystemConfig:
    return SystemConfig.scaled()


def make_system(cfg, scheme_name, **kw) -> MultiHostSystem:
    return MultiHostSystem(cfg, make_scheme(scheme_name), workload_mlp=4.0,
                           **kw)


class RecordingController:
    """Wraps a MemoryController and logs which API served each address."""

    def __init__(self, inner):
        self.inner = inner
        self.reads = []
        self.writes = []

    def read_line(self, addr, now):
        self.reads.append(addr)
        return self.inner.read_line(addr, now)

    def write_line(self, addr, now):
        self.writes.append(addr)
        return self.inner.write_line(addr, now)

    def transfer_page(self, addr, now):
        return self.inner.transfer_page(addr, now)


class RecordingChannels:
    """Logs the address of every DRAM channel access behind a controller.

    The access path calls a controller's channels directly (table walks
    included), so this spy swaps each channel of the pool for a recording
    wrapper, in place.
    """

    def __init__(self, controller):
        self.addrs = []
        channels = controller.pool.channels
        for index, channel in enumerate(channels):
            channels[index] = _RecordingChannel(channel, self.addrs)


class _RecordingChannel:
    def __init__(self, inner, addrs):
        self.inner = inner
        self.addrs = addrs

    def access(self, addr, now, size_bytes=units.CACHE_LINE):
        self.addrs.append(addr)
        return self.inner.access(addr, now, size_bytes)


class TestOwnerDropOnEviction:
    """``_handle_llc_eviction`` must drop the evicting owner for real."""

    def test_owner_eviction_keeps_remaining_sharers_shared(self, cfg):
        system = make_system(cfg, "native")
        addr = 0x2000
        line = addr >> units.LINE_SHIFT
        # Host 0 writes (M, owner 0), host 1 reads (S, sharers {0, 1}).
        system.access(0, 0, addr, True, 0.0)
        system.access(1, 0, addr, False, 1000.0)
        entry = system.device_dir.peek(line)
        assert entry.owner == 0 and entry.sharers == {0, 1}
        victim = system.hosts[0].llc.peek(line)
        assert victim is not None
        system._handle_llc_eviction(system.hosts[0], victim, 2000.0)
        entry = system.device_dir.peek(line)
        assert entry is not None
        assert entry.owner == -1
        assert entry.state == 1  # Shared: host 1 still holds a copy
        assert entry.sharers == {1}

    def test_sole_owner_eviction_removes_entry(self, cfg):
        system = make_system(cfg, "native")
        addr = 0x3000
        line = addr >> units.LINE_SHIFT
        system.access(0, 0, addr, True, 0.0)
        victim = system.hosts[0].llc.peek(line)
        assert victim is not None
        system._handle_llc_eviction(system.hosts[0], victim, 1000.0)
        assert system.device_dir.peek(line) is None


class TestLocalRemapWalk:
    """A local remap-cache miss walks the *table*, not the data address."""

    def test_walk_issues_two_distinct_table_reads(self, cfg):
        system = make_system(cfg, "pipm")
        host = system.hosts[0]
        spy = RecordingChannels(host.local_mem)
        addr = 0x40_0000  # shared page, never touched: cold walk
        system.access(0, 0, addr, False, 0.0)
        # Exactly one read per radix level, nothing else in local DRAM.
        assert len(spy.addrs) == 2
        root_read, leaf_read = spy.addrs
        assert root_read != leaf_read
        table_base = system.address_map.total_capacity
        assert root_read >= table_base
        assert leaf_read >= table_base
        assert addr not in spy.addrs

    def test_walk_cannot_alias_data_rows(self, cfg):
        """No walk address shares a DRAM row with any data address."""
        system = make_system(cfg, "pipm")
        row_bytes = cfg.local_dram.row_bytes
        data_top_row = (system.address_map.total_capacity - 1) // row_bytes
        host = system.hosts[0]
        spy = RecordingChannels(host.local_mem)
        for page_offset in (0, 1, 1024, 4096):
            system.access(0, 0, 0x40_0000 + page_offset * units.PAGE_SIZE,
                          False, float(page_offset))
        assert spy.addrs, "expected cold-page walks"
        assert all(a // row_bytes > data_top_row for a in spy.addrs)

    def test_repeat_page_hits_remap_cache_no_walk(self, cfg):
        system = make_system(cfg, "pipm")
        host = system.hosts[0]
        addr = 0x40_0000
        system.access(0, 0, addr, False, 0.0)
        spy = RecordingChannels(host.local_mem)
        # Second access to the same page, different line: remap cache hit.
        system.access(0, 0, addr + 2 * units.CACHE_LINE, False, 1000.0)
        assert spy.addrs == []


class TestGlobalRemapWalk:
    """A global remap-table walk must not warm the data line's row."""

    def _cxl_stat(self, system, name):
        return sum(
            value
            for key, value in system.stats.snapshot().items()
            if key.startswith("cxl_mem.") and key.endswith(name)
        )

    def test_walk_miss_does_not_fake_a_row_hit(self, cfg):
        system = make_system(cfg, "pipm")
        page = 64
        addr = page << units.PAGE_SHIFT  # the page's own first line
        system.access(0, 0, addr, False, 0.0)
        # Pre-fix the walk read *was* `read_line(page << PAGE_SHIFT)`: it
        # opened the data row and turned the data read into a guaranteed
        # row hit.  Cold banks must now see two genuine row misses (table
        # walk + data read).
        assert self._cxl_stat(system, "row_hits") == 0
        assert self._cxl_stat(system, "row_misses") == 2

    def test_walk_address_is_in_dedicated_region(self, cfg):
        system = make_system(cfg, "pipm")
        spy = RecordingChannels(system.cxl_mem)
        page = 64
        addr = page << units.PAGE_SHIFT
        system.access(0, 0, addr, False, 0.0)
        walk_reads = [a for a in spy.addrs if a != addr]
        assert len(walk_reads) == 1
        assert walk_reads[0] >= system.address_map.total_capacity


class TestInterHostWriteModeling:
    """Fig. 3 step 4: inter-host writes land in the owner's DRAM."""

    def _setup(self, cfg):
        system = make_system(cfg, "memtis")
        page = 16
        system.page_map[page] = 1  # page migrated to host 1
        owner = system.hosts[1]
        spy = RecordingController(owner.local_mem)
        owner.local_mem = spy
        return system, page, spy

    def test_uncached_inter_host_write_is_a_dram_write(self, cfg):
        system, page, spy = self._setup(cfg)
        addr = page << units.PAGE_SHIFT
        lat, svc = system.access(0, 0, addr, True, 0.0)
        assert svc == 6  # ServicePoint.INTER_HOST
        assert spy.writes == [addr]
        assert spy.reads == []

    def test_uncached_inter_host_read_still_reads(self, cfg):
        system, page, spy = self._setup(cfg)
        addr = page << units.PAGE_SHIFT
        lat, svc = system.access(0, 0, addr, False, 0.0)
        assert svc == 6
        assert spy.reads == [addr]
        assert spy.writes == []
