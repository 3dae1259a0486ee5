"""Fabric topology: config parsing, segment/path timing, flat identity,
cross-host contention, the switchdown fault, and link-accounting parity
between the fault-free and faulted transfer paths."""

from __future__ import annotations

import dataclasses

import pytest

from repro import units
from repro.config import FabricConfig, FaultConfig, SystemConfig
from repro.faults.injector import FaultCounters, LinkFaultModel
from repro.faults.plan import FaultPlan, LinkDegradeWindow
from repro.mem.cxl_link import TO_DEVICE, TO_HOST, CxlLink
from repro.mem.fabric import (
    FabricSegment,
    FabricTopology,
    SwitchedPath,
)
from repro.sim.harness import run_experiment
from repro.stats import StatRegistry
from repro.workloads.trace import WorkloadScale


def _topology(preset: str, hosts: int = 4, stats=None) -> FabricTopology:
    config = SystemConfig.scaled(num_hosts=hosts)
    return FabricTopology(
        FabricConfig.parse(preset), config.cxl_link, hosts, stats
    )


# ======================================================================
# FabricConfig parsing and validation
# ======================================================================
class TestFabricConfig:
    def test_presets_exist_and_validate(self):
        for preset in FabricConfig.PRESETS:
            config = FabricConfig.parse(preset)
            config.validate()
            assert config.topology == preset

    def test_default_is_flat(self):
        assert FabricConfig().is_flat
        assert SystemConfig.scaled().fabric.is_flat

    def test_parse_overrides(self):
        config = FabricConfig.parse(
            "two-tier:hosts-per-leaf=4,uplink-bandwidth-gbs=10"
        )
        assert config.topology == "two-tier"
        assert config.hosts_per_leaf == 4
        assert config.uplink_bandwidth_gbs == 10.0
        assert config.switch_latency_ns == 25.0  # preset value survives

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown fabric topology"):
            FabricConfig.parse("hypercube")

    def test_bad_override_rejected(self):
        with pytest.raises(ValueError, match="bad fabric override"):
            FabricConfig.parse("flat:not_a_knob=1")

    def test_topology_not_overridable(self):
        with pytest.raises(ValueError, match="bad fabric override"):
            FabricConfig.parse("flat:topology=two-tier")

    def test_switch_counts(self):
        flat = FabricConfig.parse("flat")
        single = FabricConfig.parse("single-switch")
        two = FabricConfig.parse("two-tier")
        assert flat.num_switches(32) == 0
        assert single.num_switches(32) == 1
        # 32 hosts / 8 per leaf = 4 leaves + the spine.
        assert two.num_leaves(32) == 4
        assert two.num_switches(32) == 5
        # Partial leaves round up.
        assert two.num_leaves(9) == 2

    def test_validate_rejects_bad_values(self):
        with pytest.raises(ValueError):
            FabricConfig(switch_port_bandwidth_gbs=0.0).validate()
        with pytest.raises(ValueError):
            FabricConfig(switch_latency_ns=-1.0).validate()
        with pytest.raises(ValueError):
            FabricConfig(hosts_per_leaf=0).validate()

    def test_rack_classmethod(self):
        config = SystemConfig.rack(num_hosts=16, topology="two-tier")
        assert config.num_hosts == 16
        assert config.fabric.topology == "two-tier"

    def test_switchdown_preset(self):
        faults = FaultConfig.parse("switchdown")
        assert faults.has_switch_down
        assert not faults.idle
        assert faults.switch_down == 0

    def test_switchdown_rejected_on_flat_fabric(self):
        config = dataclasses.replace(
            SystemConfig.scaled(), faults=FaultConfig.parse("switchdown")
        )
        with pytest.raises(ValueError, match="non-flat fabric"):
            config.validate()

    def test_switchdown_switch_index_bounds_checked(self):
        config = dataclasses.replace(
            SystemConfig.scaled(),
            fabric=FabricConfig.parse("single-switch"),
            faults=FaultConfig.parse("switchdown:switch-down=3"),
        )
        with pytest.raises(ValueError):
            config.validate()


# ======================================================================
# Segment and path timing
# ======================================================================
class TestFabricSegment:
    def test_uncontended_transfer(self):
        seg = FabricSegment("s", latency_ns=25.0, bandwidth_gbs=20.0)
        size = 4096
        expected = 25.0 + size * 1e9 / (20.0 * units.GB)
        assert seg.transfer(TO_DEVICE, 0.0, size) == expected

    def test_back_to_back_transfers_queue(self):
        seg = FabricSegment("s", latency_ns=25.0, bandwidth_gbs=20.0)
        first = seg.transfer(TO_DEVICE, 0.0, 4096)
        serialization = first - 25.0
        second = seg.transfer(TO_DEVICE, 0.0, 4096)
        assert second == pytest.approx(first + serialization)
        # Directions queue independently.
        assert seg.transfer(TO_HOST, 0.0, 4096) == first

    def test_degrade_window_slows_only_inside(self):
        seg = FabricSegment("s", latency_ns=25.0, bandwidth_gbs=20.0)
        clean = seg.transfer(TO_DEVICE, 0.0, 64)
        seg.reset()
        seg.set_degrade(100.0, 200.0, latency_x=4.0, bandwidth_x=4.0)
        assert not seg.degraded_at(0.0)
        assert seg.degraded_at(100.0)
        assert not seg.degraded_at(200.0)
        assert seg.transfer(TO_DEVICE, 0.0, 64) == clean
        degraded = seg.transfer(TO_DEVICE, 500.0, 64)  # queue is drained
        assert degraded == clean
        seg.reset()
        seg.set_degrade(100.0, 200.0, latency_x=4.0, bandwidth_x=4.0)
        assert seg.transfer(TO_DEVICE, 150.0, 64) > 4 * 25.0

    def test_reset_clears_queue_state(self):
        seg = FabricSegment("s", latency_ns=25.0, bandwidth_gbs=20.0)
        seg.transfer(TO_DEVICE, 0.0, 4096)
        assert seg.occupancy_until(TO_DEVICE) > 0
        seg.reset()
        assert seg.occupancy_until(TO_DEVICE) == 0.0


class TestSwitchedPath:
    def _path(self):
        link = CxlLink(SystemConfig.scaled().cxl_link)
        seg = FabricSegment("s", latency_ns=25.0, bandwidth_gbs=20.0)
        return SwitchedPath(link, (seg,)), link, seg

    def test_transfer_composes_edge_then_segments(self):
        path, link, seg = self._path()
        ref_link = CxlLink(SystemConfig.scaled().cxl_link)
        ref_seg = FabricSegment("s", latency_ns=25.0, bandwidth_gbs=20.0)
        total = path.transfer(TO_DEVICE, 0.0, 4096)
        edge = ref_link.transfer(TO_DEVICE, 0.0, 4096)
        expected = edge + ref_seg.transfer(TO_DEVICE, edge, 4096)
        assert total == expected

    def test_round_trip_is_out_then_back(self):
        path, _, _ = self._path()
        ref, _, _ = self._path()
        out = ref.transfer(TO_DEVICE, 0.0, units.CACHE_LINE)
        back = ref.transfer(TO_HOST, out, units.CACHE_LINE)
        assert path.round_trip(0.0) == out + back

    def test_path_is_link_compatible(self):
        path, link, _ = self._path()
        assert path.config is link.config
        assert path.hop_count() == 1
        path.transfer(TO_DEVICE, 0.0, 4096)
        assert path.occupancy_until(TO_DEVICE) >= link.occupancy_until(
            TO_DEVICE
        )
        path.reset()
        assert path.occupancy_until(TO_DEVICE) == 0.0


# ======================================================================
# Topology construction and contention
# ======================================================================
class TestFabricTopology:
    def test_flat_paths_are_the_links_themselves(self):
        topo = _topology("flat")
        for h in range(4):
            assert topo.paths[h] is topo.links[h]
        assert topo.num_switches == 0

    def test_single_switch_shares_one_port(self):
        topo = _topology("single-switch")
        assert topo.num_switches == 1
        port = topo.paths[0].segments[0]
        assert all(p.segments == (port,) for p in topo.paths)
        assert topo.hosts_behind(0) == (0, 1, 2, 3)

    def test_two_tier_groups_hosts_under_leaves(self):
        topo = FabricTopology(
            FabricConfig.parse("two-tier:hosts-per-leaf=4"),
            SystemConfig.scaled().cxl_link,
            8,
        )
        # 2 leaves + spine.
        assert topo.num_switches == 3
        assert topo.hosts_behind(0) == (0, 1, 2, 3)
        assert topo.hosts_behind(1) == (4, 5, 6, 7)
        assert topo.hosts_behind(2) == (0, 1, 2, 3, 4, 5, 6, 7)
        assert topo.paths[0].segments[0] is not topo.paths[4].segments[0]
        assert topo.paths[0].segments[1] is topo.paths[4].segments[1]

    def test_hosts_contend_on_the_shared_port(self):
        topo = _topology("single-switch")
        first = topo.paths[0].transfer(TO_DEVICE, 0.0, 4096)
        # A different host at the same instant queues behind host 0's
        # serialization on the shared switch port.
        second = topo.paths[1].transfer(TO_DEVICE, 0.0, 4096)
        assert second > first

    def test_flat_hosts_never_contend(self):
        topo = _topology("flat")
        first = topo.paths[0].transfer(TO_DEVICE, 0.0, 4096)
        second = topo.paths[1].transfer(TO_DEVICE, 0.0, 4096)
        assert second == first

    def test_pair_resolution(self):
        topo = _topology("single-switch")
        pair = topo.pair(1, 3)
        assert pair.requester is topo.paths[1]
        assert pair.owner is topo.paths[3]
        assert pair.hop_count() == 2
        assert topo.pair(1, 3) is pair  # cached

    def test_switch_down_degrades_only_paths_behind_it(self):
        topo = FabricTopology(
            FabricConfig.parse("two-tier:hosts-per-leaf=4"),
            SystemConfig.scaled().cxl_link,
            8,
        )
        clean = FabricTopology(
            FabricConfig.parse("two-tier:hosts-per-leaf=4"),
            SystemConfig.scaled().cxl_link,
            8,
        )
        topo.apply_switch_down(0, 0.0, 1e9, 4.0, 4.0)
        assert topo.paths[0].degraded_at(10.0)
        assert not topo.paths[4].degraded_at(10.0)
        # Compare against an otherwise-identical clean fabric so spine
        # queueing between sequential transfers can't confound the check.
        slow = topo.paths[0].transfer(TO_DEVICE, 0.0, 4096)
        assert slow > clean.paths[0].transfer(TO_DEVICE, 0.0, 4096)
        topo.reset()
        clean.reset()
        assert topo.paths[4].transfer(TO_DEVICE, 0.0, 4096) == (
            clean.paths[4].transfer(TO_DEVICE, 0.0, 4096)
        )

    def test_spine_down_degrades_everyone(self):
        topo = FabricTopology(
            FabricConfig.parse("two-tier:hosts-per-leaf=4"),
            SystemConfig.scaled().cxl_link,
            8,
        )
        topo.apply_switch_down(2, 0.0, 1e9, 4.0, 4.0)
        assert all(p.degraded_at(10.0) for p in topo.paths)

    def test_switch_down_bad_index_raises(self):
        topo = _topology("single-switch")
        with pytest.raises(ValueError, match="out of range"):
            topo.apply_switch_down(1, 0.0, 1e9, 4.0, 4.0)

    def test_segment_stats_scoped_per_switch(self):
        registry = StatRegistry()
        topo = _topology("single-switch", stats=registry)
        topo.paths[0].transfer(TO_DEVICE, 0.0, 4096)
        assert registry.get("switch0.messages") == 1
        assert registry.get("link0.messages") == 1


# ======================================================================
# Link accounting: fault path vs fast path (satellite bugfix)
# ======================================================================
def _noop_fault_model(host: int = 0) -> LinkFaultModel:
    """A fault model whose window multiplies nothing and never errors."""
    plan = FaultPlan(config=FaultConfig(), num_hosts=host + 1)
    plan.degrade_windows[host] = [
        LinkDegradeWindow(host, 0.0, 1e15, 1.0, 1.0)
    ]
    return LinkFaultModel(host, plan, FaultCounters())


class TestLinkAccountingParity:
    SEQUENCE = (
        (TO_DEVICE, 0.0, 4096),
        (TO_DEVICE, 10.0, 64),
        (TO_HOST, 20.0, 256),
        (TO_DEVICE, 100.0, 4096),
    )

    def test_fault_path_counts_like_fast_path_with_registry(self):
        reg_clean, reg_faulty = StatRegistry(), StatRegistry()
        clean = CxlLink(
            SystemConfig.scaled().cxl_link, reg_clean.scoped("link0")
        )
        faulty = CxlLink(
            SystemConfig.scaled().cxl_link, reg_faulty.scoped("link0")
        )
        faulty.attach_faults(_noop_fault_model())
        for direction, now, size in self.SEQUENCE:
            assert faulty.transfer(direction, now, size) == clean.transfer(
                direction, now, size
            )
        assert reg_faulty.snapshot() == reg_clean.snapshot()
        assert reg_clean.get("link0.messages") == len(self.SEQUENCE)

    def test_fault_path_counts_without_registry(self):
        """The old code skipped counting entirely with no registry."""
        link = CxlLink(SystemConfig.scaled().cxl_link)
        link.attach_faults(_noop_fault_model())
        for direction, now, size in self.SEQUENCE:
            link.transfer(direction, now, size)
        assert link._messages.value == len(self.SEQUENCE)
        assert link._bytes.value == sum(s for _, _, s in self.SEQUENCE)

    def test_queue_delay_parity_under_noop_window(self):
        """``transfer`` and ``_transfer_with_faults`` must evolve the
        same ``_busy_until`` and charge the same queue_ns under a no-op
        fault window."""
        clean = CxlLink(SystemConfig.scaled().cxl_link)
        faulty = CxlLink(SystemConfig.scaled().cxl_link)
        faulty.attach_faults(_noop_fault_model())
        for direction, now, size in self.SEQUENCE:
            clean.transfer(direction, now, size)
            faulty.transfer(direction, now, size)
            assert faulty._busy_until == clean._busy_until
        assert faulty._queue_ns.value == clean._queue_ns.value
        assert faulty._queue_ns.value > 0  # the sequence does queue

    def test_retries_count_messages_and_bytes(self):
        config = SystemConfig.scaled()
        plan = FaultPlan.from_config(
            FaultConfig.parse("none:transfer-error-rate=0.5,seed=11"),
            config.num_hosts,
            4096,
        )
        from repro.faults import FaultInjector

        injector = FaultInjector(plan)
        link = CxlLink(config.cxl_link)
        link.attach_faults(injector.link(0))
        sent = 0
        for _ in range(100):
            link.transfer(TO_DEVICE, link.occupancy_until(TO_DEVICE), 64)
            sent += 1
        assert link._retries.value == injector.counters.link_retries
        assert link._retries.value > 0
        # Each retry re-sends the message on the wire.
        assert link._messages.value == sent + link._retries.value


# ======================================================================
# End-to-end: flat identity and switched-fabric costs
# ======================================================================
class TestTopologyEndToEnd:
    def _run(self, topology, scheme="pipm", hosts=4, faults=None):
        config = SystemConfig.scaled(num_hosts=hosts)
        if topology is not None:
            config = dataclasses.replace(
                config, fabric=FabricConfig.parse(topology)
            )
        if faults is not None:
            config = dataclasses.replace(
                config, faults=FaultConfig.parse(faults)
            )
        config.validate()
        return run_experiment(
            "pr", scheme, config, scale=WorkloadScale.tiny(),
        )

    def test_flat_is_byte_identical_to_default(self):
        """An explicit flat fabric must not move a single float of the
        pre-fabric (default-config) model the goldens pin."""
        for scheme in ("pipm", "native", "memtis"):
            default = self._run(None, scheme)
            flat = self._run("flat", scheme)
            assert flat.to_record() == default.to_record(), scheme

    def test_switched_fabrics_cost_time(self):
        flat = self._run("flat")
        single = self._run("single-switch")
        two_tier = self._run("two-tier")
        assert flat.exec_time_ns < single.exec_time_ns
        assert single.exec_time_ns < two_tier.exec_time_ns

    def test_switchdown_costs_time(self):
        clean = self._run("single-switch")
        down = self._run("single-switch", faults="switchdown")
        assert down.exec_time_ns > clean.exec_time_ns
