"""Simulation driver: time-ordered interleaving of per-host trace streams.

Each host replays its stream against the shared system model.  Hosts are
interleaved by simulated time (a min-heap over host clocks), so shared
state — device directory, remapping tables, votes, migration intervals —
observes accesses in a globally consistent order, the multi-host analogue
of the paper's trace-replay methodology (Section 5.1.2).  Every access
goes through :meth:`MultiHostSystem.access`, one at a time (see
DESIGN.md, "The access path").
"""

from __future__ import annotations

import heapq
import math
from itertools import chain
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..config import SystemConfig
from ..policies.base import MigrationScheme
from ..workloads.trace import WorkloadTrace
from .results import ServicePoint, SimulationResult
from .system import MultiHostSystem

_SVC_L1 = int(ServicePoint.L1)

#: Records a host's replay converts to Python scalars at a time.
BAKE_CHUNK = 4096


class SimulationEngine:
    """Runs one workload trace through one system configuration."""

    def __init__(self, system: MultiHostSystem, trace: WorkloadTrace) -> None:
        if trace.num_hosts != system.config.num_hosts:
            raise ValueError(
                f"trace has {trace.num_hosts} hosts, system has "
                f"{system.config.num_hosts}"
            )
        self.system = system
        self.trace = trace
        # Check each host's (N, 4) records as array reductions and convert
        # nothing: ``run`` turns the records into Python scalars one window
        # at a time (``replay``), so no whole-trace list of Python objects
        # ever exists.
        self._instructions: List[int] = []
        for host_id, records in enumerate(trace.streams):
            gaps = records[:, 0]
            if len(gaps) and gaps.min() < 0:
                index = int(np.argmax(gaps < 0))
                raise ValueError(
                    f"trace {trace.name!r}: host {host_id} record "
                    f"{index} has a negative inter-access gap "
                    f"({int(gaps[index])} instructions); simulated time "
                    f"cannot run backwards"
                )
            self._instructions.append(int(gaps.sum()))
        if trace.total_accesses == 0:
            raise ValueError(
                f"trace {trace.name!r} contains no accesses on any host; "
                f"nothing to simulate"
            )
        address_map = system.address_map
        trace.validate(address_map.cxl_capacity, address_map.total_capacity)

    def run(self) -> SimulationResult:
        system = self.system
        hosts = system.hosts
        streams = self.trace.streams
        # One iterator per host over its records, baked one window at a
        # time; ``next_record[h]()`` yields host h's next
        # (compute_ns, addr, is_write, core).
        iters = [
            replay(records, host.core.ns_per_instruction)
            for records, host in zip(streams, hosts)
        ]
        next_record = [it.__next__ for it in iters]
        interval_scheme = system._next_interval is not None
        injector = system.injector
        check_stalls = injector is not None and injector.has_stalls
        check_crash = injector is not None and injector.has_crashes
        watchdog = system.watchdog
        check_watchdog = (
            watchdog is not None and watchdog.period_ns > 0
        )
        # When no interval scheme / fault plan / watchdog is armed, the
        # inner loop skips their checks entirely (the common profile case).
        eventful = (
            interval_scheme or check_stalls or check_watchdog or check_crash
        )

        stall_by_service = [0.0] * 7
        svc_l1 = _SVC_L1
        access = system.access
        heappop = heapq.heappop
        heappushpop = heapq.heappushpop
        lens = [len(records) for records in streams]
        instructions = list(self._instructions)
        inv_mlp = [host.core.inv_mlp for host in hosts]
        access_counts = [0] * len(hosts)
        inf = math.inf

        # Heap of (clock_ns, host_id, next_index).  The loop holds the
        # current minimum in ``item`` and continues a host via heappushpop,
        # which short-circuits in O(1) when that host is still the earliest
        # — the single-runnable-host case never touches the heap.
        heap = [
            (hosts[h].clock_ns, h, 0) for h, n in enumerate(lens) if n > 0
        ]
        heapq.heapify(heap)
        item = heappop(heap)
        while True:
            clock, host_id, index = item
            host = hosts[host_id]
            host_clock = host.clock_ns
            if host_clock > clock:
                # Management charges moved this host's clock forward; requeue
                # so interleaving stays time-ordered.
                item = heappushpop(heap, (host_clock, host_id, index))
                continue
            if check_stalls:
                resume = injector.stall_resume(host_id, clock)
                if resume is not None and resume > clock:
                    # The host is inside a pause/stall window: it executes
                    # nothing until the window ends.
                    injector.counters.host_stall_ns += resume - clock
                    host.clock_ns = resume
                    item = heappushpop(heap, (resume, host_id, index))
                    continue
            if check_crash:
                resume = injector.crash_resume(host_id, clock)
                if resume is not None:
                    if resume == inf:
                        # Fail-stop with no rejoin: drop the host's
                        # remaining stream deterministically (counted),
                        # and the instructions of its dropped records.
                        injector.counters.crash_dropped_accesses += (
                            lens[host_id] - index
                        )
                        instructions[host_id] -= int(
                            streams[host_id][index:, 0].sum()
                        )
                        if heap:
                            item = heappop(heap)
                            continue
                        break
                    # Dead until the rejoin epoch: pause the stream.
                    host.clock_ns = resume
                    item = heappushpop(heap, (resume, host_id, index))
                    continue
            compute_ns, addr, is_write, core = next_record[host_id]()
            now = host_clock + compute_ns
            host.clock_ns = now
            if eventful:
                if check_crash:
                    system.maybe_crash(now)
                    if host_id in injector.crashed:
                        # This access died with its host at the crash
                        # epoch: requeue so the next turn pauses or drops
                        # the stream instead of serving it, and hold the
                        # record so a rejoin serves this same access.
                        held = (compute_ns, addr, is_write, core)
                        iters[host_id] = chain((held,), iters[host_id])
                        next_record[host_id] = iters[host_id].__next__
                        item = heappushpop(heap, (now, host_id, index))
                        continue
                if interval_scheme:
                    system.maybe_tick(now)
                if check_watchdog:
                    watchdog.maybe_audit(now)
            latency, service = access(host_id, core, addr, is_write, now)
            access_counts[host_id] += 1
            if service != svc_l1:
                stall = latency * inv_mlp[host_id]
                host.clock_ns += stall
                stall_by_service[service] += stall
            index += 1
            if index < lens[host_id]:
                item = heappushpop(heap, (host.clock_ns, host_id, index))
            elif heap:
                item = heappop(heap)
            else:
                break

        return self._finish(stall_by_service, access_counts, instructions)

    # ------------------------------------------------------------------
    # Epilogue
    # ------------------------------------------------------------------
    def _finish(
        self, stall_by_service, access_counts, instructions
    ) -> SimulationResult:
        system = self.system
        hosts = system.hosts
        access_total = 0
        for host_id, host in enumerate(hosts):
            host.instructions += instructions[host_id]
            host.accesses += access_counts[host_id]
            access_total += access_counts[host_id]

        system.finalize()
        watchdog = system.watchdog
        if watchdog is not None:
            # One final end-of-run consistency sweep.
            watchdog.audit(max((h.clock_ns for h in hosts), default=0.0))
        return self._collect(stall_by_service, access_total)

    def _collect(self, stall_by_service, access_total) -> SimulationResult:
        system = self.system
        hosts = system.hosts
        host_times = [h.clock_ns for h in hosts]
        result = SimulationResult(
            workload=self.trace.name,
            scheme=system.scheme.name,
            num_hosts=system.config.num_hosts,
            exec_time_ns=max(host_times) if host_times else 0.0,
            host_time_ns=host_times,
            instructions=sum(h.instructions for h in hosts),
            accesses=access_total,
            service_counts={
                svc: count
                for svc, count in enumerate(system.svc_counts)
                if count
            },
            stall_ns_by_service={
                svc: ns
                for svc, ns in enumerate(stall_by_service)
                if ns
            },
            mgmt_ns=system.mgmt_ns,
            transfer_ns=system.transfer_ns,
            migrations=system.migrations,
            demotions=system.demotions,
            footprint_bytes=self.trace.footprint_bytes,
            peak_local_pages=dict(system.peak_local_pages),
            peak_local_lines=dict(system.peak_local_lines),
        )
        result.stats["freq_ghz"] = system.config.core.freq_ghz
        result.stats["back_invalidations"] = system.back_invalidations
        if system.ledger is not None:
            ledger = system.ledger
            result.stats["harmful_migrations"] = ledger.harmful_migrations
            result.stats["total_migrations"] = ledger.total_migrations
            result.stats["harmful_fraction"] = ledger.harmful_fraction
        if system.engine is not None:
            counters = system.engine.counters
            result.stats["pipm_promotions"] = counters.promotions
            result.stats["pipm_revocations"] = counters.revocations
            result.stats["pipm_incremental_migrations"] = (
                counters.incremental_migrations
            )
            result.stats["pipm_migrate_backs"] = counters.migrate_backs
            result.stats["global_remap_cache_hit_rate"] = (
                system.engine.global_cache.hit_rate
            )
            local_caches = system.engine.local_caches
            hits = sum(c.hits for c in local_caches)
            misses = sum(c.misses for c in local_caches)
            result.stats["local_remap_cache_hit_rate"] = (
                hits / (hits + misses) if hits + misses else 0.0
            )
        # Fault/recovery counters appear only when they fired, so an idle
        # fault plan leaves the result identical to a faults-disabled run.
        result.stats.update(system.fault_stats())
        return result


def bake(
    records: np.ndarray, ns_per_instr: float
) -> Tuple[list, list, list, list]:
    """One host's ``(N, 4)`` records as run-loop columns of Python scalars.

    Returns ``(compute_ns, addr, is_write, core)`` lists: the instruction
    gap times ``ns_per_instr`` as floats, ``is_write`` as bools, the rest
    as ints.  ``ndarray.tolist`` hands back native scalars with exactly
    the values the arrays hold, so the hot loop never touches numpy.
    """
    return (
        (records[:, 0] * float(ns_per_instr)).tolist(),
        records[:, 1].tolist(),
        (records[:, 2] != 0).tolist(),
        records[:, 3].tolist(),
    )


def replay(records: np.ndarray, ns_per_instr: float) -> Iterator[tuple]:
    """Iterate one host's records as ``(compute_ns, addr, is_write, core)``.

    Each window of ``BAKE_CHUNK`` records goes through :func:`bake` only
    when the previous one is used up, so the iterator holds one window of
    Python scalars at a time, and ``chain.from_iterable`` steps through
    the windows in C.
    """
    return chain.from_iterable(
        zip(*bake(records[start:start + BAKE_CHUNK], ns_per_instr))
        for start in range(0, len(records), BAKE_CHUNK)
    )


def simulate(
    trace: WorkloadTrace,
    scheme: MigrationScheme,
    config: Optional[SystemConfig] = None,
    **system_kwargs,
) -> SimulationResult:
    """Convenience: build a system for ``scheme`` and run ``trace``."""
    if config is None:
        config = SystemConfig.scaled()
    system_kwargs.setdefault(
        "footprint_pages", max(1, trace.footprint_bytes // 4096)
    )
    system = MultiHostSystem(
        config, scheme, workload_mlp=trace.mlp, **system_kwargs
    )
    return SimulationEngine(system, trace).run()
