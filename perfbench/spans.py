"""Outside-in span tracer for the simulator's layers.

Every span is recorded from this benchmark's own files: :func:`instrument`
swaps each layer's public functions for timing wrappers at *class* level
(``SetAssocCache``, ``CxlLink``, ``DramChannel`` and ``SwitchedPath``
use ``__slots__``, so per-instance patching is impossible)
and restores the originals on exit, so nothing under ``src/`` changes and
an untraced run in the same process executes the unmodified code.

A span's *self time* is its duration minus the durations of the spans it
caused.  Tracing costs time on every span; :func:`calibrate_spans`
measures that cost on a wrapped no-op, and :meth:`Tracer.corrected_self_s`
subtracts it from the self time it landed in: the span's own, or its
caller's.
"""

from __future__ import annotations

import contextlib
import statistics
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Union

from repro.cache.directory import SlicedDirectory
from repro.cache.sa_cache import SetAssocCache
from repro.host.host import Host
from repro.host.tlb import Tlb
from repro.mem.controller import MemoryController
from repro.mem.cxl_link import CxlLink
from repro.mem.dram import DramChannel
from repro.mem.fabric import SwitchedPath
from repro.pipm.engine import PipmEngine
from repro.pipm.remap_global import GlobalRemapTable
from repro.pipm.remap_local import LocalRemapTable
from repro.policies import SCHEME_CLASSES
from repro.policies.base import Mechanism
from repro.sim.engine import SimulationEngine
from repro.sim.system import MultiHostSystem
from repro.sweep import journal as sweep_journal
from repro.sweep import spec as sweep_spec
from repro.sweep import store as sweep_store
from repro.sweep import traces as sweep_traces
from repro.workloads import registry

_ROOT = "<root>"
_MAX_DEPTH = 64


class Tracer:
    """Per-layer call counts and self time from nested spans.

    Layers are interned to integer slots and the span stack lives in
    preallocated per-depth lists, so a span costs list indexing rather
    than string-keyed dict updates.  Besides its calls and self time,
    each layer counts the child spans it opened (``kids``): part of a
    span's tracing cost lands in its caller's interval, not its own.
    A wrapped call opens no span when it
    re-enters the layer already open (``CxlLink.try_round_trip`` ->
    ``try_transfer``) or when the dispatch leaves it to its caller's
    layer (the TLB's and the remap caches' inner ``SetAssocCache``).
    """

    def __init__(self) -> None:
        self.labels: List[str] = [_ROOT]
        self._slots: Dict[str, int] = {_ROOT: 0}
        self._calls = [0]
        self._self_s = [0.0]
        self._kids = [0]
        self._stack = [0] * _MAX_DEPTH
        self._child_s = [0.0] * _MAX_DEPTH
        self._depth = [0]

    def slot(self, label: str) -> int:
        """The integer slot of ``label`` (allocated on first use)."""
        if label not in self._slots:
            self._slots[label] = len(self.labels)
            self.labels.append(label)
            self._calls.append(0)
            self._self_s.append(0.0)
            self._kids.append(0)
        return self._slots[label]

    def span(self, fn: Callable, label: Union[str, Callable]) -> Callable:
        """Wrap ``fn`` so each call records a span.

        ``label`` is a layer name, or a function mapping the call's first
        argument to a :meth:`slot` (``None``: open no span).
        """
        fixed = self.slot(label) if isinstance(label, str) else None
        slot_of = None if isinstance(label, str) else label
        stack, child_s, depth = self._stack, self._child_s, self._depth
        calls, self_s, kids = self._calls, self._self_s, self._kids

        def traced(*args, **kwargs):
            slot = fixed if slot_of is None else slot_of(args[0])
            parent = depth[0]
            if slot is None or stack[parent] == slot:
                return fn(*args, **kwargs)
            mine = parent + 1
            stack[mine] = slot
            child_s[mine] = 0.0
            depth[0] = mine
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                depth[0] = parent
                calls[slot] += 1
                self_s[slot] += elapsed - child_s[mine]
                child_s[parent] += elapsed
                kids[stack[parent]] += 1

        return traced

    def close_root(self, wall_s: float) -> None:
        """Book the time outside every span (``wall_s`` minus top-level
        span time) as the root's self time."""
        self._self_s[0] += wall_s - self._child_s[0]
        self._child_s[0] = 0.0

    def calls(self, label: str) -> int:
        slot = self._slots.get(label)
        return 0 if slot is None else self._calls[slot]

    @property
    def spans(self) -> int:
        return sum(self._calls)

    def corrected_self_s(self, label: str, cost: "SpanCost") -> float:
        """Self time less the tracing cost that landed in it: the inside
        part of its own spans and the outside part of its child spans."""
        slot = self._slots.get(label)
        if slot is None:
            return 0.0
        overhead = (cost.inside_s * self._calls[slot]
                    + cost.outside_s * self._kids[slot])
        return max(0.0, self._self_s[slot] - overhead)

    def corrected_total_s(self, cost: "SpanCost") -> float:
        return sum(self.corrected_self_s(label, cost)
                   for label in self.labels)


@dataclass(frozen=True)
class SpanCost:
    """Tracing cost of one span: ``inside_s`` falls within the span's
    own interval, ``outside_s`` within its caller's."""

    inside_s: float
    outside_s: float

    @property
    def span_s(self) -> float:
        return self.inside_s + self.outside_s


class _Probe:
    __slots__ = ()

    def noop(self, value):
        return value


def _loop_s(probe: _Probe, n: int) -> float:
    started = perf_counter()
    for i in range(n):
        probe.noop(i)
    return perf_counter() - started


def calibrate_spans(n: int = 200_000, rounds: int = 5) -> SpanCost:
    """Time :meth:`Tracer.span` on a class-level-wrapped no-op method,
    the shape of every traced call, against the bare one; the no-op's
    own self time tells the inside part from the outside part (median
    of ``rounds``)."""
    inside, outside = [], []
    for _ in range(rounds):
        tracer = Tracer()
        spanned = type("_Spanned", (_Probe,), {
            "__slots__": (), "noop": tracer.span(_Probe.noop, "noop")})
        raw = _loop_s(_Probe(), n) / n
        wrapped = _loop_s(spanned(), n) / n
        within = max(0.0, tracer._self_s[tracer.slot("noop")] / n - raw)
        inside.append(within)
        outside.append(max(0.0, wrapped - raw - within))
    return SpanCost(statistics.median(inside), statistics.median(outside))


# ----------------------------------------------------------------------
# Layer map: which public functions open which span.
# ----------------------------------------------------------------------
def _sa_cache_slots(tracer: Tracer) -> Callable:
    """Split ``SetAssocCache`` spans by the instance's ``name``: L1s are
    ``h<h>.l1.<c>``, LLCs ``h<h>.llc``; the TLB's and the remap caches'
    inner caches belong to their owner's span."""
    l1 = tracer.slot("cache.sa_cache.l1")
    llc = tracer.slot("cache.sa_cache.llc")
    by_name: Dict[str, Optional[int]] = {}

    def slot_of(cache) -> Optional[int]:
        name = cache.name
        slot = by_name.get(name, -1)
        if slot == -1:
            parts = name.split(".")
            if len(parts) == 3 and parts[1] == "l1":
                slot = l1
            elif len(parts) == 2 and parts[1] == "llc":
                slot = llc
            else:
                slot = None
            by_name[name] = slot
        return slot

    return slot_of


class _Patcher:
    """Records every attribute swap so :meth:`restore` can undo it."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: List[tuple] = []

    def swap(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attrs, label: Union[str, Callable]) -> None:
        for attr in attrs:
            self.swap(owner, attr, self.tracer.span(getattr(owner, attr),
                                                    label))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


@contextlib.contextmanager
def instrument(tracer: Tracer, counts: "LayerCounts") -> Iterator[None]:
    """Trace every layer for the duration of the ``with`` block.

    ``counts`` absorbs each system's counters as its engine run returns,
    so a sweep's systems need not outlive their runs.
    """
    patcher = _Patcher(tracer)
    try:
        _install(patcher, tracer, counts)
        yield
    finally:
        patcher.restore()


def _install(patcher: _Patcher, tracer: Tracer,
             counts: "LayerCounts") -> None:
    # Setup: trace generation, system construction, engine bake.
    generate = tracer.span(registry.generate, "workloads.generate")
    patcher.swap(registry, "generate", generate)
    # The sweep's trace store binds ``generate`` by name.
    patcher.swap(sweep_traces, "generate", generate)

    build = tracer.span(MultiHostSystem.__init__, "sim.system.build")
    # DramChannel has no name; tell local and CXL channels apart by the
    # pool that owns them, registered as each system is built.
    dram_local = tracer.slot("mem.dram.local")
    dram_cxl = tracer.slot("mem.dram.cxl")
    dram_slots: Dict[int, int] = {}

    def build_and_label(system, *args, **kwargs):
        build(system, *args, **kwargs)
        for channel in system.cxl_mem.pool.channels:
            dram_slots[id(channel)] = dram_cxl
        for host in system.hosts:
            for channel in host.local_mem.pool.channels:
                dram_slots[id(channel)] = dram_local

    patcher.swap(MultiHostSystem, "__init__", build_and_label)
    patcher.wrap(SimulationEngine, ["__init__"], "sim.engine.bake")
    run = tracer.span(SimulationEngine.run, "sim.engine.loop")

    def run_and_count(engine):
        result = run(engine)
        counts.absorb(engine.system)
        return result

    patcher.swap(SimulationEngine, "run", run_and_count)

    # The per-access path and the layers under it.
    patcher.wrap(MultiHostSystem, ["access"], "sim.system.access")
    patcher.wrap(MultiHostSystem, ["maybe_tick"], "policies.tick")
    patcher.wrap(SetAssocCache,
                 ["lookup", "peek", "fill", "invalidate", "contains"],
                 _sa_cache_slots(tracer))
    patcher.wrap(Tlb, ["translate", "shootdown"], "host.tlb")
    patcher.wrap(SlicedDirectory, ["lookup", "peek", "allocate", "remove"],
                 "cache.directory")
    for attr, verb in (("invalidate_line", "invalidate"),
                       ("downgrade_line", "downgrade"),
                       ("holds_line", "holds_line")):
        patcher.wrap(Host, [attr], f"host.host.coherence.{verb}")
    patcher.wrap(MemoryController,
                 ["read_line", "write_line", "transfer_page"],
                 "mem.controller")
    patcher.wrap(DramChannel, ["access"],
                 lambda channel: dram_slots[id(channel)])
    patcher.wrap(CxlLink,
                 ["transfer", "try_transfer", "round_trip", "try_round_trip"],
                 "mem.cxl_link")
    patcher.wrap(SwitchedPath,
                 ["transfer", "try_transfer", "round_trip", "try_round_trip"],
                 "mem.fabric")
    patcher.wrap(PipmEngine,
                 ["local_lookup", "device_lookup", "record_cxl_access",
                  "incremental_migrate", "record_local_access",
                  "inter_host_access", "begin_txn", "rollback",
                  "static_home"],
                 "pipm.engine")
    patcher.wrap(GlobalRemapTable, ["current_host"], "pipm.engine")
    patcher.wrap(LocalRemapTable, ["lookup", "migrated_line_total"],
                 "pipm.engine")
    observers = {
        klass for scheme in SCHEME_CLASSES.values()
        for klass in scheme.__mro__
        if "observe_shared_access" in klass.__dict__
    }
    for klass in sorted(observers, key=lambda k: k.__qualname__):
        patcher.wrap(klass, ["observe_shared_access"],
                     "policies.observe")

    # Sweep orchestration.
    patcher.wrap(sweep_traces.TraceStore, ["warm"],
                 "sweep.trace_store")
    patcher.wrap(sweep_store.ResultStore,
                 ["get", "put", "get_record", "put_record", "__contains__"],
                 "sweep.result_store")
    patcher.wrap(sweep_journal.SweepJournal, ["begin", "record"],
                 "sweep.journal")
    patcher.wrap(sweep_spec.ExperimentSpec, ["key", "trace_key"],
                 "sweep.spec.key")


# ----------------------------------------------------------------------
# Counters the layers already keep, summed over every traced system.
# ----------------------------------------------------------------------
class LayerCounts:
    """Hit/miss, queueing and event counters, summed across systems."""

    def __init__(self) -> None:
        self.totals: Dict[str, float] = defaultdict(float)

    def absorb(self, system: MultiHostSystem) -> None:
        add = self._add
        for host in system.hosts:
            for l1 in host.l1s:
                add("l1", l1.hits, l1.misses)
            add("llc", host.llc.hits, host.llc.misses)
            tlb = host.tlb._cache
            add("tlb", tlb.hits, tlb.misses)
        directory = system.device_dir
        add("dir", directory.hits, directory.lookups - directory.hits)
        self.totals["back_invalidations"] += system.back_invalidations
        if system.mechanism is Mechanism.PAGE_MAP:
            self.totals["kernel_migrations"] += system.migrations
        engine = system.engine
        if engine is not None:
            self.totals["promotions"] += engine.counters.promotions
            for cache in engine.local_caches:
                add("lrc", cache.hits, cache.misses)
            add("grc", engine.global_cache.hits, engine.global_cache.misses)
        for key, value in system.stats.snapshot().items():
            scope, _, stat = key.rpartition(".")
            if scope.startswith("link"):
                group = "link"
            elif scope.startswith(("leaf", "spine", "switch")):
                group = "fabric"
            elif scope.startswith("cxl_mem."):
                group = "dram_cxl"
            elif ".local_mem." in scope:
                group = "dram_local"
            else:
                continue
            self.totals[f"{group}.{stat}"] += value

    def _add(self, name: str, hits: float, misses: float) -> None:
        self.totals[f"{name}.hits"] += hits
        self.totals[f"{name}.misses"] += misses

    def rate(self, name: str) -> float:
        hits = self.totals.get(f"{name}.hits", 0.0)
        total = hits + self.totals.get(f"{name}.misses", 0.0)
        return hits / total if total else 0.0

    def row_hit_rate(self, group: str) -> float:
        hits = self.totals.get(f"{group}.row_hits", 0.0)
        total = hits + self.totals.get(f"{group}.row_misses", 0.0)
        return hits / total if total else 0.0

    def get(self, key: str) -> float:
        return self.totals.get(key, 0.0)
