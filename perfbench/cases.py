"""The benchmark's workloads, driven through the simulator's public API.

Each workload is a closed loop with one client: one process, one
simulation in flight, the next run started only after the previous one
returned.  Every run builds fresh systems, so caches, the coherence
directory and the remapping tables start empty (cold), and the sweep
writes into a fresh cache directory, so every spec simulates.

A run's timed region is entered through ``timed()``; the traced mode
passes the span instrumentation there, so its checks below run untraced.
A run may be given a ``checkpoint`` to call at its natural pauses (the
sweep calls it between specs); its time is no part of the run's.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import shutil
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, ContextManager, Dict, List, Optional

from repro import units
from repro.config import FabricConfig, SystemConfig
from repro.policies import make_scheme
from repro.sim.engine import SimulationEngine
from repro.sim.system import MultiHostSystem
from repro.sweep.matrix import build_matrix
from repro.sweep.runner import SweepRunner
from repro.sweep.store import ResultStore
from repro.sweep.traces import TraceStore
from repro.workloads import registry
from repro.workloads.trace import WorkloadScale

Timed = Callable[[], ContextManager]
Checkpoint = Optional[Callable[[], None]]


def record_digest(record: Dict) -> str:
    """A short content hash of one ``SimulationResult.to_record()``."""
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class Sample:
    """One timed run of a workload plus what its checks found.

    ``started`` and ``ended`` are ``perf_counter()`` readings; ``wall_s``
    and ``setup_s`` are host seconds, checkpoint pauses excluded.
    """

    started: float = 0.0
    ended: float = 0.0
    wall_s: float = 0.0
    setup_s: float = 0.0
    accesses: int = 0
    attempted: int = 0
    failed: int = 0
    records: Dict[str, Dict] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    @property
    def sim_accesses_per_s(self) -> float:
        return self.accesses / (self.wall_s - self.setup_s)


def _check_counts(label: str, result, expected: int) -> List[str]:
    """Service counts must account for every access of the trace."""
    served = sum(result.service_counts.values())
    if result.accesses == expected and served == expected:
        return []
    return [f"{label}: trace has {expected} accesses, result counts "
            f"{result.accesses}, service points sum to {served}"]


@dataclass(frozen=True)
class SingleRun:
    """One ``simulate()``-equivalent run at ``small`` scale, split into
    trace generation, system construction, engine bake and the run."""

    name: str
    workload: str
    scheme: str
    fabric: str

    def config(self) -> SystemConfig:
        return dataclasses.replace(
            SystemConfig.scaled(), fabric=FabricConfig.parse(self.fabric)
        )

    def scale(self, seed: int) -> WorkloadScale:
        return dataclasses.replace(WorkloadScale.small(), seed=seed)

    def run_once(self, seed: int, work_dir: Path,
                 timed: Timed = contextlib.nullcontext,
                 checkpoint: Checkpoint = None) -> Sample:
        sample = Sample(attempted=1)
        label = f"{self.workload}/{self.scheme}"
        try:
            with timed():
                started = perf_counter()
                config = self.config()
                trace = registry.generate(
                    self.workload,
                    num_hosts=config.num_hosts,
                    scale=self.scale(seed),
                    cores_per_host=config.cores_per_host,
                )
                # The same construction simulate() performs.
                system = MultiHostSystem(
                    config,
                    make_scheme(self.scheme),
                    workload_mlp=trace.mlp,
                    footprint_pages=max(
                        1, trace.footprint_bytes // units.PAGE_SIZE
                    ),
                )
                engine = SimulationEngine(system, trace)
                setup_done = perf_counter()
                result = engine.run()
                sample.ended = perf_counter()
                sample.started = started
                sample.wall_s = sample.ended - started
                sample.setup_s = setup_done - started
        except Exception:
            sample.failed = 1
            sample.problems.append(f"{label}: {traceback.format_exc()}")
            return sample
        sample.accesses = trace.total_accesses
        sample.records[label] = result.to_record()
        sample.problems += _check_counts(label, result, sample.accesses)
        return sample


#: The schemes ``sweep-tiny`` crosses with all 13 Table-1 workloads.
SWEEP_SCHEMES = ("native", "memtis", "pipm")


@dataclass(frozen=True)
class SerialSweep:
    """A cold ``repro sweep`` (serial, fresh cache dir) over the figure
    matrix's ``base`` variant at ``tiny`` scale."""

    name: str

    def specs(self, seed: int):
        scale = dataclasses.replace(WorkloadScale.tiny(), seed=seed)
        return build_matrix(registry.workload_names(), SWEEP_SCHEMES,
                            scale=scale, variants=("base",))

    def run_once(self, seed: int, work_dir: Path,
                 timed: Timed = contextlib.nullcontext,
                 checkpoint: Checkpoint = None) -> Sample:
        sample = Sample()
        cache_dir = tempfile.mkdtemp(prefix="sweep-", dir=work_dir)
        paused = 0.0

        def between_specs(_line: str) -> None:
            nonlocal paused
            began = perf_counter()
            checkpoint()
            paused += perf_counter() - began

        try:
            with timed():
                started = perf_counter()
                specs = self.specs(seed)
                matrix_s = perf_counter() - started
                summary = SweepRunner(specs, cache_dir, workers=1).run(
                    progress=between_specs if checkpoint else None
                )
                sample.ended = perf_counter()
                sample.started = started
                sample.wall_s = sample.ended - started - paused
            sample.setup_s = matrix_s + sum(
                elapsed for _name, _hit, elapsed in summary.trace_reports
            )
            self._check(specs, summary, cache_dir, sample)
        except Exception:
            sample.failed = max(sample.failed, 1)
            sample.problems.append(traceback.format_exc())
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return sample

    def _check(self, specs, summary, cache_dir: str, sample: Sample) -> None:
        sample.attempted = len(specs)
        sample.failed = summary.failed
        if len({spec.label() for spec in specs}) != len(specs):
            sample.problems.append("spec labels are not unique")
        for failure in summary.failures:
            sample.problems.append(
                f"{failure.label}: {failure.status}: {failure.error}"
            )
        store = ResultStore(cache_dir)
        traces = TraceStore(cache_dir)
        for spec in specs:
            label = spec.label()
            result = store.get(spec)
            if result is None:
                if not summary.failures:
                    sample.problems.append(f"{label}: no stored result")
                continue
            trace = traces.get_or_generate(
                spec.workload, spec.config.num_hosts,
                spec.config.cores_per_host, spec.scale,
            )
            sample.accesses += result.accesses
            sample.records[label] = result.to_record()
            sample.problems += _check_counts(label, result,
                                             trace.total_accesses)


WORKLOADS = {
    case.name: case
    for case in (
        SingleRun("pr-pipm", "pr", "pipm", "flat"),
        SingleRun("tpcc-memtis-twotier", "tpcc", "memtis",
                  "two-tier:hosts-per-leaf=2"),
        SerialSweep("sweep-tiny"),
    )
}


def check_repeats(samples: List[Sample]) -> List[str]:
    """Every repeat of a set must produce identical records."""
    good = [s for s in samples if s.records]
    problems = []
    for index, sample in enumerate(good[1:], start=2):
        if sample.records != good[0].records:
            changed = sorted(
                label for label in good[0].records
                if sample.records.get(label) != good[0].records[label]
            )
            problems.append(f"repeat {index} differs from repeat 1 on "
                            f"{', '.join(changed) or 'its spec set'}")
    return problems


def first_records(samples: List[Sample]) -> Optional[Dict[str, Dict]]:
    for sample in samples:
        if sample.records:
            return sample.records
    return None
