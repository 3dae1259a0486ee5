"""Experiment specs, the content-addressed result store, and trace cache.

Includes the concurrent-writers regression suite for the bug class the
old ``benchmarks/.bench_cache.json`` design had: a single JSON blob read
at import time and rewritten wholesale on every put, so two processes
doing read-modify-write lost each other's entries (and a crash mid-write
corrupted the file for everyone).
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import FaultConfig, SystemConfig
from repro.sim.results import SimulationResult
from repro.sweep import (
    ExperimentSpec,
    ResultStore,
    TraceStore,
    build_matrix,
    content_key,
)
from repro.workloads.trace import WorkloadScale

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"
if str(BENCH_DIR) not in sys.path:  # for the legacy ResultCache tests
    sys.path.insert(0, str(BENCH_DIR))


# ----------------------------------------------------------------------
# Synthetic results (no simulation needed)
# ----------------------------------------------------------------------
def make_result(rng: random.Random, tag: int = 0) -> SimulationResult:
    """A randomized result exercising every nested field."""
    hosts = rng.randint(1, 8)
    return SimulationResult(
        workload=f"wl{tag}",
        scheme=rng.choice(["native", "pipm", "memtis"]),
        num_hosts=hosts,
        exec_time_ns=rng.random() * 1e9,
        host_time_ns=[rng.random() * 1e9 for _ in range(hosts)],
        instructions=rng.randint(0, 10**12),
        accesses=rng.randint(0, 10**9),
        service_counts={rng.randint(0, 6): rng.randint(0, 10**6)
                        for _ in range(rng.randint(0, 7))},
        stall_ns_by_service={rng.randint(0, 6): rng.random() * 1e8
                             for _ in range(rng.randint(0, 7))},
        mgmt_ns=rng.random() * 1e7,
        transfer_ns=rng.random() * 1e7,
        migrations=rng.randint(0, 10**5),
        demotions=rng.randint(0, 10**5),
        footprint_bytes=rng.randint(0, 2**40),
        peak_local_pages={h: rng.randint(0, 10**4) for h in range(hosts)},
        peak_local_lines={h: rng.randint(0, 10**6) for h in range(hosts)},
        stats={
            "freq_ghz": 4.0,
            "harmful_fraction": rng.random(),
            "pipm_promotions": float(rng.randint(0, 10**4)),
            "fault_link_retries": float(rng.randint(0, 100)),
            "watchdog_violations": float(rng.randint(0, 3)),
        },
    )


def make_spec(**overrides) -> ExperimentSpec:
    kwargs = dict(
        workload="pr",
        scheme="pipm",
        config=SystemConfig.scaled(),
        scale=WorkloadScale.tiny(),
    )
    kwargs.update(overrides)
    return ExperimentSpec.build(**kwargs)


# ----------------------------------------------------------------------
# Spec hashing
# ----------------------------------------------------------------------
class TestExperimentSpec:
    def test_key_is_deterministic(self):
        assert make_spec().key() == make_spec().key()

    def test_defaults_hash_like_explicit_defaults(self):
        implicit = ExperimentSpec.build("pr", "pipm")
        explicit = ExperimentSpec.build(
            "pr", "pipm", config=SystemConfig.scaled(),
            scale=WorkloadScale.default(),
        )
        assert implicit.key() == explicit.key()

    @pytest.mark.parametrize("mutate", [
        lambda: make_spec(workload="ycsb"),
        lambda: make_spec(scheme="native"),
        lambda: make_spec(scale=WorkloadScale.small()),
        lambda: make_spec(config=SystemConfig.scaled().replace_nested(
            "cxl_link", latency_ns=100.0)),
        lambda: make_spec(config=SystemConfig.scaled().replace_nested(
            "pipm", migration_threshold=4)),
        lambda: make_spec(config=SystemConfig.scaled(num_hosts=8)),
        lambda: make_spec(config=dataclasses.replace(
            SystemConfig.scaled(), faults=FaultConfig.parse("flaky"))),
        lambda: make_spec(scheme_kwargs={"interval_ns": 1e5}),
        lambda: make_spec(system_kwargs={"infinite_local_remap_cache": True}),
    ])
    def test_every_spec_dimension_changes_the_key(self, mutate):
        assert mutate().key() != make_spec().key()

    def test_trace_key_ignores_scheme_but_not_hosts(self):
        assert make_spec().trace_key() == make_spec(
            scheme="native").trace_key()
        assert make_spec().trace_key() != make_spec(
            config=SystemConfig.scaled(num_hosts=2)).trace_key()

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            make_spec(scheme="turbo")

    def test_unserializable_kwargs_rejected(self):
        with pytest.raises(TypeError, match="spec-serializable"):
            make_spec(system_kwargs={"callback": object()})

    def test_matrix_is_deduplicated(self):
        specs = build_matrix(
            ["pr"], ["native", "pipm"], scale=WorkloadScale.tiny(),
            variants=["base", "threshold"],
        )
        keys = [spec.key() for spec in specs]
        assert len(keys) == len(set(keys))
        # base contributes pr/native + pr/pipm; threshold adds the three
        # non-default thresholds (t=8 duplicates base pr/pipm; native
        # baseline duplicates base pr/native).
        assert len(specs) == 5

    def test_matrix_rejects_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown sweep variant"):
            build_matrix(["pr"], ["pipm"], variants=["bogus"])


# ----------------------------------------------------------------------
# Round-trip fidelity
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_record_round_trip_is_exact(self):
        rng = random.Random(1234)
        for tag in range(25):
            result = make_result(rng, tag)
            assert SimulationResult.from_record(result.to_record()) == result

    def test_record_round_trip_survives_json(self):
        rng = random.Random(99)
        for tag in range(25):
            result = make_result(rng, tag)
            record = json.loads(json.dumps(result.to_record()))
            assert SimulationResult.from_record(record) == result

    def test_store_round_trip_is_exact(self, tmp_path):
        rng = random.Random(7)
        store = ResultStore(tmp_path)
        for tag in range(10):
            spec = make_spec(config=SystemConfig.scaled().replace_nested(
                "cxl_link", latency_ns=25.0 + tag))
            result = make_result(rng, tag)
            store.put(spec, result)
            assert store.get(spec) == result

    def test_store_entries_are_deterministic_bytes(self, tmp_path):
        spec = make_spec()
        result = make_result(random.Random(5))
        a, b = ResultStore(tmp_path / "a"), ResultStore(tmp_path / "b")
        a.put(spec, result)
        b.put(spec, result)
        assert (a.path_for(spec.key()).read_bytes()
                == b.path_for(spec.key()).read_bytes())

    def test_get_miss_and_corrupt_entry(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = make_spec()
        assert store.get(spec) is None
        store.results_dir.mkdir(parents=True, exist_ok=True)
        store.path_for(spec.key()).write_text("{not json")
        assert store.get(spec) is None  # treated as a miss, not a crash

    def test_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(make_spec(), make_result(random.Random(0)))
        assert len(store) == 1
        assert store.clear() == 1
        assert len(store) == 0


# ----------------------------------------------------------------------
# Trace store
# ----------------------------------------------------------------------
class TestTraceStore:
    def test_disk_round_trip(self, tmp_path):
        store = TraceStore(tmp_path)
        scale = WorkloadScale.tiny()
        trace, hit = store.warm("pr", 4, 4, scale)
        assert not hit
        # A fresh store (new process stand-in) must load, not regenerate.
        fresh = TraceStore(tmp_path)
        again, hit = fresh.warm("pr", 4, 4, scale)
        assert hit
        assert len(again.streams) == len(trace.streams)
        for got, want in zip(again.streams, trace.streams):
            assert np.array_equal(got, want)
        assert again.footprint_bytes == trace.footprint_bytes

    @pytest.mark.parametrize("content", [b"", b"torn", b"PK\x03\x04torn",
                                         b"\x80\x04N."])
    def test_corrupt_file_is_regenerated(self, tmp_path, content):
        scale = WorkloadScale.tiny()
        trace, _ = TraceStore(tmp_path).warm("pr", 4, 4, scale)
        path = TraceStore(tmp_path).path_for(
            TraceStore.key_for("pr", 4, 4, scale)
        )
        path.write_bytes(content)
        fresh = TraceStore(tmp_path)
        again, hit = fresh.warm("pr", 4, 4, scale)
        assert not hit
        for got, want in zip(again.streams, trace.streams):
            assert np.array_equal(got, want)
        # The regenerated archive was republished over the corrupt file.
        assert TraceStore(tmp_path).warm("pr", 4, 4, scale)[1]

    def test_clear_removes_legacy_pickles(self, tmp_path):
        store = TraceStore(tmp_path)
        store.warm("ycsb", 4, 4, WorkloadScale.tiny())
        (store.traces_dir / "legacy.pkl").write_bytes(b"old")
        assert store.clear() == 2
        assert list(store.traces_dir.iterdir()) == []

    def test_memo_hit(self, tmp_path):
        store = TraceStore(tmp_path)
        scale = WorkloadScale.tiny()
        first, _ = store.warm("ycsb", 4, 4, scale)
        second, hit = store.warm("ycsb", 4, 4, scale)
        assert hit and second is first

    def test_key_depends_on_scale_and_hosts(self):
        tiny = WorkloadScale.tiny()
        assert (TraceStore.key_for("pr", 4, 4, tiny)
                != TraceStore.key_for("pr", 2, 4, tiny))
        assert (TraceStore.key_for("pr", 4, 4, tiny)
                != TraceStore.key_for("pr", 4, 4, WorkloadScale.small()))


# ----------------------------------------------------------------------
# Concurrency regression: no lost entries, no corruption
# ----------------------------------------------------------------------
N_WRITERS = 4
KEYS_PER_WRITER = 12


def _store_writer(args):
    root, writer = args
    rng = random.Random(writer)
    store = ResultStore(root)
    for i in range(KEYS_PER_WRITER):
        store.put_record(
            f"writer{writer}-key{i}",
            {"writer": writer, "i": i, "payload": [rng.random()] * 8},
        )
    return writer


def _legacy_cache_writer(args):
    root, writer = args
    from common import ResultCache  # benchmarks/common.py

    cache = ResultCache(Path(root))
    rng = random.Random(1000 + writer)
    for i in range(KEYS_PER_WRITER):
        cache.put(f"w{writer}|k{i}", make_result(rng, tag=i))
    return writer


def _same_key_writer(args):
    root, writer = args
    store = ResultStore(root)
    for i in range(50):
        store.put_record("contended", {"writer": writer, "i": i})
    return writer


class TestConcurrentWriters:
    def test_parallel_writers_lose_nothing(self, tmp_path):
        with multiprocessing.Pool(N_WRITERS) as pool:
            pool.map(_store_writer,
                     [(str(tmp_path), w) for w in range(N_WRITERS)])
        store = ResultStore(tmp_path)
        assert len(store) == N_WRITERS * KEYS_PER_WRITER
        for writer in range(N_WRITERS):
            for i in range(KEYS_PER_WRITER):
                entry = store.get_record(f"writer{writer}-key{i}")
                assert entry is not None, "lost a concurrent write"
                assert entry["writer"] == writer and entry["i"] == i

    def test_legacy_result_cache_concurrent_writers(self, tmp_path):
        """The bench ResultCache no longer loses concurrent entries."""
        with multiprocessing.Pool(N_WRITERS) as pool:
            pool.map(_legacy_cache_writer,
                     [(str(tmp_path), w) for w in range(N_WRITERS)])
        from common import ResultCache

        cache = ResultCache(tmp_path)
        for writer in range(N_WRITERS):
            rng = random.Random(1000 + writer)
            for i in range(KEYS_PER_WRITER):
                expected = make_result(rng, tag=i)
                got = cache.get(f"w{writer}|k{i}")
                assert got == expected, "lost or corrupted a concurrent write"

    def test_same_key_hammering_never_corrupts(self, tmp_path):
        with multiprocessing.Pool(N_WRITERS) as pool:
            pool.map(_same_key_writer,
                     [(str(tmp_path), w) for w in range(N_WRITERS)])
        entry = ResultStore(tmp_path).get_record("contended")
        assert entry is not None  # valid JSON: last atomic replace won
        assert entry["i"] == 49

    def test_no_temp_file_litter(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_record("k", {"v": 1})
        leftovers = [p for p in store.results_dir.iterdir()
                     if p.suffix == ".tmp"]
        assert leftovers == []
