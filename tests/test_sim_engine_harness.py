"""Simulation engine, harness, and result metrics."""

import gc
import tracemalloc

import numpy as np
import pytest

from repro import (
    SystemConfig,
    WorkloadScale,
    compare_schemes,
    generate,
    run_experiment,
    simulate,
)
from repro.policies import make_scheme
from repro.sim import engine as sim_engine
from repro.sim.engine import SimulationEngine, bake
from repro.sim.harness import DEFAULT_SCHEMES, speedups_over_native
from repro.sim.results import ServicePoint, SimulationResult
from repro.sim.system import MultiHostSystem
from repro.workloads.trace import WorkloadTrace


@pytest.fixture(scope="module")
def native_result(tiny_pr_trace, scaled_config):
    return simulate(tiny_pr_trace, make_scheme("native"), scaled_config)


@pytest.fixture(scope="module")
def pipm_result(tiny_pr_trace, scaled_config):
    return simulate(tiny_pr_trace, make_scheme("pipm"), scaled_config)


class TestBake:
    RECORDS = np.array([(2, 128, 1, 0), (5, 4096, 0, 1), (1, 64, 0, 3)],
                       dtype=np.int64)

    def test_columns_match_records(self):
        compute_ns, addr, is_write, core = bake(self.RECORDS, 0.5)
        assert compute_ns == [1.0, 2.5, 0.5]
        assert addr == [128, 4096, 64]
        assert is_write == [True, False, False]
        assert core == [0, 1, 3]

    def test_columns_are_python_scalars(self):
        compute_ns, addr, is_write, core = bake(self.RECORDS, 0.5)
        assert all(type(ns) is float for ns in compute_ns)
        assert all(type(a) is int for a in addr + core)
        assert all(type(w) is bool for w in is_write)


class TestWindowedReplay:
    """``run`` bakes each host's records one ``BAKE_CHUNK`` window at a
    time; every split must replay exactly as one whole-trace window."""

    @staticmethod
    def _records(n, seed):
        rng = np.random.default_rng(seed)
        return np.column_stack([
            rng.integers(0, 200, n),
            rng.integers(0, 4096, n) * 64,
            rng.integers(0, 2, n),
            rng.integers(0, 4, n),
        ]).astype(np.int64)

    @pytest.mark.parametrize("chunk", [1, 3, 10, 11, 4096])
    def test_replay_matches_one_window(self, chunk, monkeypatch):
        records = self._records(10, seed=1)
        monkeypatch.setattr(sim_engine, "BAKE_CHUNK", chunk)
        assert list(sim_engine.replay(records, 0.25)) == list(
            zip(*bake(records, 0.25)))

    def test_replay_of_empty_stream_is_empty(self):
        assert list(sim_engine.replay(self._records(0, seed=1), 0.5)) == []

    @pytest.mark.parametrize("window", [4096, 7])
    def test_run_matches_one_window(self, window, scaled_config,
                                    monkeypatch):
        """Host 0 is shorter than one window, hosts 1-2 are not multiples
        of the window, and host 3 is exactly one window."""
        lengths = [window // 2 + 1, window + 1, 2 * window + 37, window]
        trace = WorkloadTrace(
            name="hand", num_hosts=4,
            streams=[self._records(n, seed=h)
                     for h, n in enumerate(lengths)],
            footprint_bytes=4096 * 64,
        )
        monkeypatch.setattr(sim_engine, "BAKE_CHUNK", window)
        windowed = simulate(trace, make_scheme("pipm"), scaled_config)
        monkeypatch.setattr(sim_engine, "BAKE_CHUNK", max(lengths))
        whole = simulate(trace, make_scheme("pipm"), scaled_config)
        assert windowed.accesses == sum(lengths)
        assert windowed.instructions == trace.total_instructions
        assert windowed.to_record() == whole.to_record()


class TestReplayMemory:
    """Regression gate: the engine holds no whole-trace Python lists.

    ``pr`` at ``small`` scale (4 x 50k records).  A whole-trace
    conversion to Python scalars retains about 17.6 MB here; one window
    per host is about 1.5 MB.  The memory system is stubbed out of the
    run (every access an L1 hit), so the traced peak is the engine's own
    and the gate runs in seconds under ``tracemalloc``.
    """

    @pytest.fixture(scope="class")
    def system_and_trace(self):
        trace = generate("pr", scale=WorkloadScale.small())
        system = MultiHostSystem(
            SystemConfig.scaled(), make_scheme("native"),
            workload_mlp=trace.mlp,
            footprint_pages=max(1, trace.footprint_bytes // 4096),
        )
        l1 = int(ServicePoint.L1)
        system.access = lambda host, core, addr, is_write, now: (0.0, l1)
        return system, trace

    def test_construction_and_run_stay_bounded(self, system_and_trace):
        system, trace = system_and_trace
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            engine = SimulationEngine(system, trace)
            retained = tracemalloc.get_traced_memory()[0] - before
            tracemalloc.reset_peak()
            result = engine.run()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert result.accesses == trace.total_accesses
        assert retained < 1_000_000
        assert peak < 4_000_000


class TestEngine:
    def test_runs_all_accesses(self, native_result, tiny_pr_trace):
        assert native_result.accesses == tiny_pr_trace.total_accesses
        assert native_result.instructions == tiny_pr_trace.total_instructions

    def test_host_clocks_advance(self, native_result):
        assert all(t > 0 for t in native_result.host_time_ns)
        assert native_result.exec_time_ns == max(native_result.host_time_ns)

    def test_service_counts_sum(self, native_result):
        assert sum(native_result.service_counts.values()) == (
            native_result.accesses
        )

    def test_trace_host_mismatch_rejected(self, tiny_pr_trace):
        cfg = SystemConfig.scaled(num_hosts=2)
        system = MultiHostSystem(cfg, make_scheme("native"))
        with pytest.raises(ValueError):
            SimulationEngine(system, tiny_pr_trace)

    def test_deterministic(self, tiny_pr_trace, scaled_config):
        a = simulate(tiny_pr_trace, make_scheme("pipm"), scaled_config)
        b = simulate(tiny_pr_trace, make_scheme("pipm"), scaled_config)
        assert a.exec_time_ns == b.exec_time_ns
        assert a.service_counts == b.service_counts


class TestResultMetrics:
    def test_ipc_positive_and_bounded(self, native_result, scaled_config):
        per_host_ipc = native_result.ipc / scaled_config.num_hosts
        width = scaled_config.core.width * scaled_config.cores_per_host
        assert 0 < per_host_ipc < width

    def test_speedup_identity(self, native_result):
        assert native_result.speedup_over(native_result) == 1.0

    def test_speedup_rejects_cross_workload(self, native_result,
                                            tiny_ycsb_trace, scaled_config):
        other = simulate(tiny_ycsb_trace, make_scheme("native"), scaled_config)
        with pytest.raises(ValueError):
            other.speedup_over(native_result)

    def test_local_hit_rate_native_zero(self, native_result):
        assert native_result.local_hit_rate == 0.0

    def test_local_hit_rate_pipm_positive(self, pipm_result):
        assert pipm_result.local_hit_rate > 0.0

    def test_breakdown_components_sum(self, native_result, tiny_pr_trace,
                                      scaled_config):
        nomad = simulate(tiny_pr_trace, make_scheme("nomad"), scaled_config)
        parts = nomad.breakdown_vs(native_result.exec_time_ns)
        assert parts["total"] == pytest.approx(
            parts["other"] + parts["management"] + parts["transfer"]
        )

    def test_summary_readable(self, pipm_result):
        text = pipm_result.summary()
        assert "pr/pipm" in text
        assert "local_hit" in text

    def test_pipm_stats_present(self, pipm_result):
        assert "pipm_promotions" in pipm_result.stats
        assert "global_remap_cache_hit_rate" in pipm_result.stats

    def test_footprint_fractions_bounded(self, pipm_result):
        assert 0 <= pipm_result.local_page_footprint_fraction <= 1.5
        assert (pipm_result.local_line_footprint_fraction
                <= pipm_result.local_page_footprint_fraction + 1e-9)


class TestHarness:
    def test_run_experiment_by_name(self, scaled_config, tiny_scale):
        result = run_experiment("canneal", "native", scaled_config,
                                scale=tiny_scale)
        assert result.workload == "canneal"
        assert result.scheme == "native"

    def test_compare_schemes_shares_trace(self, scaled_config, tiny_scale):
        results = compare_schemes(
            "streamcluster", schemes=["native", "pipm"],
            config=scaled_config, scale=tiny_scale,
        )
        assert set(results) == {"native", "pipm"}
        assert (results["native"].accesses == results["pipm"].accesses)

    def test_speedups_over_native(self, scaled_config, tiny_scale):
        results = compare_schemes(
            "bodytrack", schemes=["native", "local-only"],
            config=scaled_config, scale=tiny_scale,
        )
        speedups = speedups_over_native(results)
        assert speedups["local-only"] > 1.0

    def test_speedups_need_native(self):
        with pytest.raises(ValueError):
            speedups_over_native({})

    def test_speedups_missing_baseline_names_available_keys(self):
        with pytest.raises(ValueError, match="pipm"):
            speedups_over_native({"pipm": None, "memtis": None})

    def test_speedups_custom_baseline(self, scaled_config, tiny_scale):
        results = compare_schemes(
            "bodytrack", schemes=["pipm", "local-only"],
            config=scaled_config, scale=tiny_scale,
        )
        speedups = speedups_over_native(results, baseline="local-only")
        assert set(speedups) == {"pipm"}

    def test_compare_rejects_duplicate_scheme_names(self, scaled_config,
                                                    tiny_scale):
        from repro.policies import make_scheme

        with pytest.raises(ValueError, match="duplicate scheme names"):
            compare_schemes(
                "bodytrack", schemes=["native", make_scheme("native")],
                config=scaled_config, scale=tiny_scale,
            )

    def test_compare_schemes_through_result_cache(self, scaled_config,
                                                  tiny_scale, tmp_path):
        cached = compare_schemes(
            "streamcluster", schemes=["native", "pipm"],
            config=scaled_config, scale=tiny_scale,
            cache_dir=tmp_path,
        )
        direct = compare_schemes(
            "streamcluster", schemes=["native", "pipm"],
            config=scaled_config, scale=tiny_scale,
        )
        assert cached == direct
        # Second call is served from the cache (same objects' values).
        again = compare_schemes(
            "streamcluster", schemes=["native", "pipm"],
            config=scaled_config, scale=tiny_scale,
            cache_dir=tmp_path,
        )
        assert again == cached

    def test_compare_cache_dir_needs_named_inputs(self, scaled_config,
                                                  tiny_scale,
                                                  tiny_pr_trace, tmp_path):
        with pytest.raises(ValueError, match="cacheable spec"):
            compare_schemes(
                tiny_pr_trace, schemes=["native"],
                config=scaled_config, scale=tiny_scale,
                cache_dir=tmp_path,
            )

    def test_default_scheme_order(self):
        assert DEFAULT_SCHEMES[0] == "native"
        assert DEFAULT_SCHEMES[-2:] == ("pipm", "local-only")

    def test_scheme_instance_accepted(self, tiny_pr_trace, scaled_config):
        scheme = make_scheme("memtis")
        result = run_experiment(tiny_pr_trace, scheme, scaled_config)
        assert result.scheme == "memtis"


class TestProfileStages:
    def test_case_reports_generate_and_bake_beside_engine(self):
        from repro.sim.profile import MicrobenchResult, run_case

        case = run_case("ycsb", "memtis", WorkloadScale.tiny(), repeats=2)
        assert case.accesses == 4 * WorkloadScale.tiny().accesses_per_host
        assert case.generate_s > 0 and case.bake_s > 0 and case.wall_s > 0
        summary = MicrobenchResult("tiny", 4, [case]).summary()
        assert summary["cases"][0]["generate_s"] == round(case.generate_s, 3)
        assert summary["cases"][0]["bake_s"] == round(case.bake_s, 3)
        assert summary["total_bake_s"] == round(case.bake_s, 3)
