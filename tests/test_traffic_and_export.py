"""Traffic reports and trace export/import."""

import numpy as np
import pytest

from repro import SystemConfig, WorkloadScale, generate, make_scheme
from repro.analysis.traffic import LinkTraffic, TrafficReport, traffic_report
from repro.sim.engine import SimulationEngine
from repro.sim.system import MultiHostSystem
from repro.workloads.export import load_trace, save_trace


@pytest.fixture(scope="module")
def run_with_stats():
    cfg = SystemConfig.scaled()
    trace = generate("streamcluster", scale=WorkloadScale.tiny())
    system = MultiHostSystem(cfg, make_scheme("native"),
                             workload_mlp=trace.mlp)
    result = SimulationEngine(system, trace).run()
    return system, result


class TestTrafficReport:
    def test_links_carry_traffic(self, run_with_stats):
        system, result = run_with_stats
        report = traffic_report(system.stats.snapshot(),
                                result.exec_time_ns, system.config.num_hosts)
        assert len(report.links) == 4
        assert report.total_link_bytes > 0
        for link in report.links.values():
            assert link.messages > 0
            assert link.mean_message_bytes > 0

    def test_cxl_dram_traffic_recorded(self, run_with_stats):
        system, result = run_with_stats
        report = traffic_report(system.stats.snapshot(),
                                result.exec_time_ns, 4)
        assert report.cxl_dram_bytes > 0

    def test_achieved_bandwidth_below_limit(self, run_with_stats):
        system, result = run_with_stats
        report = traffic_report(system.stats.snapshot(),
                                result.exec_time_ns, 4)
        for host in range(4):
            # Achieved bandwidth cannot exceed both directions' capacity.
            assert report.link_bandwidth_gbs(host) <= (
                2 * system.config.cxl_link.bandwidth_gbs * 1.05
            )

    def test_busiest_link(self, run_with_stats):
        system, result = run_with_stats
        report = traffic_report(system.stats.snapshot(),
                                result.exec_time_ns, 4)
        busiest = report.busiest_link()
        assert report.links[busiest].bytes == max(
            l.bytes for l in report.links.values()
        )

    def test_render(self, run_with_stats):
        system, result = run_with_stats
        report = traffic_report(system.stats.snapshot(),
                                result.exec_time_ns, 4)
        text = report.render()
        assert "host0" in text
        assert "cxl-dram" in text

    def test_empty_report(self):
        report = TrafficReport(exec_time_ns=0.0)
        assert report.total_link_bytes == 0
        with pytest.raises(ValueError):
            report.busiest_link()
        assert report.link_bandwidth_gbs(0) == 0.0

    def test_link_traffic_mean(self):
        link = LinkTraffic(0, bytes=640, messages=10)
        assert link.mean_message_bytes == 64


class TestTraceExport:
    def test_round_trip(self, tmp_path):
        trace = generate("ycsb", scale=WorkloadScale.tiny())
        path = save_trace(trace, tmp_path / "ycsb.npz")
        loaded = load_trace(path)
        assert loaded.name == trace.name
        assert loaded.num_hosts == trace.num_hosts
        assert loaded.footprint_bytes == trace.footprint_bytes
        assert loaded.mlp == trace.mlp
        assert len(loaded.streams) == len(trace.streams)
        for got, want in zip(loaded.streams, trace.streams):
            assert np.array_equal(got, want)
        assert [r.name for r in loaded.regions] == [
            r.name for r in trace.regions
        ]

    def test_round_trip_simulates_identically(self, tmp_path):
        from repro import simulate

        cfg = SystemConfig.scaled()
        trace = generate("canneal", scale=WorkloadScale.tiny())
        path = save_trace(trace, tmp_path / "c.npz")
        loaded = load_trace(path)
        a = simulate(trace, make_scheme("native"), cfg)
        b = simulate(loaded, make_scheme("native"), cfg)
        assert a.exec_time_ns == b.exec_time_ns

    def test_suffix_appended(self, tmp_path):
        trace = generate("ycsb", scale=WorkloadScale.tiny())
        path = save_trace(trace, tmp_path / "noext")
        assert str(path).endswith(".npz")
        assert load_trace(str(tmp_path / "noext.npz")).name == "ycsb"

    def test_bad_version_rejected(self, tmp_path):
        import json

        trace = generate("ycsb", scale=WorkloadScale.tiny())
        arrays = {
            f"stream{h}": np.asarray(s, dtype=np.int64)
            for h, s in enumerate(trace.streams)
        }
        meta = {"version": 99, "num_hosts": 4}
        arrays["meta_json"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8
        )
        path = tmp_path / "bad.npz"
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError):
            load_trace(path)
