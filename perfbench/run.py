#!/usr/bin/env python3
"""Layered host-time benchmark of the PIPM CXL-DSM simulator.

Run from the repository root::

    python3 perfbench/run.py --workload pr-pipm --seed 7 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all            # one fresh process each

``--trace 0`` repeats the workload for about ``--seconds`` and reports
the end-to-end metrics (medians over the repeats), with times in
reference-machine seconds: host seconds scaled by the machine's speed,
read from two fixed calibration loops around every repeat.  ``--trace 1``
alternates untraced and traced runs and reports the per-layer ledger.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every output check passed, 1 when one failed, and 2 when the
simulator sources are missing (no result is printed then).

See ``perfbench/README.md`` for the workloads, the metrics and which
layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
WORKLOAD_NAMES = ("pr-pipm", "tpcc-memtis-twotier", "sweep-tiny")

#: Which end-to-end metric each layer should move, and on which workload
#: (first matching prefix wins).
TARGETS = (
    ("sim.engine.bake", "setup_s, mostly on sweep-tiny"),
    ("sim.system.build", "setup_s, mostly on sweep-tiny"),
    ("workloads.generate", "setup_s, mostly on sweep-tiny"),
    ("sim.", "sim_accesses_per_s on all three"),
    ("cache.sa_cache", "sim_accesses_per_s, mostly on pr-pipm"),
    ("host.tlb", "sim_accesses_per_s, mostly on pr-pipm"),
    ("cache.directory", "sim_accesses_per_s on both single runs, "
                        "more on tpcc-memtis-twotier"),
    ("host.host.coherence", "sim_accesses_per_s on both single runs, "
                            "more on tpcc-memtis-twotier"),
    ("mem.controller", "sim_accesses_per_s on both single runs"),
    ("mem.dram", "sim_accesses_per_s on both single runs"),
    ("mem.", "sim_accesses_per_s on tpcc-memtis-twotier; "
             "no change on pr-pipm"),
    ("pipm.", "sim_accesses_per_s on pr-pipm; "
              "no change on tpcc-memtis-twotier"),
    ("policies.", "sim_accesses_per_s on tpcc-memtis-twotier only"),
    ("sweep.", "wall_s on sweep-tiny only"),
    ("trace.", "cost of tracing itself"),
    ("calib.", "machine speed"),
)


def calibration_round(n: int = 300_000) -> float:
    """Machine-speed score: Mop/s of a fixed pure-Python int/dict loop.

    Timed with every set of runs, printed in every report and stored in
    the per-layer record, so that ratios (acc/s per calibration Mop/s),
    not raw acc/s, are what gets compared across machines.
    """
    table = {}
    acc = 0
    started = perf_counter()
    for i in range(n):
        acc = (acc * 31 + i) & 0xFFFF
        table[acc & 1023] = i
    return n / (perf_counter() - started) / 1e6


class _Line:
    __slots__ = ("tag", "dirty", "stamp")

    def __init__(self, tag: int, dirty: bool, stamp: int) -> None:
        self.tag, self.dirty, self.stamp = tag, dirty, stamp


class CacheModel:
    """The simulator's kind of work as a fixed calibration loop: a
    pure-Python 8-way LRU cache (slotted line objects, per-set dicts)
    over a fixed address stream.  It is filled before it is first timed
    and keeps its state between rounds, so every round times the same
    steady mix of hits and evictions, however short."""

    def __init__(self) -> None:
        self.sets = [{} for _ in range(1024)]
        self.writes = [0] * 4096
        self.clock = 0
        self.step(60_000)

    def step(self, n: int) -> None:
        sets, writes = self.sets, self.writes
        for clock in range(self.clock, self.clock + n):
            addr = (clock * 2654435761) % 16411
            if clock % 10 < 3:
                addr *= 16
            lines = sets[addr & 1023]
            line = lines.get(addr)
            if line is not None:
                line.stamp = clock
                line.dirty |= clock % 8 == 0
                continue
            if len(lines) >= 8:
                victim = min(lines.values(), key=lambda item: item.stamp)
                del lines[victim.tag]
                writes[victim.tag & 4095] += victim.dirty
            lines[addr] = _Line(addr, clock % 8 == 0, clock)
        self.clock += n

    def round(self, n: int = 60_000) -> float:
        """Machine-speed score: Mop/s over ``n`` more accesses."""
        started = perf_counter()
        self.step(n)
        return n / (perf_counter() - started) / 1e6


#: The calibration scores (Mop/s) of the reference machine whose seconds
#: the end-to-end times are given in: about the median scores of one
#: vCPU of a 2.1 GHz Xeon VM.
REFERENCE_MOPS = {"loop": 5.0, "cache_model": 0.33}


class SpeedLog:
    """Machine-speed checkpoints along one invocation's timeline.

    The host time between two checkpoints is converted to
    reference-machine seconds at the mean of their two readings.  A run
    must lie between checkpoints; the checkpoints' own time is no part
    of it.
    """

    def __init__(self) -> None:
        self.cache_model = CacheModel()
        self.marks: list = []  # (began, ended, speed) per checkpoint

    def checkpoint(self, share: float = 1.0) -> None:
        """Read the machine's speed as a share of the reference
        machine's: the mean of the two calibration scores, each over its
        reference (the int/dict loop as the median of three rounds).
        ``share`` scales the work timed, about 0.25 s at 1.0 on the
        reference machine."""
        began = perf_counter()
        loop = statistics.median(
            calibration_round(int(200_000 * share)) for _ in range(3))
        model = self.cache_model.round(int(60_000 * share))
        speed = (loop / REFERENCE_MOPS["loop"]
                 + model / REFERENCE_MOPS["cache_model"]) / 2
        self.marks.append((began, perf_counter(), speed))

    def _stretches(self, start: float, stop: float):
        """(host seconds, speed) of each part of [start, stop] that lies
        between two checkpoints."""
        for (_b, after, speed0), (before, _e, speed1) in zip(
                self.marks, self.marks[1:]):
            low, high = max(start, after), min(stop, before)
            if high > low:
                yield high - low, (speed0 + speed1) / 2

    def reference_s(self, start: float, stop: float) -> float:
        return sum(host * speed
                   for host, speed in self._stretches(start, stop))

    def speed_at(self, moment: float) -> float:
        return next(speed for _host, speed
                    in self._stretches(moment, moment + 1e-9))

    @property
    def speeds(self) -> list:
        return [speed for _b, _e, speed in self.marks]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _median(values):
    return statistics.median(values) if values else 0.0


def _summary(values) -> str:
    return (f"median of {len(values)}; min {min(values):.4g}, "
            f"max {max(values):.4g}")


def _time_left(started: float, seconds: float, repeats: list) -> bool:
    """True while another repeat, as long as the mean one so far, would
    end less than half a repeat past ``seconds`` after ``started``.

    The first repeat always runs, and a run's length stays within half a
    repeat of ``seconds`` whatever the machine's speed.
    """
    if not repeats:
        return True
    mean = statistics.mean(repeats)
    return perf_counter() - started + mean / 2 < seconds


def _print_records(samples, cases) -> None:
    records = cases.first_records(samples)
    if records is None:
        return
    runs = sum(1 for s in samples if s.records)
    print(f"  record digests (identical across {runs} run(s) when the "
          f"checks pass; they move only when the model does):")
    for label, record in records.items():
        print(f"    {label:<26} {cases.record_digest(record)}")


def measure(case, cases, seed: int, seconds: float, work_dir: Path):
    """Repeat the workload for ``seconds``; end-to-end metrics.

    The speed of a shared host drifts by up to 2x within minutes, which
    no number of repeats averages out.  So the machine's speed is taken
    before the first repeat, after each one and, in a sweep, between
    specs, and host seconds are converted to reference-machine seconds
    at the speed read around them: a slow spell stretches the
    calibration loops and the simulator alike.
    """
    log = SpeedLog()
    log.checkpoint()
    started = perf_counter()
    samples, repeats = [], []
    while _time_left(started, seconds, repeats):
        began = perf_counter()
        samples.append(case.run_once(
            seed, work_dir, checkpoint=lambda: log.checkpoint(share=0.25)))
        log.checkpoint()
        repeats.append(perf_counter() - began)
    problems = [p for s in samples for p in s.problems]
    problems += cases.check_repeats(samples)
    complete = [s for s in samples if s.wall_s > 0 and not s.failed]
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    metrics = {}
    print(f"perfbench {case.name} seed={seed}: {len(samples)} run(s) in "
          f"{perf_counter() - started:.1f} s; closed loop, 1 client, "
          f"cold caches")
    if complete:
        walls = [log.reference_s(s.started, s.ended) for s in complete]
        setups = [s.setup_s * log.speed_at(s.started) for s in complete]
        rates = [s.accesses / (wall - setup)
                 for s, wall, setup in zip(complete, walls, setups)]
        metrics = {
            "wall_s": _metric(_median(walls), "s"),
            "setup_s": _metric(_median(setups), "s"),
            "sim_accesses_per_s": _metric(_median(rates), "1/s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MB",
            ),
        }
        print(f"  simulated accesses per run: {complete[0].accesses}")
        print("  times in reference-machine seconds (calibration "
              "scores " + ", ".join(f"{name} {mops} Mop/s" for name, mops
                                    in REFERENCE_MOPS.items()) + "):")
        for name, cell in metrics.items():
            print(f"  {name:<20} {cell['value']:>14.4f} {cell['unit']}")
        print(f"  {'failed_frac':<20} {failed / max(1, attempted):>14.4f} "
              f"1  ({failed} of {attempted} operations)")
        print(f"  wall_s {_summary(walls)}; setup_s {_summary(setups)}")
        raw_walls = [s.wall_s for s in complete]
        raw_rates = [s.sim_accesses_per_s for s in complete]
        print(f"  in host seconds: wall_s {_median(raw_walls):.4f} "
              f"({_summary(raw_walls)}), sim_accesses_per_s "
              f"{_median(raw_rates):.1f}")
        print(f"  machine speed / reference: {_summary(log.speeds)}")
    _print_records(samples, cases)
    print("  the timing model is unvalidated against hardware, so no "
          "error figure is given")
    return problems, attempted, failed, metrics


def trace(case, cases, seed: int, seconds: float, work_dir: Path):
    """Alternate untraced and traced runs; per-layer metrics."""
    import spans

    calib = [calibration_round() for _ in range(5)]
    cost = spans.calibrate_spans()
    pairs, repeats = [], []
    started = perf_counter()
    while _time_left(started, seconds, repeats):
        began = perf_counter()
        plain = case.run_once(seed, work_dir)
        tracer, counts = spans.Tracer(), spans.LayerCounts()
        traced = case.run_once(
            seed, work_dir, timed=lambda: spans.instrument(tracer, counts)
        )
        tracer.close_root(traced.wall_s)
        pairs.append((plain, traced, tracer, counts))
        calib.append(calibration_round())
        repeats.append(perf_counter() - began)
    samples = [s for pair in pairs for s in pair[:2]]
    problems = [p for s in samples for p in s.problems]
    problems += cases.check_repeats(samples)
    for index, (plain, traced, _t, _c) in enumerate(pairs, start=1):
        if plain.records != traced.records:
            problems.append(f"pair {index}: traced records differ from "
                            f"untraced ones; the wrappers are not "
                            f"transparent")
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    if failed:
        return problems, attempted, failed, {}

    tracer, counts = pairs[-1][2], pairs[-1][3]
    metrics = {}
    for label in tracer.labels[1:]:  # every wrapped layer, root excluded
        metrics[f"{label}.calls"] = _metric(tracer.calls(label),
                                            "count")
        metrics[f"{label}.self_s"] = _metric(
            _median([t.corrected_self_s(label, cost)
                     for _p, _s, t, _c in pairs]), "s")
    rate, get = counts.rate, counts.get
    cells = {
        "cache.sa_cache.l1.hit_rate": (rate("l1"), "ratio"),
        "cache.sa_cache.llc.hit_rate": (rate("llc"), "ratio"),
        "host.tlb.hit_rate": (rate("tlb"), "ratio"),
        "cache.directory.hit_rate": (rate("dir"), "ratio"),
        "cache.directory.back_invalidations": (
            get("back_invalidations"), "count"),
        "mem.dram.local.queue_ns": (get("dram_local.queue_ns"), "sim_ns"),
        "mem.dram.local.row_hit_rate": (
            counts.row_hit_rate("dram_local"), "ratio"),
        "mem.dram.cxl.queue_ns": (get("dram_cxl.queue_ns"), "sim_ns"),
        "mem.dram.cxl.row_hit_rate": (
            counts.row_hit_rate("dram_cxl"), "ratio"),
        "mem.cxl_link.queue_ns": (get("link.queue_ns"), "sim_ns"),
        "mem.cxl_link.messages": (get("link.messages"), "count"),
        "mem.cxl_link.retries": (get("link.retries"), "count"),
        "mem.fabric.queue_ns": (get("fabric.queue_ns"), "sim_ns"),
        "mem.fabric.messages": (get("fabric.messages"), "count"),
        "pipm.engine.promotions": (get("promotions"), "count"),
        "pipm.remap_cache.local.hit_rate": (rate("lrc"), "ratio"),
        "pipm.remap_cache.global.hit_rate": (rate("grc"), "ratio"),
        "policies.migrations": (get("kernel_migrations"), "count"),
        "trace.overhead_x": (
            _median([s.wall_s / p.wall_s for p, s, _t, _c in pairs]), "x"),
        "trace.corrected_x": (
            _median([t.corrected_total_s(cost) / p.wall_s
                     for p, _s, t, _c in pairs]), "x"),
        "trace.span_cost_ns": (cost.span_s * 1e9, "ns"),
        "trace.spans": (tracer.spans, "count"),
        "calib.loop_mops": (_median(calib), "Mop/s"),
    }
    for name, (value, unit) in cells.items():
        metrics[name] = _metric(value, unit)

    print(f"perfbench {case.name} seed={seed} traced: {len(pairs)} "
          f"untraced/traced pair(s); self times are medians less "
          f"{cost.span_s * 1e9:.0f} ns per span of tracing cost")
    for name, cell in metrics.items():
        target = next(t for prefix, t in TARGETS if name.startswith(prefix))
        print(f"  {name:<38} {cell['value']:>14.6g} {cell['unit']:<6} "
              f"-> {target}")
    _print_records(samples, cases)
    return problems, attempted, failed, metrics


def run_all(args) -> int:
    """Each workload in a fresh process (peak RSS is per workload)."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            print(f"perfbench: {name} exited {proc.returncode} without "
                  f"a result", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, cell in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = cell
        rows.append((name, result))
    if not args.trace:
        print(f"\n{'workload':<21} {'wall_s':>9} {'setup_s':>9} "
              f"{'sim_acc/s':>11} {'rss_MB':>8} {'failed_frac':>11}")
        for name, result in rows:
            m = {k: v["value"] for k, v in result["metrics"].items()}
            frac = result["failed"] / max(1, result["attempted"])
            print(f"{name:<21} {m.get('wall_s', 0):>9.3f} "
                  f"{m.get('setup_s', 0):>9.3f} "
                  f"{m.get('sim_accesses_per_s', 0):>11.0f} "
                  f"{m.get('peak_rss_mb', 0):>8.1f} {frac:>11.4f}")
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed (WorkloadScale.seed)")
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="measure for this long (at least one run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import cases

    case = cases.WORKLOADS[args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        step = trace if args.trace else measure
        problems, attempted, failed, metrics = step(
            case, cases, args.seed, args.seconds, work_dir
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")
    if not metrics:
        problems.append("no run completed, so no metric was measured")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
