#!/usr/bin/env python3
"""Smoke test of the benchmark itself (a few minutes).

Run from the repository root::

    python3 perfbench/smoke.py

Runs every workload at minimum length (``--seconds 1``: one run, or one
untraced/traced pair), untraced and traced, and checks that

* every run reports ``correct`` and exits 0;
* the metrics are exactly the ``end_to_end`` (untraced) or ``per_layer``
  (traced) metrics of ``BENCHMARK.json``, each with its declared unit;
* the per-layer contrasts hold: ``pr-pipm`` never calls the switched
  fabric or the kernel migration policies, ``tpcc-memtis-twotier`` never
  calls the PIPM engine, and each workload does call the layers it is
  there to drive;
* the benchmark's split of a single run (generate, build, bake, run)
  yields the same record as ``repro.simulate()``;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
  benchmark exits non-zero without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: (workload, per-layer metric, whether it must be nonzero).
CONTRASTS = (
    ("pr-pipm", "mem.fabric.calls", False),
    ("pr-pipm", "policies.observe.calls", False),
    ("pr-pipm", "policies.tick.calls", False),
    ("pr-pipm", "pipm.engine.calls", True),
    ("tpcc-memtis-twotier", "pipm.engine.calls", False),
    ("tpcc-memtis-twotier", "mem.fabric.calls", True),
    ("tpcc-memtis-twotier", "policies.observe.calls", True),
    ("tpcc-memtis-twotier", "policies.tick.calls", True),
    ("sweep-tiny", "sweep.result_store.calls", True),
    ("sweep-tiny", "sweep.journal.calls", True),
    ("sweep-tiny", "workloads.generate.calls", True),
)


def run_bench(cwd: Path, workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600,
    )
    lines = proc.stdout.splitlines()
    return proc, lines


def check_metrics(label: str, metrics: dict, declared: list) -> list:
    problems = []
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        problems.append(
            f"{label}: metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(want) - set(metrics))}, extra "
            f"{sorted(set(metrics) - set(want))}")
    for name, cell in metrics.items():
        if name in want and cell.get("unit") != want[name]:
            problems.append(f"{label}: {name} has unit {cell.get('unit')!r},"
                            f" BENCHMARK.json says {want[name]!r}")
    return problems


def simulate_digest() -> str:
    """``repro.simulate()`` on pr-pipm's inputs, digested like run.py."""
    sys.path.insert(0, str(ROOT / "src"))
    import cases
    from repro import simulate
    from repro.policies import make_scheme
    from repro.workloads import registry

    case = cases.WORKLOADS["pr-pipm"]
    config = case.config()
    trace = registry.generate(case.workload, num_hosts=config.num_hosts,
                              scale=case.scale(7),
                              cores_per_host=config.cores_per_host)
    result = simulate(trace, make_scheme(case.scheme), config)
    return cases.record_digest(result.to_record())


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    results = {}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, declared in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            label = f"{workload} --trace {trace}"
            proc, lines = run_bench(ROOT, workload, trace)
            print(f"{label}: exit {proc.returncode}")
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}\n"
                                f"{proc.stderr}")
                continue
            result = json.loads(lines[-1])
            results[(workload, trace)] = (result, lines)
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: correct={result['correct']}, "
                                f"failed={result['failed']}")
            problems += check_metrics(label, result["metrics"], declared)

    for workload, metric, nonzero in CONTRASTS:
        entry = results.get((workload, 1))
        if entry is None:
            continue
        value = entry[0]["metrics"].get(metric, {}).get("value")
        if value is None or bool(value) != nonzero:
            problems.append(f"{workload}: {metric} = {value}, expected "
                            f"{'> 0' if nonzero else '0'}")

    entry = results.get(("pr-pipm", 0))
    if entry is not None:
        digest = simulate_digest()
        if not any(line.split()[-1:] == [digest] for line in entry[1]):
            problems.append(f"pr-pipm: simulate() digest {digest} is not "
                            f"among the benchmark's record digests")

    work = ROOT / ".perfbench-work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc, lines = run_bench(bare, "pr-pipm", 0)
        if proc.returncode == 0 or any(l.startswith("{") for l in lines):
            problems.append("without the simulator sources the benchmark "
                            "must exit non-zero and print no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL: {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} failure(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
