"""Core speed: accesses/sec of the per-access hot path (bench trajectory).

Unlike the figure benches this one measures the *simulator*, not the
simulated system: it times ``SimulationEngine.run`` over the profile
microbench cases and persists the result as
``benchmarks/results/BENCH_core.json``.  The file carries two sections:

* ``baseline`` — recorded once per optimization campaign (pre-work) with
  ``--set-baseline``; the number every speedup claim is measured against.
* ``current`` — refreshed by any later run at the same scale.

Run as a script (the committed artifact is updated this way)::

    PYTHONPATH=src python benchmarks/bench_core_speed.py [--set-baseline]

or via pytest (plumbing smoke only; never touches the committed file)::

    REPRO_BENCH_SCALE=tiny python -m pytest -x -q benchmarks/bench_core_speed.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

_REPO = Path(__file__).resolve().parents[1]
if str(_REPO / "src") not in sys.path:  # script mode without PYTHONPATH=src
    sys.path.insert(0, str(_REPO / "src"))

from repro.sim.profile import run_microbench  # noqa: E402

DEFAULT_OUT = Path(__file__).parent / "results" / "BENCH_core.json"


def bench_core(scale: str, repeats: int, out: Path,
               set_baseline: bool = False) -> dict:
    """Run the microbench and fold the result into ``out``."""
    summary = run_microbench(scale=scale, repeats=repeats).summary()
    payload = {"bench": "core_speed"}
    if out.exists():
        payload.update(json.loads(out.read_text()))
    if set_baseline or "baseline" not in payload:
        payload["baseline"] = summary
    payload["current"] = summary
    base = payload["baseline"]
    if base.get("scale") == scale and base.get("aggregate_accesses_per_s"):
        payload["speedup_vs_baseline"] = round(
            summary["aggregate_accesses_per_s"]
            / base["aggregate_accesses_per_s"],
            2,
        )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", default=os.environ.get("REPRO_BENCH_SCALE", "small"),
        choices=("tiny", "small", "default", "large"),
    )
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument(
        "--set-baseline", action="store_true",
        help="record this run as the baseline section (pre-optimization)",
    )
    args = parser.parse_args(argv)
    payload = bench_core(args.scale, args.repeats, args.out,
                         set_baseline=args.set_baseline)
    current = payload["current"]
    print(f"core speed [{current['scale']}]: "
          f"{current['aggregate_accesses_per_s']:,} acc/s aggregate "
          f"over {current['total_accesses']:,} accesses")
    for case in current["cases"]:
        print(f"  {case['workload']}/{case['scheme']:<10} "
              f"{case['accesses_per_s']:>12,} acc/s")
    if "speedup_vs_baseline" in payload:
        print(f"  speedup vs. recorded baseline: "
              f"{payload['speedup_vs_baseline']}x")
    print(f"[saved to {args.out}]")
    return 0


def test_core_speed(tmp_path):
    """Plumbing smoke: tiny run into a scratch file, sane JSON out."""
    out = tmp_path / "BENCH_core.json"
    payload = bench_core("tiny", 1, out)
    assert out.exists()
    assert payload["baseline"] == payload["current"]
    assert payload["current"]["aggregate_accesses_per_s"] > 0
    assert payload["speedup_vs_baseline"] == 1.0


if __name__ == "__main__":
    sys.exit(main())
