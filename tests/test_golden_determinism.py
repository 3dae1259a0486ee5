"""Golden-record determinism: the full figure-matrix output, pinned.

``tests/golden/core_records.json`` holds the complete
``SimulationResult.to_record()`` of each microbench case (a PIPM run, a
baseline CXL run, and a kernel-migration run) at tiny scale.  Two
distinct failure modes land here:

* a *model* change (including a latency-bug fix) moves the numbers —
  expected exactly once per intentional change, regenerate with
  ``python -m repro profile --scale tiny --write-golden
  tests/golden/core_records.json``;
* a *performance* change moves the numbers — never acceptable; the perf
  work in this repo is required to be output-neutral.
"""

import json
from pathlib import Path

from repro.sim.profile import PROFILE_CASES, compare_records, run_microbench
from repro.sim.results import SimulationResult

GOLDEN = Path(__file__).parent / "golden" / "core_records.json"


def test_records_match_golden_file():
    golden = json.loads(GOLDEN.read_text())
    assert golden["scale"] == "tiny"
    result = run_microbench(scale="tiny", cases=PROFILE_CASES)
    problems = compare_records(result.records(), golden["records"])
    assert problems == [], "\n".join(problems)


def test_golden_covers_pipm_and_kernel_migration():
    """The pinned matrix must exercise both mechanisms' hot paths."""
    schemes = {scheme for _, scheme in PROFILE_CASES}
    assert "pipm" in schemes
    assert "memtis" in schemes  # kernel page migration
    golden = json.loads(GOLDEN.read_text())
    assert set(golden["records"]) == {
        f"{w}/{s}" for w, s in PROFILE_CASES
    }


def test_golden_records_round_trip():
    """Every pinned record must still load through from_record."""
    golden = json.loads(GOLDEN.read_text())
    for key, record in golden["records"].items():
        result = SimulationResult.from_record(record)
        assert result.to_record() == record, key
