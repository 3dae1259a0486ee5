"""Byte pins for the configurations ``core_records.json`` never runs.

The core goldens cover three cases on the flat fabric with no faults.
This file pins the full ``SimulationResult.to_record()`` at tiny scale
for the remaining shapes of the access path: switched fabrics, a
switchdown window, crash/rejoin recovery with watchdog audits, stall and
poison windows, HW-static, infinite remap caches and the local-only
bound.  Like the core goldens, the pins may only move with an
intentional model change; regenerate them with::

    PYTHONPATH=src python tests/test_golden_pins.py --write
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro import SystemConfig
from repro.config import FabricConfig, FaultConfig
from repro.sim.harness import run_experiment
from repro.sim.profile import compare_records
from repro.workloads.trace import WorkloadScale

PINS = Path(__file__).parent / "golden" / "config_pins.json"

#: Stall and poison windows short enough to fire inside a tiny run.
_STORM = ("storm:seed=5,stall-period-ns=4e4,stall-duration-ns=4e3,"
          "poison-period-ns=2e4")

#: name -> (workload, scheme, fabric, faults, system kwargs)
PIN_CASES = {
    "tpcc/memtis@two-tier": (
        "tpcc", "memtis", "two-tier:hosts-per-leaf=2", None, {}),
    "pr/pipm@two-tier": ("pr", "pipm", "two-tier", None, {}),
    "pr/pipm@single-switch+switchdown": (
        "pr", "pipm", "single-switch", "switchdown", {}),
    "pr/pipm+hostdown": (
        "pr", "pipm", None,
        "hostdown:crash-at-ns=5e4,watchdog-period-ns=20000", {}),
    "pr/pipm+hostdown-rejoin": (
        "pr", "pipm", None,
        "hostdown-rejoin:crash-at-ns=5e4,crash-rejoin-ns=1.2e5,"
        "watchdog-period-ns=20000", {}),
    "pr/pipm+storm": ("pr", "pipm", None, _STORM, {}),
    "pr/native+storm": ("pr", "native", None, _STORM, {}),
    "pr/pipm+flaky": (
        "pr", "pipm", None,
        "flaky:seed=3,transfer-error-rate=0.3,max-attempts=2", {}),
    "pr/hw-static": ("pr", "hw-static", None, None, {}),
    "pr/pipm+infinite-remap": (
        "pr", "pipm", None, None,
        {"infinite_global_remap_cache": True,
         "infinite_local_remap_cache": True}),
    "pr/local-only": ("pr", "local-only", None, None, {}),
}


def run_pin(name: str) -> dict:
    workload, scheme, fabric, faults, kwargs = PIN_CASES[name]
    config = SystemConfig.scaled()
    if fabric is not None:
        config = dataclasses.replace(config,
                                     fabric=FabricConfig.parse(fabric))
    if faults is not None:
        config = dataclasses.replace(config,
                                     faults=FaultConfig.parse(faults))
    config.validate()
    result = run_experiment(workload, scheme, config,
                            scale=WorkloadScale.tiny(), **kwargs)
    return result.to_record()


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINS.read_text())["records"]


def test_pins_cover_every_case(pinned):
    assert set(pinned) == set(PIN_CASES)


@pytest.mark.parametrize("name", sorted(PIN_CASES))
def test_record_matches_pin(name, pinned):
    problems = compare_records({name: run_pin(name)}, {name: pinned[name]})
    assert problems == [], "\n".join(problems)


def test_fault_pins_exercise_their_windows(pinned):
    """The fault cases must actually fire what they are there to pin."""
    storm = pinned["pr/pipm+storm"]["stats"]
    assert storm["fault_host_stall_ns"] > 0
    assert storm["fault_poison_recoveries"] > 0
    flaky = pinned["pr/pipm+flaky"]["stats"]
    assert flaky["fault_migration_aborts"] > 0
    assert flaky["fault_rollbacks"] > 0
    assert pinned["pr/pipm+hostdown"]["stats"]["fault_host_crashes"] == 1.0
    rejoin = pinned["pr/pipm+hostdown-rejoin"]["stats"]
    assert rejoin["fault_host_crashes"] == 1.0
    assert rejoin["fault_host_rejoins"] == 1.0


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_pins.py --write")
    payload = {
        "comment": (
            "SimulationResult.to_record() at tiny scale for the "
            "configurations core_records.json does not run; perf work "
            "must keep these byte-identical"
        ),
        "scale": "tiny",
        "records": {name: run_pin(name) for name in sorted(PIN_CASES)},
    }
    PINS.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
