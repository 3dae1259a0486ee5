"""Byte pins for the trace generators.

One SHA-256 per host over the host's records as little-endian int64
``(N, 4)`` bytes (``gap_instructions, addr, is_write, core``), plus the
trace's ``total_instructions``, for every Table-1 workload at ``tiny``
scale and for ``pr`` and ``tpcc`` at ``small`` scale (4 hosts, 4 cores,
seed 7).  Any change to a generator's RNG draw order, dtype or record
layout moves a digest.  The pins may only move with an intentional
workload-model change; regenerate them with::

    PYTHONPATH=src python tests/test_trace_digests.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.workloads.registry import generate, workload_names
from repro.workloads.trace import WorkloadScale

DIGESTS = Path(__file__).parent / "golden" / "trace_digests.json"

_SCALES = {"tiny": WorkloadScale.tiny, "small": WorkloadScale.small}

#: "workload@scale" for every pinned trace.
DIGEST_CASES = sorted(
    [f"{name}@tiny" for name in workload_names()]
    + ["pr@small", "tpcc@small"]
)


def trace_digest(case: str) -> dict:
    name, scale = case.split("@")
    trace = generate(name, num_hosts=4, scale=_SCALES[scale](),
                     cores_per_host=4)
    hosts = []
    for stream in trace.streams:
        records = np.ascontiguousarray(
            np.asarray(stream, dtype="<i8").reshape(-1, 4)
        )
        hosts.append(hashlib.sha256(records.tobytes()).hexdigest())
    return {"hosts": hosts,
            "total_instructions": int(trace.total_instructions)}


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DIGESTS.read_text())["digests"]


def test_digests_cover_every_case(pinned):
    assert sorted(pinned) == DIGEST_CASES


@pytest.mark.parametrize("case", DIGEST_CASES)
def test_trace_matches_digest(case, pinned):
    assert trace_digest(case) == pinned[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_trace_digests.py --write")
    payload = {
        "comment": (
            "per-host SHA-256 of each trace's int64 (N, 4) records plus "
            "total_instructions; generator changes must keep these "
            "byte-identical"
        ),
        "digests": {case: trace_digest(case) for case in DIGEST_CASES},
    }
    DIGESTS.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(DIGEST_CASES)} trace digests to {DIGESTS}")
