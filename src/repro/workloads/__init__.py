"""Workload trace generators for every Table 1 benchmark.

The paper drives its simulator with Pin traces of 8-48 GB multi-threaded
workloads.  We synthesize per-host access streams that reproduce each
workload's *sharing structure* — per-host-private-in-shared-heap regions,
contested fine-grained-shared pages, cold data, read/write mix, and
spatial/temporal locality — at a scaled footprint (see DESIGN.md,
"Substitutions").  GAPBS kernels run real traversals over a real RMAT/CSR
graph; the other suites use calibrated mixture models.
"""

from .trace import (
    MixtureComponent,
    StreamBuilder,
    WorkloadScale,
    WorkloadTrace,
)
from .graph import CsrGraph, rmat_graph
from .synthetic import SyntheticSpec, partitioned_split_trace, synthetic_trace
from .registry import WORKLOADS, generate, workload_names

__all__ = [
    "MixtureComponent",
    "StreamBuilder",
    "WorkloadScale",
    "WorkloadTrace",
    "CsrGraph",
    "rmat_graph",
    "SyntheticSpec",
    "synthetic_trace",
    "partitioned_split_trace",
    "WORKLOADS",
    "generate",
    "workload_names",
]
