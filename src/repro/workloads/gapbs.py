"""GAPBS kernel trace generators (SSSP, BFS, PR, CC, BC, TC).

Each host owns a contiguous vertex partition and runs a real traversal over
a shared RMAT/CSR graph (Section 5.1.1: GAPBS on Kron inputs).  The
resulting access streams exhibit exactly the structure the paper's analysis
relies on:

* **adjacency data** (offsets + neighbor arrays of the own partition) is
  scanned sequentially and repeatedly by one host only — the page-affine
  data partial migration wins on,
* **vertex property arrays** (ranks, parents, distances, labels) are read
  per-edge at the neighbor's index — fine-grained cross-host traffic that
  makes whole-page migration harmful,
* power-law hubs are touched by every host and stay cache-resident.

Traversals are chunked and numpy-vectorized; consecutive same-line element
accesses are collapsed to one record (see
:func:`repro.workloads.graph.line_sample`).
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from .. import units
from .graph import (
    ELEM,
    GraphLayout,
    graph_for_footprint,
    layout_graph,
    line_sample,
)
from .trace import (
    StreamBuilder,
    WorkloadTrace,
    partition_region,
)

#: Vertices processed per emission chunk.
CHUNK = 64


def _partition_bounds(n: int, host: int, hosts: int) -> range:
    per = n // hosts
    start = host * per
    end = (host + 1) * per if host < hosts - 1 else n
    return range(start, end)


def _interleave_shuffle(rng: np.random.Generator,
                        arrays: List[np.ndarray],
                        writes: List[float]) -> "tuple[np.ndarray, np.ndarray]":
    """Concatenate address groups and lightly shuffle within the chunk."""
    addrs = np.concatenate(arrays)
    wr = np.concatenate([
        (rng.random(len(a)) < frac).astype(np.int64)
        for a, frac in zip(arrays, writes)
    ])
    if len(addrs) > 2:
        # A partial shuffle: swap halves of random windows, preserving most
        # spatial locality while avoiding strictly phase-ordered chunks.
        order = np.argsort(rng.random(len(addrs)) * 0.25
                           + np.arange(len(addrs)) / len(addrs))
        addrs = addrs[order]
        wr = wr[order]
    return addrs, wr


class _GapbsEmitter:
    """Shared walker scaffolding for the six kernels."""

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.rng = ctx.rng
        graph = graph_for_footprint(ctx.scale.footprint_bytes, seed=ctx.scale.seed)
        self.layout: GraphLayout = layout_graph(ctx.heap, graph)
        self.graph = graph

    def host_stream(
        self,
        host: int,
        emit_chunk: Callable[[np.ndarray], "tuple[np.ndarray, np.ndarray]"],
        mean_gap: int = 9,
    ) -> np.ndarray:
        ctx = self.ctx
        budget = ctx.scale.accesses_per_host
        part = _partition_bounds(self.graph.num_vertices, host, ctx.num_hosts)
        vertices = np.arange(part.start, part.stop, dtype=np.int64)
        # Hub locality: high-degree vertices are revisited far more often
        # (frontier re-expansion, convergence sweeps), concentrating traffic
        # on a hot head of each partition the way real power-law graph
        # workloads do.  One chunk in three replays the hot head.
        hot_head = vertices[: max(CHUNK, len(vertices) // 4)]
        replay_rng = np.random.default_rng(9176 + host)
        addr_parts: List[np.ndarray] = []
        write_parts: List[np.ndarray] = []
        emitted = 0
        cursor = 0
        while emitted < budget:
            if replay_rng.random() < 0.4:
                start = replay_rng.integers(
                    0, max(1, len(hot_head) - CHUNK + 1)
                )
                chunk = hot_head[start:start + CHUNK]
            else:
                chunk = vertices[cursor:cursor + CHUNK]
                cursor += CHUNK
                if cursor >= len(vertices):
                    cursor = 0
            if len(chunk) == 0:
                cursor = 0
                continue
            addrs, writes = emit_chunk(chunk)
            if len(addrs) == 0:
                continue
            addr_parts.append(addrs)
            write_parts.append(writes)
            emitted += len(addrs)
        addrs = np.concatenate(addr_parts)[:budget]
        writes = np.concatenate(write_parts)[:budget]
        builder = StreamBuilder(
            np.random.default_rng(ctx.scale.seed * 1009 + host),
            cores=ctx.cores_per_host,
            mean_gap=mean_gap,
        )
        return builder.from_arrays(addrs, writes)

    def neighbors_of(self, chunk: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """(neighbor vertex ids, edge indexes) for a contiguous chunk."""
        off = self.graph.offsets
        start = int(off[chunk[0]])
        end = int(off[chunk[-1] + 1])
        edge_idx = np.arange(start, end, dtype=np.int64)
        return self.graph.neighbors[start:end], edge_idx


def _make_trace(ctx, name: str, streams, mlp: float, rw: float,
                description: str, layout: GraphLayout) -> WorkloadTrace:
    return WorkloadTrace(
        name=name,
        num_hosts=ctx.num_hosts,
        streams=streams,
        footprint_bytes=ctx.heap.used,
        regions=list(ctx.heap.regions),
        mlp=mlp,
        read_write_ratio=rw,
        description=description,
    )


def generate_pr(ctx) -> WorkloadTrace:
    """PageRank: pull-style iteration (strong locality, per-edge rank reads).

    Real PR double-buffers the rank vector and swaps the read/write roles
    each iteration, so the array one host *wrote* this pass is *read* by
    every host next pass — the cross-host pattern that makes whole-page
    migration of rank pages harmful.
    """
    em = _GapbsEmitter(ctx)
    lay = em.layout
    rng = em.rng
    part_len = max(1, em.graph.num_vertices // ctx.num_hosts)

    def make_emit(host: int):
        state = {"done": 0}

        def emit(chunk: np.ndarray):
            pass_idx = state["done"] // part_len
            state["done"] += len(chunk)
            if pass_idx % 2 == 0:
                read_addr, write_addr = lay.prop_a_addr, lay.prop_b_addr
            else:
                read_addr, write_addr = lay.prop_b_addr, lay.prop_a_addr
            ns, edge_idx = em.neighbors_of(chunk)
            # Sorted adjacency lists make consecutive neighbor-rank reads
            # collapse onto shared lines; hub ranks stay cache-resident, so
            # only a sampled tail reaches memory.
            sel = rng.random(len(ns)) < 0.08
            groups = [
                line_sample(lay.offsets_addr(chunk)),
                line_sample(lay.edge_addr(edge_idx)),
                line_sample(read_addr(ns[sel])),
                line_sample(write_addr(chunk)),
            ]
            return _interleave_shuffle(rng, groups, [0.0, 0.0, 0.0, 1.0])
        return emit

    streams = [em.host_stream(h, make_emit(h)) for h in range(ctx.num_hosts)]
    return _make_trace(ctx, "pr", streams, mlp=6.0, rw=0.9,
                       description="PageRank over RMAT (GAPBS)", layout=lay)


def generate_cc(ctx) -> WorkloadTrace:
    """Connected components: label propagation (reads+writes one array)."""
    em = _GapbsEmitter(ctx)
    lay = em.layout
    rng = em.rng

    def make_emit(host: int):
        def emit(chunk: np.ndarray):
            ns, edge_idx = em.neighbors_of(chunk)
            sel = rng.random(len(ns)) < 0.08
            groups = [
                line_sample(lay.offsets_addr(chunk)),
                line_sample(lay.edge_addr(edge_idx)),
                line_sample(lay.prop_a_addr(ns[sel])),  # neighbor labels
                line_sample(lay.prop_a_addr(chunk)),  # own labels (written)
            ]
            return _interleave_shuffle(rng, groups, [0.0, 0.0, 0.05, 0.8])
        return emit

    streams = [em.host_stream(h, make_emit(h)) for h in range(ctx.num_hosts)]
    return _make_trace(ctx, "cc", streams, mlp=5.0, rw=0.85,
                       description="Connected components (GAPBS)", layout=lay)


def _frontier_emitter(em: _GapbsEmitter, write_prob: float,
                      revisit: float) -> Callable:
    """BFS-family walker: frontier expansion with cross-host property writes."""
    lay = em.layout
    rng = em.rng

    def make_emit(host: int):
        visited: Dict[int, bool] = {}

        def emit(chunk: np.ndarray):
            ns, edge_idx = em.neighbors_of(chunk)
            if len(ns) == 0:
                return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
            # Frontier checks read parent/distance of every neighbor; a
            # fraction get written (first visit or relaxation).
            sel = rng.random(len(ns)) < 0.12
            touched = ns[sel]
            groups = [
                line_sample(lay.offsets_addr(chunk)),
                line_sample(lay.edge_addr(edge_idx)),
                line_sample(lay.prop_b_addr(touched)),
            ]
            return _interleave_shuffle(
                rng, groups, [0.0, 0.0, write_prob]
            )
        return emit

    return make_emit


def generate_bfs(ctx) -> WorkloadTrace:
    """Breadth-first search: frontier expansion with parent-array writes."""
    em = _GapbsEmitter(ctx)
    make_emit = _frontier_emitter(em, write_prob=0.35, revisit=0.0)
    streams = [em.host_stream(h, make_emit(h), mean_gap=8)
               for h in range(ctx.num_hosts)]
    return _make_trace(ctx, "bfs", streams, mlp=5.0, rw=0.8,
                       description="BFS over RMAT (GAPBS)", layout=em.layout)


def generate_sssp(ctx) -> WorkloadTrace:
    """Single-source shortest paths: delta-stepping-like re-relaxations."""
    em = _GapbsEmitter(ctx)
    make_emit = _frontier_emitter(em, write_prob=0.25, revisit=0.4)
    streams = [em.host_stream(h, make_emit(h), mean_gap=8)
               for h in range(ctx.num_hosts)]
    return _make_trace(ctx, "sssp", streams, mlp=6.0, rw=0.8,
                       description="SSSP over RMAT (GAPBS)", layout=em.layout)


def generate_bc(ctx) -> WorkloadTrace:
    """Betweenness centrality: BFS forward pass + dependency back-propagation."""
    em = _GapbsEmitter(ctx)
    lay = em.layout
    rng = em.rng

    def make_emit(host: int):
        def emit(chunk: np.ndarray):
            ns, edge_idx = em.neighbors_of(chunk)
            sel = rng.random(len(ns)) < 0.08
            groups = [
                line_sample(lay.offsets_addr(chunk)),
                line_sample(lay.edge_addr(edge_idx)),
                line_sample(lay.prop_b_addr(ns[sel])),  # path counts (read)
                line_sample(lay.prop_a_addr(ns[rng.random(len(ns)) < 0.05])),
                line_sample(lay.prop_a_addr(chunk)),
            ]
            return _interleave_shuffle(
                rng, groups, [0.0, 0.0, 0.1, 0.5, 0.7]
            )
        return emit

    streams = [em.host_stream(h, make_emit(h)) for h in range(ctx.num_hosts)]
    return _make_trace(ctx, "bc", streams, mlp=5.0, rw=0.75,
                       description="Betweenness centrality (GAPBS)",
                       layout=lay)


def generate_tc(ctx) -> WorkloadTrace:
    """Triangle counting: adjacency-list intersections (read-only, bursty)."""
    em = _GapbsEmitter(ctx)
    lay = em.layout
    rng = em.rng
    graph = em.graph

    def make_emit(host: int):
        def emit(chunk: np.ndarray):
            ns, edge_idx = em.neighbors_of(chunk)
            groups = [
                line_sample(lay.offsets_addr(chunk)),
                line_sample(lay.edge_addr(edge_idx)),
            ]
            # Intersect with a few neighbors' adjacency lists: sequential
            # bursts at *random* (often remote-partition) CSR locations.
            if len(ns):
                probes = ns[rng.integers(0, len(ns),
                                         size=min(8, len(ns)))]
                for v in probes.tolist():
                    start = int(graph.offsets[v])
                    end = int(graph.offsets[v + 1])
                    if end > start:
                        burst = np.arange(start, min(end, start + 32),
                                          dtype=np.int64)
                        groups.append(line_sample(lay.edge_addr(burst)))
            writes = [0.0] * len(groups)
            return _interleave_shuffle(rng, groups, writes)
        return emit

    streams = [em.host_stream(h, make_emit(h), mean_gap=11)
               for h in range(ctx.num_hosts)]
    return _make_trace(ctx, "tc", streams, mlp=4.0, rw=1.0,
                       description="Triangle counting (GAPBS)", layout=lay)
