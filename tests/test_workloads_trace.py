"""Trace machinery: scales, mixtures, stream builder, partitioning."""

import numpy as np
import pytest

from repro import units
from repro.mem.address import Region
from repro.workloads.trace import (
    MixtureComponent,
    StreamBuilder,
    WorkloadScale,
    WorkloadTrace,
    partition_region,
    private_region,
    random_lines,
    seq_lines,
    zipf_indices,
)


@pytest.fixture()
def region() -> Region:
    return Region("r", 0, 64 * units.KB)


class TestWorkloadScale:
    def test_presets_ordered(self):
        tiny, small, default, large = (
            WorkloadScale.tiny(), WorkloadScale.small(),
            WorkloadScale.default(), WorkloadScale.large(),
        )
        assert (tiny.accesses_per_host < small.accesses_per_host
                < default.accesses_per_host < large.accesses_per_host)
        assert tiny.footprint_bytes < large.footprint_bytes


class TestAddressPools:
    def test_seq_lines_cover_region(self, region):
        lines = seq_lines(region)
        assert len(lines) == region.size // 64
        assert lines[0] == region.start
        assert lines[-1] == region.end - 64

    def test_seq_lines_rotation(self, region):
        rotated = seq_lines(region, start=2)
        assert rotated[0] == region.start + 2 * 64

    def test_random_lines_in_bounds(self, region):
        rng = np.random.default_rng(0)
        addrs = random_lines(rng, region, 1000)
        assert (addrs >= region.start).all()
        assert (addrs < region.end).all()
        assert (addrs % 64 == 0).all()

    def test_zipf_skews(self, region):
        rng = np.random.default_rng(0)
        addrs = random_lines(rng, region, 5000, alpha=1.2)
        _, counts = np.unique(addrs, return_counts=True)
        # The hottest line gets far more than the uniform share.
        assert counts.max() > 5000 / (region.size // 64) * 5

    def test_zipf_indices_bounds(self):
        rng = np.random.default_rng(0)
        idx = zipf_indices(rng, 100, 1000, alpha=1.1)
        assert idx.min() >= 0
        assert idx.max() < 100

    def test_zipf_rejects_empty(self):
        with pytest.raises(ValueError):
            zipf_indices(np.random.default_rng(0), 0, 10)


def _rank_frequencies(idx: np.ndarray, n: int) -> np.ndarray:
    """Observed probability per zipf rank (undoing the spread permutation)."""
    perm = np.random.default_rng(12345).permutation(n)
    inverse = np.empty(n, dtype=np.int64)
    inverse[perm] = np.arange(n)
    counts = np.bincount(inverse[idx], minlength=n)
    return counts / len(idx)


class TestZipfSkewRegression:
    """The requested ``alpha`` must be honored, not silently replaced.

    The old implementation sampled ``numpy.random.zipf`` — defined only
    for ``alpha > 1`` — with ``max(alpha, 1.01)`` and clipped the unbounded
    tail onto the last rank.  Any workload asking for the common
    ``alpha < 1`` regime got a wildly different distribution (for
    ``alpha`` near 1 most of the mass landed on the single *coldest*
    rank) with no error and no warning.
    """

    N = 64
    COUNT = 40_000

    def _expected(self, alpha: float) -> np.ndarray:
        weights = np.arange(1, self.N + 1, dtype=np.float64) ** -alpha
        return weights / weights.sum()

    @pytest.mark.parametrize("alpha", [0.6, 0.99, 1.3])
    def test_alpha_honored(self, alpha):
        rng = np.random.default_rng(3)
        freq = _rank_frequencies(
            zipf_indices(rng, self.N, self.COUNT, alpha=alpha), self.N
        )
        expect = self._expected(alpha)
        # Hot and cold ends both match the bounded-zipf pmf to well
        # within sampling noise (the old clamp-to-1.01 bug was off by
        # integer factors at alpha=0.6).
        assert freq[0] == pytest.approx(expect[0], rel=0.15)
        assert freq[: self.N // 4].sum() == pytest.approx(
            expect[: self.N // 4].sum(), rel=0.1
        )

    def test_no_tail_mass_clipped_onto_last_rank(self):
        rng = np.random.default_rng(3)
        freq = _rank_frequencies(
            zipf_indices(rng, self.N, self.COUNT, alpha=0.99), self.N
        )
        # Under the old clipping, the last rank absorbed the entire
        # unbounded tail and dwarfed rank 0; bounded sampling keeps it
        # the coldest rank.
        assert freq[-1] < freq[0]
        assert freq[-1] == pytest.approx(
            self._expected(0.99)[-1], rel=0.5, abs=2 / self.COUNT
        )

    def test_rejects_nonpositive_alpha(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="alpha"):
            zipf_indices(rng, 10, 5, alpha=0.0)
        with pytest.raises(ValueError, match="alpha"):
            zipf_indices(rng, 10, 5, alpha=-1.0)


class TestTraceValidate:
    CXL = 1 * units.MB
    TOTAL = 3 * units.MB  # two hosts -> one 1 MB local window each

    def _trace(self, streams) -> WorkloadTrace:
        return WorkloadTrace(
            name="t", num_hosts=len(streams), streams=streams,
            footprint_bytes=self.TOTAL,
        )

    def test_accepts_shared_and_own_window(self):
        streams = [
            [(1, 0, 0, 0), (1, self.CXL + 64, 0, 0)],
            [(1, 64, 1, 0), (1, self.CXL + 1 * units.MB + 64, 0, 0)],
        ]
        self._trace(streams).validate(self.CXL, self.TOTAL)

    def test_rejects_address_outside_map(self):
        streams = [[(1, 0, 0, 0)], [(1, self.TOTAL + 64, 0, 0)]]
        with pytest.raises(ValueError, match="outside the physical map"):
            self._trace(streams).validate(self.CXL, self.TOTAL)

    def test_rejects_negative_address(self):
        streams = [[(1, -64, 0, 0)], [(1, 0, 0, 0)]]
        with pytest.raises(ValueError, match="outside the physical map"):
            self._trace(streams).validate(self.CXL, self.TOTAL)

    def test_rejects_foreign_local_window(self):
        # Host 0 touching host 1's private window used to pass silently
        # (and simulate as if it were host-0-private data).
        streams = [
            [(1, self.CXL + 1 * units.MB + 64, 0, 0)],
            [(1, 0, 0, 0)],
        ]
        with pytest.raises(
            ValueError, match="another host's local window"
        ):
            self._trace(streams).validate(self.CXL, self.TOTAL)

    def test_rejects_bad_capacity_split(self):
        trace = self._trace([[(1, 0, 0, 0)], [(1, 0, 0, 0)]])
        with pytest.raises(ValueError, match="divide"):
            trace.validate(self.CXL, self.TOTAL + 1)
        with pytest.raises(ValueError, match="capacity"):
            trace.validate(self.TOTAL + 1, self.TOTAL)

    def test_validates_deep_into_stream(self):
        # The old check sampled only each stream's first 64 records.
        good = [(1, 0, 0, 0)] * 100
        streams = [good + [(1, self.TOTAL + 64, 0, 0)], list(good)]
        with pytest.raises(ValueError, match="record 100"):
            self._trace(streams).validate(self.CXL, self.TOTAL)


class TestColumnarStreams:
    """Every stream is one C-contiguous (N, 4) int64 record array."""

    @staticmethod
    def _assert_columnar(records, rows):
        assert isinstance(records, np.ndarray)
        assert records.dtype == np.int64
        assert records.shape == (rows, 4)
        assert records.flags.c_contiguous

    def test_tuple_lists_normalise(self):
        trace = WorkloadTrace(
            name="t", num_hosts=2, footprint_bytes=8192,
            streams=[[(2, 128, 1, 0), (5.0, 4096, 0, 1)], [(1, 64, 0, 3)]],
        )
        self._assert_columnar(trace.streams[0], 2)
        self._assert_columnar(trace.streams[1], 1)
        assert trace.streams[0].tolist() == [[2, 128, 1, 0], [5, 4096, 0, 1]]
        assert trace.total_instructions == 8

    def test_empty_streams_normalise(self):
        trace = WorkloadTrace(name="t", num_hosts=2, footprint_bytes=8192,
                              streams=[[], np.empty(0, dtype=np.int64)])
        for stream in trace.streams:
            self._assert_columnar(stream, 0)
        assert trace.total_accesses == 0
        assert trace.total_instructions == 0

    def test_columnar_arrays_kept_as_is(self):
        records = np.arange(8, dtype=np.int64).reshape(2, 4)
        trace = WorkloadTrace(name="t", num_hosts=1, footprint_bytes=8192,
                              streams=[records])
        assert trace.streams[0] is records

    def test_rejects_malformed_records(self):
        with pytest.raises(ValueError, match=r"\(N, 4\)"):
            WorkloadTrace(name="t", num_hosts=1, footprint_bytes=8192,
                          streams=[[(1, 64, 0)] * 4])

    def test_builder_returns_records(self, region):
        builder = StreamBuilder(np.random.default_rng(0), cores=2)
        comps = [MixtureComponent("seq", 1.0, seq_lines(region))]
        self._assert_columnar(builder.build(comps, 10), 10)
        self._assert_columnar(
            builder.from_arrays(np.array([0, 64]), np.array([0, 1])), 2
        )


class TestStreamBuilder:
    def _components(self, region):
        return [
            MixtureComponent("seq", 0.5, seq_lines(region), 0.0, True),
            MixtureComponent(
                "rand", 0.5,
                random_lines(np.random.default_rng(1), region, 100),
                1.0, False,
            ),
        ]

    def test_build_length_and_shape(self, region):
        builder = StreamBuilder(np.random.default_rng(0), cores=4, mean_gap=10)
        stream = builder.build(self._components(region), 500)
        assert len(stream) == 500
        gaps, addrs, writes, cores = zip(*stream)
        assert all(g >= 1 for g in gaps)
        assert set(cores) <= {0, 1, 2, 3}
        assert all(a % 64 == 0 for a in addrs)

    def test_write_fractions_respected(self, region):
        builder = StreamBuilder(np.random.default_rng(0))
        stream = builder.build(self._components(region), 2000)
        writes = [w for _, a, w, _ in stream]
        frac = sum(writes) / len(writes)
        assert 0.35 < frac < 0.65  # only the 'rand' half writes

    def test_deterministic_for_seed(self, region):
        def run():
            builder = StreamBuilder(np.random.default_rng(7))
            return builder.build(self._components(region), 100)
        assert np.array_equal(run(), run())

    def test_mean_gap_approx(self, region):
        builder = StreamBuilder(np.random.default_rng(0), mean_gap=12)
        stream = builder.build(self._components(region), 5000)
        mean = sum(g for g, *_ in stream) / len(stream)
        assert 10 < mean < 14

    def test_rejects_empty_components(self, region):
        with pytest.raises(ValueError):
            StreamBuilder(np.random.default_rng(0)).build([], 10)

    def test_rejects_bad_weights(self, region):
        comp = MixtureComponent("x", 0.0, seq_lines(region))
        with pytest.raises(ValueError):
            StreamBuilder(np.random.default_rng(0)).build([comp], 10)

    def test_from_arrays(self):
        builder = StreamBuilder(np.random.default_rng(0), cores=2)
        addrs = np.array([0, 64, 128])
        writes = np.array([0, 1, 0])
        stream = builder.from_arrays(addrs, writes)
        assert [a for _, a, _, _ in stream] == [0, 64, 128]
        assert [w for _, _, w, _ in stream] == [0, 1, 0]

    def test_from_arrays_length_mismatch(self):
        builder = StreamBuilder(np.random.default_rng(0))
        with pytest.raises(ValueError):
            builder.from_arrays(np.array([0]), np.array([0, 1]))


class TestPartitioning:
    def test_partition_covers_region(self):
        region = Region("r", 0, 40 * units.PAGE_SIZE)
        parts = [partition_region(region, i, 4) for i in range(4)]
        assert parts[0].start == region.start
        for a, b in zip(parts, parts[1:]):
            assert a.end == b.start
        assert parts[-1].end == region.end

    def test_uneven_split(self):
        region = Region("r", 0, 10 * units.PAGE_SIZE)
        parts = [partition_region(region, i, 3) for i in range(3)]
        assert sum(p.num_pages for p in parts) == 10

    def test_page_aligned(self):
        region = Region("r", 0, 16 * units.PAGE_SIZE)
        part = partition_region(region, 1, 4)
        assert part.start % units.PAGE_SIZE == 0

    def test_out_of_range(self):
        region = Region("r", 0, 16 * units.PAGE_SIZE)
        with pytest.raises(ValueError):
            partition_region(region, 4, 4)

    def test_private_region_inside_window(self):
        region = private_region((1000 * 4096, 2000 * 4096), 64 * units.KB)
        assert region.start == 1000 * 4096

    def test_private_region_overflow(self):
        with pytest.raises(ValueError):
            private_region((0, 4096), 64 * units.KB)
