"""Machine-parameter (Table I) tests."""

import pytest

from repro.sim.params import (
    CACHE_LINE_BYTES,
    DEFAULT_MACHINE,
    CacheGeometry,
    MachineParams,
    line_of,
)


class TestLineOf:
    def test_zero_address(self):
        assert line_of(0) == 0

    def test_line_boundaries(self):
        assert line_of(63) == 0
        assert line_of(64) == 1
        assert line_of(127) == 1
        assert line_of(128) == 2

    def test_large_address(self):
        assert line_of(1 << 30) == (1 << 30) // CACHE_LINE_BYTES


class TestCacheGeometry:
    def test_l1i_shape(self):
        geometry = CacheGeometry(32 * 1024, 8, "L1I")
        assert geometry.num_lines == 512
        assert geometry.num_sets == 64

    def test_l2_shape(self):
        geometry = CacheGeometry(1024 * 1024, 16, "L2")
        assert geometry.num_lines == 16384
        assert geometry.num_sets == 1024

    def test_l3_shape(self):
        geometry = CacheGeometry(10 * 1024 * 1024, 20, "L3")
        assert geometry.num_sets == geometry.num_lines // 20

    def test_rejects_non_divisible_size(self):
        with pytest.raises(ValueError):
            CacheGeometry(1000, 8)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CacheGeometry(0, 8)
        with pytest.raises(ValueError):
            CacheGeometry(4096, 0)


class TestMachineParams:
    def test_table1_defaults(self):
        m = DEFAULT_MACHINE
        assert m.l1i.size_bytes == 32 * 1024 and m.l1i.ways == 8
        assert m.l1d.size_bytes == 32 * 1024 and m.l1d.ways == 8
        assert m.l2.size_bytes == 1024 * 1024 and m.l2.ways == 16
        assert m.l3.size_bytes == 10 * 1024 * 1024 and m.l3.ways == 20
        assert m.l1i_latency == 3
        assert m.l1d_latency == 4
        assert m.l2_latency == 12
        assert m.l3_latency == 36
        assert m.memory_latency == 260
        assert m.frequency_ghz == 2.5
        assert m.cores_per_socket == 20

    def test_miss_penalties(self):
        m = MachineParams()
        assert m.miss_penalty("l1") == 0
        assert m.miss_penalty("l2") == 12
        assert m.miss_penalty("l3") == 36
        assert m.miss_penalty("memory") == 260

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            MachineParams().miss_penalty("l4")

    @pytest.mark.parametrize(
        "field",
        (
            "l2_latency", "l3_latency", "memory_latency",
            "base_ipc", "issue_width",
            "l2_fill_occupancy", "l3_fill_occupancy",
            "memory_fill_occupancy",
        ),
    )
    @pytest.mark.parametrize("value", (0, -1))
    def test_rejects_nonpositive(self, field, value):
        """Replay relies on positive latencies, throughput and fill
        occupancies; a machine without them cannot be built."""
        with pytest.raises(ValueError, match=field):
            MachineParams(**{field: value})

    def test_penalties_monotonic(self):
        m = MachineParams()
        levels = ["l1", "l2", "l3", "memory"]
        penalties = [m.miss_penalty(level) for level in levels]
        assert penalties == sorted(penalties)
