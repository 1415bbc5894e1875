"""Background data-traffic model tests."""

import pytest

from repro.sim.datatraffic import DATA_LINE_BASE, DataTrafficModel, make_data_traffic
from repro.sim.hierarchy import MemoryHierarchy


class TestPacing:
    def test_rate_accounting(self):
        model = DataTrafficModel(rate_per_instruction=0.5, seed=1)
        h = MemoryHierarchy()
        issued = model.advance(100, h)
        assert issued == 50
        assert model.accesses == 50

    def test_fractional_accumulation(self):
        model = DataTrafficModel(rate_per_instruction=0.3, seed=1)
        h = MemoryHierarchy()
        total = sum(model.advance(1, h) for _ in range(100))
        # floating-point accumulation may round one access down
        assert total in (29, 30)

    def test_zero_rate_never_issues(self):
        model = DataTrafficModel(rate_per_instruction=0.0, seed=1)
        h = MemoryHierarchy()
        assert model.advance(10_000, h) == 0


class TestDeterminism:
    def test_same_seed_same_stream(self):
        results = []
        for _ in range(2):
            model = DataTrafficModel(0.5, working_set_lines=1024, seed=42)
            h = MemoryHierarchy()
            model.advance(1000, h)
            results.append(frozenset(h.l2.resident_lines()))
        assert results[0] == results[1]

    def test_different_seeds_differ(self):
        residents = []
        for seed in (1, 2):
            model = DataTrafficModel(0.5, working_set_lines=100_000, seed=seed)
            h = MemoryHierarchy()
            model.advance(1000, h)
            residents.append(frozenset(h.l2.resident_lines()))
        assert residents[0] != residents[1]


class TestAddressing:
    def test_data_lines_above_base(self):
        model = DataTrafficModel(1.0, working_set_lines=64, seed=3)
        h = MemoryHierarchy()
        model.advance(200, h)
        assert all(line >= DATA_LINE_BASE for line in h.l2.resident_lines())

    def test_never_touches_l1i(self):
        model = DataTrafficModel(1.0, seed=3)
        h = MemoryHierarchy()
        model.advance(500, h)
        assert not h.l1i.resident_lines()


class TestValidation:
    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            DataTrafficModel(-0.1)

    def test_empty_working_set_rejected(self):
        with pytest.raises(ValueError):
            DataTrafficModel(0.1, working_set_lines=0)

    def test_bad_hot_fraction_rejected(self):
        with pytest.raises(ValueError):
            DataTrafficModel(0.1, hot_fraction=0.0)


class TestFactory:
    def test_zero_rate_returns_none(self):
        assert make_data_traffic(0.0, 1024, 1) is None

    def test_working_set_conversion(self):
        model = make_data_traffic(0.1, working_set_kib=64, seed=1)
        assert model is not None
        assert model.working_set_lines == 64 * 1024 // 64

    def test_reset(self):
        model = DataTrafficModel(0.5, seed=1)
        h = MemoryHierarchy()
        model.advance(100, h)
        model.reset()
        assert model.accesses == 0


class _CountingMemo(dict):
    """A decode memo that counts the lookups it answers."""

    hits = 0

    def get(self, key, default=None):
        value = super().get(key, default)
        if value is not None:
            self.hits += 1
        return value


class TestDecodeMemo:
    """The data-stream decode memo of the columnar kernel is bounded by
    the decoded lines it holds, so a trace cut into many shards is
    decoded once and reused on the next replay of the same trace."""

    SHARD_INSNS = 600

    def _replay(self, program, trace):
        from repro import kernel
        from repro.sim.cpu import CoreSimulator

        with kernel.force_numpy_kernel():
            core = CoreSimulator(
                program,
                data_traffic=make_data_traffic(
                    rate_per_instruction=0.2, working_set_kib=64, seed=9
                ),
            )
            return core.run(trace, warmup=100, shard_insns=self.SHARD_INSNS)

    def _install(self, monkeypatch, limit=None):
        """A fresh counting memo whose every insert is checked against
        the bound; returns (memo, inserts)."""
        from repro.sim import array_replay

        memo = _CountingMemo()
        monkeypatch.setattr(array_replay, "_STREAM_CACHE", memo)
        monkeypatch.setattr(array_replay, "_stream_cache_lines", 0)
        if limit is not None:
            monkeypatch.setattr(
                array_replay, "_STREAM_CACHE_LINE_LIMIT", limit
            )
        put = array_replay._stream_cache_put
        inserts = []

        def checked_put(key, entry):
            put(key, entry)
            inserts.append(key)
            held = sum(len(e[0]) or 1 for e in memo.values())
            assert held == array_replay._stream_cache_lines
            assert held <= array_replay._STREAM_CACHE_LINE_LIMIT

        monkeypatch.setattr(array_replay, "_stream_cache_put", checked_put)
        return memo, inserts

    def _workload(self):
        import random

        from repro.sim.trace import trace_shard_bounds

        from ..conftest import make_random_program, make_random_trace

        rng = random.Random(21)
        program = make_random_program(rng, n_blocks=80)
        trace = make_random_trace(rng, 80, length=1_500)
        shards = len(trace_shard_bounds(trace, program, self.SHARD_INSNS))
        assert shards > 32
        return program, trace, shards

    def test_second_replay_hits_every_shard(self, monkeypatch):
        program, trace, shards = self._workload()
        memo, inserts = self._install(monkeypatch)
        first = self._replay(program, trace)
        assert len(inserts) == shards
        assert memo.hits == 0
        second = self._replay(program, trace)
        assert second == first
        assert memo.hits == shards
        assert len(inserts) == shards

    @pytest.mark.parametrize("share", [3, 0], ids=["third", "one-line"])
    def test_memo_stays_within_its_line_bound(self, monkeypatch, share):
        program, trace, shards = self._workload()
        memo, inserts = self._install(monkeypatch)
        whole = self._replay(program, trace)
        held = sum(len(e[0]) for e in memo.values())
        monkeypatch.undo()
        # a third of the trace's stream (every replay evicts), or one
        # line (no shard's stream is kept at all): the stats stay
        # identical to the unevicted run
        limit = held // share if share else 1
        memo, inserts = self._install(monkeypatch, limit=limit)
        for _ in range(2):
            assert self._replay(program, trace) == whole
        assert len(inserts) == 2 * shards
        assert memo.hits == 0
