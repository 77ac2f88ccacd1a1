"""Scalar vs. array LLC backend equivalence.

The array backend's batched engine must reproduce the scalar reference
bit-exactly: identical per-access hit/fill/eviction/writeback outcomes,
identical victim attribution, identical occupancy — over arbitrary
interleavings of core accesses, DDIO writes and device reads, under both
replacement policies.  These tests fuzz exactly that, plus the
engine-level guarantee that a full simulation produces identical metrics
on either backend.
"""

import dataclasses
import random

import numpy as np
import pytest

from repro.cache.geometry import TINY_LLC
from repro.cache.llc import DDIO_OWNER, NO_VICTIM, SlicedLLC

SEEDS = [3, 17, 2021]


def random_stream(rng, steps, *, max_batch, addr_lines):
    """Yield (kind, addrs, kwargs) operations for both backends."""
    full = TINY_LLC.full_mask
    for _ in range(steps):
        n = rng.randint(1, max_batch)
        addrs = [rng.randrange(addr_lines) * 64 for _ in range(n)]
        kind = rng.randrange(4)
        if kind == 0:       # uniform core accesses
            yield ("access", addrs, dict(
                mask=rng.randrange(1, full + 1),
                write=rng.random() < 0.5,
                owner=rng.randrange(4)))
        elif kind == 1:     # DDIO write-allocate/update
            yield ("ddio", addrs, dict(mask=rng.randrange(1, full + 1)))
        elif kind == 2:     # device reads (never allocate)
            yield ("device", addrs, {})
        else:               # fully mixed per-element batch
            yield ("mixed", addrs, dict(
                mask=[rng.randrange(1, full + 1) for _ in range(n)],
                write=[rng.random() < 0.5 for _ in range(n)],
                owner=[rng.choice([0, 1, 2, DDIO_OWNER])
                       for _ in range(n)],
                allocate=[rng.random() < 0.8 for _ in range(n)]))


def apply_scalar(llc, op):
    kind, addrs, kw = op
    if kind == "access":
        return [llc.access(a, kw["mask"], write=kw["write"],
                           owner=kw["owner"]) for a in addrs]
    if kind == "ddio":
        return [llc.ddio_write(a, kw["mask"]) for a in addrs]
    if kind == "device":
        return [llc.device_read(a) for a in addrs]
    return [llc.access(a, kw["mask"][i], write=kw["write"][i],
                       owner=kw["owner"][i], allocate=kw["allocate"][i])
            for i, a in enumerate(addrs)]


def apply_batch(llc, op):
    kind, addrs, kw = op
    addrs = np.asarray(addrs, dtype=np.int64)
    if kind == "access":
        return llc.access_batch(addrs, kw["mask"], write=kw["write"],
                                owner=kw["owner"])
    if kind == "ddio":
        return llc.ddio_write_batch(addrs, kw["mask"])
    if kind == "device":
        return llc.device_read_batch(addrs)
    return llc.access_batch(addrs, np.asarray(kw["mask"]),
                            write=np.asarray(kw["write"]),
                            owner=np.asarray(kw["owner"]),
                            allocate=np.asarray(kw["allocate"]))


def assert_same_state(scalar, array):
    assert scalar.occupancy_by_owner() == array.occupancy_by_owner()
    assert scalar.valid_lines() == array.valid_lines()
    assert scalar._clock == array._clock
    assert scalar.stats() == array.stats()
    for row in range(TINY_LLC.total_sets):
        assert scalar._tags[row] == array._tags[row].tolist()
        assert scalar._stamp[row] == array._stamp[row].tolist()
        assert scalar._dirty[row] == array._dirty[row].tolist()
        assert scalar._owner[row] == array._owner[row].tolist()


class TestBatchEquivalence:
    @pytest.mark.parametrize("policy", ["lru", "random"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fuzzed_streams_bit_identical(self, policy, seed):
        rng = random.Random(seed)
        scalar = SlicedLLC(TINY_LLC, policy=policy, backend="scalar")
        array = SlicedLLC(TINY_LLC, policy=policy, backend="array")
        for op in random_stream(rng, 120, max_batch=96, addr_lines=4096):
            expected = apply_scalar(scalar, op)
            got = apply_batch(array, op)
            for i, out in enumerate(expected):
                assert out == got.outcome_at(i), (op[0], i)
        assert_same_state(scalar, array)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_set_colliding_streams(self, seed):
        """Tiny address space: heavy same-set traffic inside each batch,
        exercising the sequential remainder of the vector engine."""
        rng = random.Random(seed)
        scalar = SlicedLLC(TINY_LLC, backend="scalar")
        array = SlicedLLC(TINY_LLC, backend="array")
        for op in random_stream(rng, 80, max_batch=200, addr_lines=96):
            expected = apply_scalar(scalar, op)
            got = apply_batch(array, op)
            for i, out in enumerate(expected):
                assert out == got.outcome_at(i), (op[0], i)
        assert_same_state(scalar, array)

    def test_batch_equals_sequential_on_same_backend(self):
        """access_batch(v) must equal issuing v element-wise (array)."""
        rng = random.Random(7)
        one = SlicedLLC(TINY_LLC, backend="array")
        many = SlicedLLC(TINY_LLC, backend="array")
        for _ in range(60):
            n = rng.randint(8, 120)
            addrs = [rng.randrange(2048) * 64 for _ in range(n)]
            mask = rng.randrange(1, TINY_LLC.full_mask + 1)
            expected = [one.access(a, mask, owner=1) for a in addrs]
            got = many.access_batch(np.asarray(addrs), mask, owner=1)
            assert [o.hit for o in expected] == got.hit.tolist()
            assert [o.fill for o in expected] == got.fill.tolist()
        assert one.occupancy_by_owner() == many.occupancy_by_owner()

    def test_batch_outcome_aggregates(self):
        llc = SlicedLLC(TINY_LLC, backend="array")
        addrs = np.arange(64, dtype=np.int64) * 64
        out = llc.access_batch(addrs, TINY_LLC.full_mask, owner=5)
        assert out.misses == 64 and out.fills == 64 and out.hits == 0
        again = llc.access_batch(addrs, TINY_LLC.full_mask, owner=5)
        assert again.hits == 64 and again.fills == 0
        assert again.victim_owner_counts() == {}

    def test_empty_mask_raises_on_both_backends(self):
        for backend in ("scalar", "array"):
            llc = SlicedLLC(TINY_LLC, backend=backend)
            with pytest.raises(ValueError):
                llc.access_batch(np.zeros(16, dtype=np.int64)
                                 + np.arange(16) * 64, 0)


def scalar_outcomes(llc, addrs, mask, *, write, owner):
    """Per-line reference outcomes as ``BatchOutcome``-shaped lists."""
    writes = np.broadcast_to(np.asarray(write, dtype=bool), len(addrs))
    outs = [llc.access(int(a), mask, write=bool(w), owner=owner)
            for a, w in zip(addrs, writes)]
    return {"hit": [o.hit for o in outs], "fill": [o.fill for o in outs],
            "evicted": [o.evicted for o in outs],
            "writeback": [o.writeback for o in outs],
            "victim_owner": [NO_VICTIM if o.victim_owner is None
                             else o.victim_owner for o in outs]}


def batch_fields(out):
    return {name: getattr(out, name).tolist()
            for name in ("hit", "fill", "evicted", "writeback",
                         "victim_owner")}


class TestAllMissClosedForm:
    """Batches of distinct lines that all miss under one mask and owner
    take ``SlicedLLC._apply_all_miss`` (per-set FIFO); everything else
    falls back to the round/sequential engine.  Both must match the
    per-line scalar reference on every outcome field and all state."""

    #: 2-, 3-way and full masks; the 2-way mask is non-contiguous.
    MASKS = [0b10000000100, 0b00000111000, TINY_LLC.full_mask]

    @pytest.fixture
    def closed_form_calls(self, monkeypatch):
        calls = []
        original = SlicedLLC._apply_all_miss

        def spy(self, index, *args):
            calls.append(index.shape[0])
            return original(self, index, *args)

        monkeypatch.setattr(SlicedLLC, "_apply_all_miss", spy)
        return calls

    @staticmethod
    def prefilled_pair(seed):
        """Both backends holding the same dirty lines of owner 7 in
        every way, plus a few invalid cells left by a partial fill."""
        rng = np.random.default_rng(seed)
        pair = (SlicedLLC(TINY_LLC, backend="scalar"),
                SlicedLLC(TINY_LLC, backend="array"))
        lines = rng.choice(1 << 16, size=TINY_LLC.lines - 300,
                           replace=False)
        for llc in pair:
            for line in lines.tolist():
                llc.access(line * 64, TINY_LLC.full_mask, write=True,
                           owner=7)
        return pair

    @staticmethod
    def fresh_lines(seed, n):
        """``n`` distinct lines disjoint from the prefilled range."""
        rng = np.random.default_rng(seed + 1000)
        return ((1 << 16) + rng.choice(1 << 20, size=n, replace=False)) * 64

    @pytest.mark.parametrize("mask", MASKS)
    @pytest.mark.parametrize("write", [False, True, "array"])
    def test_deep_chains_match_scalar(self, mask, write, closed_form_calls):
        # 3,000 lines over 256 sets: ~12 accesses per set, far deeper
        # than any mask, so sets wrap their FIFO several times.
        scalar, array = self.prefilled_pair(11)
        addrs = self.fresh_lines(11, 3000)
        if write == "array":
            write = np.random.default_rng(5).random(3000) < 0.5
        expected = scalar_outcomes(scalar, addrs, mask, write=write,
                                   owner=2)
        got = array.access_batch(addrs, mask, write=write, owner=2)
        assert closed_form_calls == [3000]
        assert batch_fields(got) == expected
        assert sum(expected["writeback"]) > 0
        assert 7 in got.victim_owner_counts()
        assert_same_state(scalar, array)

    def test_ddio_write_batch_takes_closed_form(self, closed_form_calls):
        scalar, array = self.prefilled_pair(12)
        addrs = self.fresh_lines(12, 1500)
        expected = [scalar.ddio_write(int(a), 0b11000000000) for a in addrs]
        got = array.ddio_write_batch(addrs, 0b11000000000)
        assert closed_form_calls == [1500]
        assert [got.outcome_at(i) for i in range(1500)] == expected
        assert_same_state(scalar, array)

    @pytest.mark.parametrize("close", ["rollback", "commit"])
    def test_armed_snapshot(self, close, closed_form_calls):
        scalar, array = self.prefilled_pair(13)
        before, _ = self.prefilled_pair(13)
        addrs = self.fresh_lines(13, 2500)
        write = np.random.default_rng(6).random(2500) < 0.3
        array.snapshot()
        expected = scalar_outcomes(scalar, addrs, 0b111, write=write,
                                   owner=3)
        got = array.access_batch(addrs, 0b111, write=write, owner=3)
        assert closed_form_calls == [2500]
        assert batch_fields(got) == expected
        assert_same_state(scalar, array)
        if close == "rollback":
            array.rollback()
            assert_same_state(before, array)
        else:
            array.commit()
            assert_same_state(scalar, array)
        # The restored (or kept) state keeps serving accesses exactly.
        more = self.fresh_lines(14, 800)
        ref = scalar if close == "commit" else before
        expected = scalar_outcomes(ref, more, TINY_LLC.full_mask,
                                   write=True, owner=4)
        assert batch_fields(array.access_batch(
            more, TINY_LLC.full_mask, write=True, owner=4)) == expected
        assert_same_state(ref, array)

    @pytest.mark.parametrize("fallback", ["repeated", "resident"])
    def test_fallbacks_match_scalar(self, fallback, closed_form_calls):
        scalar, array = self.prefilled_pair(15)
        addrs = self.fresh_lines(15, 2000)
        if fallback == "repeated":
            addrs[41] = addrs[40]           # one line twice in a row
        else:
            # One pre-resident line, in a way the batch mask (0b111)
            # cannot evict, so it hits wherever it sits in the batch.
            row = int(np.flatnonzero(array._tags[:, 10] != -1)[0])
            addrs[700] = int(array._tags[row, 10]) * 64
        expected = scalar_outcomes(scalar, addrs, 0b111, write=True,
                                   owner=2)
        got = array.access_batch(addrs, 0b111, write=True, owner=2)
        assert closed_form_calls == []
        assert batch_fields(got) == expected
        assert sum(expected["hit"]) == 1
        assert_same_state(scalar, array)


class TestEngineBackendEquivalence:
    def test_quickstart_style_metrics_identical(self):
        """A small two-tenant simulation records identical quanta on the
        oracle (scalar exec, scalar backend) and the fast path (vector
        exec, array backend) — every field of every record."""
        from repro.experiments.common import leaky_dma_scenario
        from repro.sim.config import TINY_PLATFORM

        def records(exec_mode, backend):
            spec = dataclasses.replace(TINY_PLATFORM, llc_backend=backend)
            scen = leaky_dma_scenario(packet_size=512, spec=spec)
            scen.sim.exec_mode = exec_mode
            metrics = scen.sim.run(0.6)
            return [dataclasses.asdict(r) for r in metrics.records]

        assert records("scalar", "scalar") == records("vector", "array")
