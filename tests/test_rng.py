import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qkdsim import rng as rng_module
from qkdsim.detector import slot_ranges
from qkdsim.rng import RunStreams, SlotRng, child_seed, derive_seed, mix64, raw_limit

from oracles import splitmix64_outputs


def test_raw_at_matches_reference_splitmix64():
    for seed in (0, 1, 0xDEADBEEF, 2**63 + 17):
        ref = splitmix64_outputs(seed, 32)
        rng = SlotRng(seed)
        got = rng.raw_at(np.arange(32, dtype=np.uint64))
        assert [int(v) for v in got] == ref
        assert [int(v) for v in rng.raw_at(np.arange(32))] == ref  # int64 indices


def test_scalar_and_batch_agree():
    rng = SlotRng(1234)
    batch = rng.uniform_at(np.arange(100, dtype=np.uint64))
    singles = [float(rng.uniform_at(i)) for i in range(100)]
    assert list(batch) == singles


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=2**40))
def test_uniform_in_unit_interval(seed, index):
    u = float(SlotRng(seed).uniform_at(index))
    assert 0.0 <= u < 1.0


def test_uniform_looks_uniform():
    u = SlotRng(99).uniform_at(np.arange(200_000, dtype=np.uint64))
    assert abs(u.mean() - 0.5) < 0.005
    assert abs((u < 0.1).mean() - 0.1) < 0.005


def test_bit_at_is_balanced():
    bits = SlotRng(7).bit_at(np.arange(100_000, dtype=np.uint64))
    assert set(np.unique(bits)) <= {0, 1}
    assert abs(bits.mean() - 0.5) < 0.01


def test_derive_seed_distinguishes_tags_and_indices():
    seeds = {
        derive_seed(42, "alice"),
        derive_seed(42, "eve"),
        derive_seed(42, "detector", 1),
        derive_seed(42, "detector", 2),
        derive_seed(43, "alice"),
    }
    assert len(seeds) == 5


def test_derive_seed_is_stable():
    assert derive_seed(42, "alice") == derive_seed(42, "alice")
    assert child_seed(10, 3) == child_seed(10, 3)
    assert child_seed(10, 3) != child_seed(10, 4)


def test_streams_are_independent_of_call_order():
    a = RunStreams(5)
    b = RunStreams(5)
    # draw b's detector stream before its alice stream; values must match a's
    det_b = b.detectors[0].uniform_at(np.arange(10, dtype=np.uint64))
    alice_b = b.alice.uniform_at(np.arange(10, dtype=np.uint64))
    alice_a = a.alice.uniform_at(np.arange(10, dtype=np.uint64))
    det_a = a.detectors[0].uniform_at(np.arange(10, dtype=np.uint64))
    assert list(det_a) == list(det_b)
    assert list(alice_a) == list(alice_b)


def test_mix64_avalanche():
    x = np.uint64(123456)
    y = np.uint64(123457)
    assert int(mix64(x)) != int(mix64(y))


@given(
    st.one_of(
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=2**53).map(lambda k: k / 2**53),
    ),
    st.integers(min_value=0, max_value=2**64 - 1),
)
def test_raw_limit_is_the_uniform_comparison(p, raw):
    # A raw variate r gives the uniform (r >> 11) / 2**53, which is below p
    # exactly when r <= raw_limit(p) (p > 0).  Check a random r and the
    # values on both sides of the limit.
    limit = int(raw_limit(np.array([p]))[0])
    for r in (raw, limit, limit + 1):
        if r < 2**64:
            below = (r >> 11) / 2**53 < p
            assert (r <= limit) == below or (p == 0.0 and r < 2**11)


@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.one_of(
        st.integers(min_value=-(2**63) + 100, max_value=2**63 - 10**4),
        st.integers(min_value=-300, max_value=0),  # ranges across slot -1 = 2^64 - 1 -> 0
    ),
    # (gap after the previous range, length): gap 0 makes ranges adjacent,
    # a negative one makes them overlap, a length <= 0 an empty range.
    st.lists(st.tuples(st.integers(min_value=-5, max_value=40),
                       st.integers(min_value=-3, max_value=60)), max_size=20),
)
def test_range_draws_equal_draws_at_the_range_slots(seed, base, ranges):
    starts, ends, at = [], [], base
    for gap, length in ranges:
        starts.append(at + gap)
        ends.append(at + gap + length)
        at = max(at, ends[-1])
    starts, ends = np.array(starts, dtype=np.int64), np.array(ends, dtype=np.int64)
    rng = SlotRng(seed)
    want = rng.raw_at(slot_ranges(starts, ends))
    for loop_range_len in (0, 2**40):  # ranges looped over; values repeated
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rng_module, "_LOOP_RANGE_LEN", loop_range_len)
            assert np.array_equal(rng.raw_at(starts, ends), want)
