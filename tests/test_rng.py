import numpy as np
from hypothesis import given
from hypothesis import strategies as st

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
