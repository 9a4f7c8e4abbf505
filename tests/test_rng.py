import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qkdsim import rng
from qkdsim.rng import RunStreams, SlotRng, bernoulli_hits, child_seed, derive_seed, mix64

from oracles import level_hits, splitmix64_outputs


def test_raw_at_matches_reference_splitmix64():
    for seed in (0, 1, 0xDEADBEEF, 2**63 + 17):
        ref = splitmix64_outputs(seed, 32)
        rng = SlotRng(seed)
        got = rng.raw_at(np.arange(32, dtype=np.uint64))
        assert [int(v) for v in got] == ref
        assert [int(v) for v in rng.raw_at(np.arange(32))] == ref  # int64 indices


@pytest.mark.parametrize(
    "index",
    [np.array([-1, -5, -(2**63)]), -7, 2**63, 2**64 - 1, np.array(12), np.uint64(3)],
    ids=["negative-int64", "negative-int", "int-2^63", "int-2^64-1", "0-d", "uint64-scalar"],
)
def test_raw_at_takes_indices_modulo_2_64(index):
    # Output k of the reference generator seeded s is output 0 of the one
    # seeded s + k * golden; k counts modulo 2^64.
    seed = 0xDEADBEEF
    got = SlotRng(seed).raw_at(index)
    assert got.shape == np.shape(index)
    for k, v in zip(np.ravel(index).tolist(), np.ravel(got).tolist()):
        assert v == splitmix64_outputs(seed + k * 0x9E3779B97F4A7C15, 1)[0]


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


# Seeds derived by the numpy splitmix64 of an earlier release: a master
# below 0 or at 2^64 - 1, an index of -1 or 2^64 - 1, an empty and a
# non-ASCII tag.
PINNED_SEEDS = [
    (-1, "alice", 0, 17798832182846110342),
    (-(2**63), "detector", 3, 9205249794430554544),
    (42, "candidates", -1, 17928519648614428579),
    (2**64 - 1, "eve", 0, 17938426545985966531),
    (2**64 - 1, "candidates", 61, 655284019745797341),
    (7, "\u0444\u0430\u0437\u0430-\u03c0", 2, 9340796146147219782),
    (0, "", 0, 16539421115465412304),
    (20260808, "detector", 2**64 - 1, 9934211899693579377),
]


@pytest.mark.parametrize("master, tag, index, seed", PINNED_SEEDS)
def test_derive_seed_is_pinned(master, tag, index, seed):
    assert derive_seed(master, tag, index) == seed


def test_scalar_finalizer_matches_the_array_one():
    x = np.random.default_rng(3).integers(0, 2**64, 2000, dtype=np.uint64, endpoint=False)
    assert [rng._mix_int(int(v)) for v in x] == mix64(x).tolist()


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


def _hit_indicator(seed, k, n_blocks, first_block=0):
    """0/1 per slot of n_blocks level-k sub-blocks from `first_block` on."""
    blocks = np.arange(first_block, first_block + n_blocks, dtype=np.int64)
    (hits,) = bernoulli_hits([SlotRng(seed).level(k)], k, [blocks], len(blocks))
    hit = np.zeros(n_blocks << k, dtype=bool)
    hit[hits - (first_block << k)] = True
    return hit


@pytest.mark.parametrize("k", [1, 2, 5, 9, 13, 18])
def test_candidate_frequency_is_two_to_the_minus_level(k):
    slots = 1 << 21
    hits = _hit_indicator(31, k, slots >> k, first_block=(1 << 40) >> k)
    q = 2.0**-k
    sigma = np.sqrt(slots * q * (1.0 - q))
    assert abs(hits.sum() - slots * q) < 5.0 * sigma


@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_candidate_hits_uncorrelated_in_adjacent_slots_and_across_sub_block_edges(k):
    hits = _hit_indicator(7, k, (1 << 20) >> k)
    q = 2.0**-k
    both = hits[:-1] & hits[1:]  # pair (s, s + 1)
    edge = (np.arange(1, len(hits)) % (1 << k)) == 0  # s + 1 opens a sub-block
    for pairs in (both[edge], both[~edge]):
        sigma = np.sqrt(len(pairs) * q * q * (1.0 - q * q))
        assert abs(pairs.sum() - len(pairs) * q * q) < 5.0 * sigma
    # A sub-block's first slot is hit as often as any other.
    first = hits[:: 1 << k]
    assert abs(first.sum() - len(first) * q) < 5.0 * np.sqrt(len(first) * q * (1.0 - q))


def _sub_blocks(k, min_size=0):
    """Sorted distinct level-k sub-blocks of slots below 2^62."""
    top = min(2**30, (1 << (62 - k)) - 1)
    return st.lists(st.integers(min_value=0, max_value=top), min_size=min_size, max_size=40,
                    unique=True).map(lambda b: np.array(sorted(b), dtype=np.int64))


@given(st.data())
def test_candidate_hits_equal_the_dense_reference(data):
    """Streams walked together, at most `cap` sub-blocks a round loop, hit
    what each hits walked alone and what the dense reference hits: 1-4
    streams, some without sub-blocks and one with more than `cap`."""
    k = data.draw(st.sampled_from([1, 4, 13, rng.MAX_LEVEL]) | st.integers(1, rng.MAX_LEVEL))
    seeds = data.draw(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1,
                               max_size=4))
    blocks = [data.draw(_sub_blocks(k, min_size=2 if i == 0 else 0)) for i in range(len(seeds))]
    order = data.draw(st.permutations(range(len(seeds))))
    seeds, blocks = [seeds[i] for i in order], [blocks[i] for i in order]
    cap = data.draw(st.integers(1, max(map(len, blocks)) - 1))
    detectors = [SlotRng(seed) for seed in seeds]
    walked = bernoulli_hits([d.level(k) for d in detectors], k, blocks, cap)
    assert len(walked) == len(detectors)
    for d, b, hits in zip(detectors, blocks, walked):
        (alone,) = bernoulli_hits([d.level(k)], k, [b], max(len(b), 1))
        assert np.array_equal(hits, alone)
        assert np.array_equal(hits, np.sort(level_hits(d, k, b)))

