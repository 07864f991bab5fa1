import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dlbac.rng import MASK64, SplitMix64, derive_seed

# reference outputs for the standard mix function, seed 0 and seed
# 0x123456789ABCDEF: computed once by hand-evaluating the three mix steps
SEED0_FIRST3 = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
)


def _reference_next(state):
    state = (state + 0x9E3779B97F4A7C15) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, z ^ (z >> 31)


def _scalar_shuffle(rng, seq):
    """Fisher-Yates with one `randint` per swap: the oracle for `SplitMix64.permutation`."""
    for i in range(len(seq) - 1, 0, -1):
        j = rng.randint(i + 1)
        seq[i], seq[j] = seq[j], seq[i]


class TestStream:
    def test_known_seed_zero_outputs(self):
        rng = SplitMix64(0)
        assert tuple(rng.next_u64() for _ in range(3)) == SEED0_FIRST3

    @given(st.integers(0, MASK64))
    def test_matches_reference_recurrence(self, seed):
        rng = SplitMix64(seed)
        state = seed
        for _ in range(4):
            state, expect = _reference_next(state)
            assert rng.next_u64() == expect

    def test_same_seed_same_stream(self):
        a = SplitMix64(42)
        b = SplitMix64(42)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]

    def test_outputs_fit_in_64_bits(self):
        rng = SplitMix64(7)
        assert all(0 <= rng.next_u64() <= MASK64 for _ in range(1000))


GAMMA = 0x9E3779B97F4A7C15


class TestBlock:
    # the last three seeds wrap the counter past 2**64 within the first draws
    @pytest.mark.parametrize("seed", [0, 42, MASK64, MASK64 - 1, (-3 * GAMMA) & MASK64])
    @pytest.mark.parametrize("k", [0, 1, 2, 257])
    def test_equals_k_scalar_draws(self, seed, k):
        a, b = SplitMix64(seed), SplitMix64(seed)
        got = a.block(k)
        assert got.dtype == np.uint64 and got.shape == (k,)
        assert got.tolist() == [b.next_u64() for _ in range(k)]
        assert a.next_u64() == b.next_u64()  # the state moved by k

    def test_is_the_counter_definition(self):
        # draw k of a stream is mix(seed + k * GAMMA): the first draw of the
        # generator seeded one step ahead is the second draw of this one
        seed = 0x123456789ABCDEF
        assert SplitMix64(seed).block(2)[1] == SplitMix64(seed + GAMMA).next_u64()

    @given(
        st.integers(0, MASK64),
        st.lists(st.tuples(st.booleans(), st.integers(0, 40)), max_size=8),
    )
    def test_interleaved_calls_read_one_stream(self, seed, calls):
        mixed, scalar = SplitMix64(seed), SplitMix64(seed)
        got = []
        for as_block, k in calls:
            got += mixed.block(k).tolist() if as_block else [mixed.next_u64() for _ in range(k)]
        assert got == [scalar.next_u64() for _ in range(len(got))]
        assert mixed.next_u64() == scalar.next_u64()


class TestShuffle:
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_lists_match_the_scalar_loop(self, n):
        a, b = SplitMix64(5), SplitMix64(5)
        got = a.permutation(n)
        ys = list(range(n))
        _scalar_shuffle(b, ys)
        assert got.dtype == np.int64 and got.shape == (n,)
        assert got.tolist() == ys
        assert a.next_u64() == b.next_u64()

    @given(st.integers(0, MASK64), st.integers(0, 400))
    def test_matches_the_scalar_loop(self, seed, n):
        a, b = SplitMix64(seed), SplitMix64(seed)
        ys = list(range(n))
        _scalar_shuffle(b, ys)
        assert a.permutation(n).tolist() == ys
        assert a.next_u64() == b.next_u64()

    @given(st.integers(0, MASK64), st.integers(0, 60))
    def test_indexing_by_it_is_the_in_place_shuffle(self, seed, n):
        xs = [f"x{i}" for i in range(n)]
        shuffled = list(xs)
        _scalar_shuffle(SplitMix64(seed), shuffled)
        assert [xs[i] for i in SplitMix64(seed).permutation(n)] == shuffled


class TestDraws:
    def test_randint_is_modulo_of_stream(self):
        assert SplitMix64(0).randint(1000) == SEED0_FIRST3[0] % 1000

    def test_randint_range(self):
        rng = SplitMix64(3)
        assert all(0 <= rng.randint(7) < 7 for _ in range(500))

    def test_randint_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SplitMix64(0).randint(0)

    def test_random_unit_interval(self):
        rng = SplitMix64(5)
        xs = [rng.random() for _ in range(1000)]
        assert all(0.0 <= x < 1.0 for x in xs)
        # rough uniformity sanity check
        assert 0.4 < sum(xs) / len(xs) < 0.6

    def test_random_uses_top_53_bits(self):
        assert SplitMix64(0).random() == (SEED0_FIRST3[0] >> 11) * 2.0**-53

    def test_shuffle_is_permutation_and_deterministic(self):
        a = SplitMix64(9).permutation(50).tolist()
        assert a == SplitMix64(9).permutation(50).tolist()
        assert sorted(a) == list(range(50))

    def test_sample_indices_distinct_in_range(self):
        got = SplitMix64(4).sample_indices(20, 10)
        assert len(got) == len(set(got)) == 10
        assert all(0 <= i < 20 for i in got)

    def test_sample_indices_full_population(self):
        assert sorted(SplitMix64(1).sample_indices(6, 6)) == list(range(6))

    def test_sample_larger_than_population_rejected(self):
        with pytest.raises(ValueError):
            SplitMix64(0).sample_indices(3, 4)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(123, 1) == derive_seed(123, 1)

    def test_tags_give_distinct_streams(self):
        seeds = {derive_seed(123, t) for t in range(1, 5)}
        assert len(seeds) == 4

    @given(st.integers(0, MASK64), st.integers(1, 10))
    def test_always_in_u64_range(self, seed, tag):
        assert 0 <= derive_seed(seed, tag) <= MASK64
