"""Deterministic 64-bit PRNG used by all synthesis and shuffling code.

SplitMix64 (Steele, Lea & Flood's mix function) is small enough to be
re-implemented verbatim in any language, so datasets generated here are
byte-reproducible by ports.  The stream a port must follow: draw k
(k = 1, 2, ...) of the generator seeded with `seed` is

    mix((seed + k * GAMMA) mod 2**64)

with GAMMA = 0x9E3779B97F4A7C15 and `mix` the three xor-shift-multiply
steps of `next_u64`.  A draw depends only on its counter, so `block(k)`
computes the next k draws as one array; it is that definition, not a
second stream, and any mix of `block` and `next_u64` calls reads the one
stream in order.  Integer draws use plain modulo reduction; the modulo bias
is irrelevant at 64 bits and keeps the stream definition trivial.
"""

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return z ^ (z >> 31)

    def block(self, k: int) -> np.ndarray:
        """The next k draws as a uint64 array, equal to k `next_u64` calls."""
        z = np.arange(1, k + 1, dtype=np.uint64)  # uint64 arithmetic wraps mod 2**64
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._state)
        self._state = (self._state + k * _GAMMA) & MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return z

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def choice(self, seq):
        return seq[self.randint(len(seq))]

    def permutation(self, n: int) -> np.ndarray:
        """range(n) shuffled, as int64: position i (from the end) swaps with draw % (i + 1)."""
        seq = list(range(n))  # swaps on a list are cheaper than on an array
        swaps = self.block(max(n - 1, 0)) % np.arange(n, 1, -1, dtype=np.uint64)
        for i, j in zip(range(n - 1, 0, -1), swaps.tolist()):
            seq[i], seq[j] = seq[j], seq[i]
        return np.array(seq, dtype=np.int64)

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices drawn from range(n), in draw order."""
        if k > n:
            raise ValueError("sample larger than population")
        picked: list[int] = []
        seen: set[int] = set()
        while len(picked) < k:
            i = self.randint(n)
            if i not in seen:
                seen.add(i)
                picked.append(i)
        return picked


def derive_seed(seed: int, tag: int) -> int:
    """Independent sub-stream seed for (seed, tag)."""
    return SplitMix64((seed ^ (tag * _GAMMA)) & MASK64).next_u64()
