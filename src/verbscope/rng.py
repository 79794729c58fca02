"""Deterministic random streams for order-independent parallel transforms.

Every per-sentence operation draws from its own stream, seeded by mixing
the run seed with the sentence index through SplitMix64. Results therefore
never depend on how work is scheduled across worker processes, and any
single sentence can be re-derived in isolation.

The mix rule, fixed for reproducibility across versions:

    stream_seed(seed, i) = splitmix64(splitmix64(seed) XOR i)

and the stream itself is the SplitMix64 sequence started at that state.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One SplitMix64 scramble of the 64-bit value ``x``."""
    z = (x + _GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def mix64(seed: int, index: int) -> int:
    """Derive an independent stream seed from (seed, index)."""
    return splitmix64(splitmix64(seed & MASK64) ^ (index & MASK64))


class Stream:
    """A SplitMix64 sequence with the few draw primitives the pipeline needs."""

    __slots__ = ("_state",)

    def __init__(self, state: int):
        self._state = state & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def randbelow(self, n: int) -> int:
        """Unbiased integer in [0, n), by rejection sampling."""
        if n <= 0:
            raise ValueError("randbelow needs n >= 1")
        if n == 1:
            return 0
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates walk, from the last position down to 1."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]

    def pick_cumulative(self, cumulative: Sequence[int], exclude: int | None = None) -> int:
        """Index i drawn with weight cumulative[i] - cumulative[i-1], never ``exclude``.

        ``cumulative`` is a nondecreasing integer prefix sum whose total,
        less the excluded index's weight, is positive. One ``randbelow``
        over that remaining total is drawn and shifted past the excluded
        weight, so ``range(1, n + 1)`` picks uniformly among the other n - 1.
        """
        lo = hi = 0
        if exclude is not None:
            lo = cumulative[exclude - 1] if exclude else 0
            hi = cumulative[exclude]
        total = cumulative[-1] - (hi - lo)
        if total <= 0:
            raise ValueError("weights must have positive total")
        r = self.randbelow(total)
        return bisect_right(cumulative, r + (hi - lo) if r >= lo else r)
