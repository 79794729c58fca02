"""Deterministic random streams for order-independent parallel transforms.

Every per-sentence operation draws from its own stream, seeded by mixing
the run seed with the sentence index through SplitMix64. Results therefore
never depend on how work is scheduled across worker processes, and any
single sentence can be re-derived in isolation.

The mix rule, fixed for reproducibility across versions:

    stream_seed(seed, i) = splitmix64(splitmix64(seed) XOR i)

and the stream itself is the SplitMix64 sequence started at that state.

SplitMix64 is counter-based: the k-th ``next_u64`` (k from 0) of
``Stream(s)`` is ``splitmix64(s + k * GOLDEN)`` modulo 2^64. So the draws
of every stream can be computed at once in numpy ``uint64``, which wraps
as the scalar code masks. ``shuffles`` and ``picks`` do that for the two
draws a perturbation makes, Fisher-Yates permutations and
``pick_cumulative`` with ``exclude``. ``randbelow`` rejects a draw with
probability (2^64 mod n) / 2^64, below 2^-40 for any n under 2^24; a
stream with a rejected draw is redone with the scalar ``Stream``, which
stays the reference for every draw.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

import numpy as np

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


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    z = x + np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def stream_seeds(seed: int, indices: np.ndarray) -> np.ndarray:
    """``mix64(seed, i)`` for each i of ``indices``, as uint64."""
    base = np.uint64(splitmix64(seed & MASK64))
    return _splitmix64_array(base ^ indices.astype(np.uint64))


def below(seeds: np.ndarray, k: np.ndarray, n: np.ndarray):
    """Draw k of each Stream(seed), reduced below n as ``randbelow(n)``
    reduces an accepted draw, and whether ``randbelow`` rejects it."""
    draws = _splitmix64_array(seeds + k.astype(np.uint64) * np.uint64(_GOLDEN))
    n = n.astype(np.uint64)
    rem = (np.uint64(MASK64) % n + np.uint64(1)) % n  # 2^64 mod n
    return draws % n, draws > np.uint64(MASK64) - rem


def shuffles(seeds: Sequence[int], spans: np.ndarray) -> np.ndarray:
    """The orders ``Stream(seed).shuffle(list(range(span)))`` leaves, for
    every (seed, span), concatenated.

    The Fisher-Yates swaps run step by step across all streams at once:
    step t swaps position span - 1 - t of each stream still that long with
    position ``randbelow(span - t)``, its draw t. A stream with a rejected
    draw is shuffled again with ``Stream``.
    """
    spans = np.asarray(spans, dtype=np.int64)
    starts = np.zeros(len(spans) + 1, dtype=np.int64)
    np.cumsum(spans, out=starts[1:])
    orders = np.arange(starts[-1], dtype=np.int64) - np.repeat(starts[:-1], spans)
    steps = np.maximum(spans - 1, 0)
    owner = np.repeat(np.arange(len(spans)), steps)
    k = np.arange(len(owner)) - np.repeat(np.cumsum(steps) - steps, steps)
    seeds = np.array(seeds, dtype=np.uint64).reshape(-1)
    j, rejected = below(seeds[owner], k, spans[owner] - k)
    # longest first, so the streams still walking at step t are a prefix
    longest = np.argsort(-spans, kind="stable")
    walking = np.cumsum(np.bincount(steps)[::-1])[::-1]  # streams making at least t swaps
    first_draw = (np.cumsum(steps) - steps)[longest]
    base, last = starts[:-1][longest], starts[1:][longest] - 1
    j = j.astype(np.int64)
    for t in range(len(walking) - 1):
        a = walking[t + 1]  # how many streams make swap t
        i_pos = last[:a] - t
        j_pos = base[:a] + j[first_draw[:a] + t]
        orders[i_pos], orders[j_pos] = orders[j_pos], orders[i_pos]
    for s in sorted(set(owner[rejected].tolist())):
        order = list(range(int(spans[s])))
        Stream(int(seeds[s])).shuffle(order)
        orders[starts[s]:starts[s + 1]] = order
    return orders


def picks(
    seeds: Sequence[int], stream: np.ndarray, cumulative: np.ndarray,
    strata: np.ndarray, member: np.ndarray,
) -> np.ndarray:
    """``pick_cumulative`` draws with ``exclude``, for many streams at once.

    Draw d belongs to stream ``stream[d]`` (nondecreasing), whose seed is
    ``seeds[stream[d]]``, and a stream's draws come in order. It picks from
    the stratum of member ``member[d]``, with that member excluded. The
    strata's member weights run on as one prefix sum, ``cumulative``
    (uint64), and stratum s, never empty, holds members
    ``strata[s]:strata[s + 1]``. Returns each draw's member, as an index
    into ``cumulative``.

    One ``searchsorted`` over ``cumulative`` finds every pick. A draw whose
    remaining total is 1 takes no draw of its stream, as ``randbelow(1)``
    takes none. A stream with a rejected draw is drawn again with
    ``Stream.pick_cumulative``.
    """
    cumulative = np.asarray(cumulative, dtype=np.uint64)
    before = np.concatenate(([np.uint64(0)], cumulative))  # mass before each member
    stratum = np.searchsorted(strata, member, side="right") - 1
    first, end = strata[stratum], strata[stratum + 1]
    base, lo, hi = before[first], before[member], before[member + 1]
    total = before[end] - base - (hi - lo)
    draws = (total > np.uint64(1)).astype(np.int64)
    taken = np.cumsum(draws) - draws  # draws taken before this one, over all streams
    k = taken - taken[np.searchsorted(stream, stream)]  # ... and in its own stream
    seeds = np.array(seeds, dtype=np.uint64).reshape(-1)
    r, rejected = below(seeds[stream], k, total)
    x = base + r
    x = np.where(x >= lo, x + (hi - lo), x)  # past the excluded member's weight
    chosen = np.searchsorted(cumulative, x, side="right")
    for s in sorted(set(stream[rejected].tolist())):
        scalar = Stream(int(seeds[s]))
        for d in np.flatnonzero(stream == s).tolist():
            a, b = int(first[d]), int(end[d])
            offset = int(before[a])
            local = [int(c) - offset for c in cumulative[a:b].tolist()]
            chosen[d] = a + scalar.pick_cumulative(local, exclude=int(member[d]) - a)
    return chosen
