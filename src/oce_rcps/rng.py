"""Portable deterministic random number generation.

Everything here is defined in terms of the splitmix64 algorithm so that a
reimplementation in another language can reproduce the exact streams.
Draw k = 1, 2, ... of the stream seeded by s is a pure function of (s, k):

  z <- (s + k * 0x9E3779B97F4A7C15) mod 2^64
  z <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9   (mod 2^64)
  z <- (z XOR (z >> 27)) * 0x94D049BB133111EB   (mod 2^64)
  draw_k <- z XOR (z >> 31)

which is the sequential splitmix64 stream (add the constant to the state,
then finalize) read at any offset, so callers take their draws as blocks.
Uniform doubles in [0, 1) take the top 53 bits: (draw >> 11) * 2^-53.

Substreams are derived with ``mix64(seed, index)``: run the splitmix64
finalizer on ``index + 1``, XOR into ``seed``, and finalize once more.
Beta variates use the inverse-CDF transform (one uniform per variate),
so the draw count per example is fixed and platform independent.
"""

from __future__ import annotations

import numpy as np
from scipy.special import betaincinv

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15


def _finalize(z):
    """The splitmix64 output function on a Python int or a uint64 array."""
    z = z & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix64(seed: int, index: int) -> int:
    """Derive a substream seed from (seed, index), both 64-bit."""
    return _finalize((seed ^ _finalize((index + 1) & _MASK64)) & _MASK64)


def draws(seed: int, skip: int, count: int) -> np.ndarray:
    """Draws skip + 1 .. skip + count of the stream seeded by seed, as uint64.
    Kept on arrays: there products wrap mod 2^64 silently, scalars warn."""
    k = np.arange(skip + 1, skip + count + 1, dtype=np.uint64)
    return _finalize(k * _GAMMA + (seed & _MASK64))


def uniforms(seed: int, skip: int, count: int) -> np.ndarray:
    """Draws skip + 1 .. skip + count as doubles in [0, 1)."""
    return (draws(seed, skip, count) >> 11) * 2.0 ** -53


def shuffle(items: list, seed: int) -> None:
    """In-place Fisher-Yates over the stream seeded by seed.

    Position i = n-1 .. 1 takes the next draw u below the largest multiple
    of i + 1 not above 2^64 and swaps with u mod (i + 1); the rejection
    keeps every index exactly uniform. A rejected draw is skipped, so the
    positions after it read the block extended by one draw."""
    bound = np.arange(len(items), 1, -1, dtype=np.uint64)
    top = _MASK64 - (_MASK64 % bound + 1) % bound  # largest accepted draw
    js = np.empty_like(bound)
    done = used = 0
    while done < bound.size:
        u = draws(seed, used, bound.size - done)
        rejected = np.flatnonzero(u > top[done:])
        take = int(rejected[0]) if rejected.size else u.size
        js[done:done + take] = u[:take] % bound[done:done + take]
        done += take
        used += take + (rejected.size > 0)
    for i, j in zip(range(len(items) - 1, 0, -1), js.tolist()):
        items[i], items[j] = items[j], items[i]


def beta_inverse_cdf(u, a, b) -> np.ndarray:
    """Beta(a, b) variates from uniforms via the regularized incomplete
    beta inverse. Vectorized over all arguments."""
    return betaincinv(a, b, u)
