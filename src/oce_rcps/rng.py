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

``permutation(n, seed)`` is defined as the sequential Durstenfeld shuffle
of the list 0 .. n-1 with rejection: for i = n-1 down to 1, read the
next draw u of the stream seeded by seed, reading again while
u >= 2^64 - (2^64 mod (i + 1)), the largest multiple of i + 1 not above
2^64; then swap the entries at i and u mod (i + 1). The rejection keeps
every index exactly uniform. How the swaps are applied is free; the
result must equal that loop's.
"""

from __future__ import annotations

import numpy as np

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


def _targets(n: int, seed: int) -> np.ndarray:
    """The swap target of each position 0 .. n-1, drawn as the shuffle of
    the module docstring draws them; position 0 swaps with itself.

    Positions n-1 .. 1 take the draws of one block. A draw below
    2^64 - (i + 1) is always below the largest accepted one, so the exact
    limit is worked out only for the draws at or above that; a rejected
    draw is skipped, so the positions after it read the block extended by
    one draw."""
    bound = np.arange(n, 1, -1, dtype=np.uint64)
    js = np.zeros(n, dtype=np.intp)  # by step: step s is position n-1-s
    done = used = 0
    while done < bound.size:
        u = draws(seed, used, bound.size - done)
        b = bound[done:]
        near = np.flatnonzero(u >= -b)  # -b wraps to 2^64 - b
        top = _MASK64 - (_MASK64 % b[near] + 1) % b[near]  # largest accepted draw
        rejected = near[u[near] > top]
        take = int(rejected[0]) if rejected.size else u.size
        js[done:done + take] = u[:take] % b[:take]
        done += take
        used += take + (rejected.size > 0)
    return js[::-1]


def _swapped(t: np.ndarray) -> np.ndarray:
    """The entries 0 .. n-1 after the loop that, for i = n-1 down to 1,
    swaps the entries at i and t[i] (0 <= t[i] <= i), with no Python loop
    per position.

    Position i is last written at its own step, with the value its target
    held just before it: the value the previous step targeting the same
    position carried there, or the target itself when none did. A step
    carries the value its own position held just before it: in turn the
    value of the last earlier step targeting that position, or the
    position itself. One argsort on the unique keys target * n + step
    groups the steps by target, in step order, with no tie for the sort
    kind to break; every carried value is then the root of a forest whose
    links point to earlier steps, found by pointer jumping in at most
    ceil(log2 n) + 1 rounds."""
    n = t.size
    pos = np.arange(n)
    if n == 0:
        return pos
    order = np.argsort(t * n + (n - 1 - pos))
    grouped = t[order]
    same = grouped[1:] == grouped[:-1]
    prev = np.empty_like(pos)  # the step before in its target's group, or itself
    prev[order[0]] = order[0]
    prev[order[1:]] = np.where(same, order[:-1], order[1:])
    # the last step targeting each position, all before its own step, or the
    # position itself, which then still holds its initial value. A self-swap
    # is the last of its own group, but no step reads the value it carries
    root = pos.copy()
    ends = np.flatnonzero(~same)
    root[grouped[ends]] = order[ends]
    root[grouped[-1]] = order[-1]
    while not np.array_equal(jumped := root[root], root):
        root = jumped
    return np.where(prev != pos, root[prev], t)


def permutation(n: int, seed: int) -> np.ndarray:
    """The entries 0 .. n-1 as the shuffle of the module docstring leaves
    them, as an intp array."""
    return _swapped(_targets(n, seed))


def beta_inverse_cdf(u, a, b) -> np.ndarray:
    """Beta(a, b) variates from uniforms via the regularized incomplete
    beta inverse. Vectorized over all arguments. scipy is imported here,
    not at module level, so a process that only reads data never loads it."""
    from scipy.special import betaincinv

    return betaincinv(a, b, u)
