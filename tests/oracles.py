"""Slow reference implementations that the library is checked against."""

import math

import numpy as np

from oce_rcps.datagen import GeneratorParams
from oce_rcps.risk import ScoredExample, empirical_objective
from oce_rcps.rng import _GAMMA, _MASK64, _finalize, beta_inverse_cdf


def golden_section_minimize(f, lo: float, hi: float, tol: float = 1e-6) -> float:
    """Minimize a unimodal f on [lo, hi] to bracket width tol."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def golden_section_t(opt_losses, cost) -> float:
    """Numerical minimizer of t + mean phi(loss - t) over t in [0, 1]."""
    return golden_section_minimize(lambda t: empirical_objective(opt_losses, cost, t), 0.0, 1.0)


class SplitMix64:
    """Sequential splitmix64 stream."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _finalize(self._state)

    def next_float(self) -> float:
        return (self.next_uint64() >> 11) * 2.0 ** -53

    def next_floats(self, count: int) -> np.ndarray:
        return np.array([self.next_float() for _ in range(count)])

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates using next_uint64 modulo rejection."""
        n = len(items)
        for i in range(n - 1, 0, -1):
            # rejection sampling keeps the index distribution exactly uniform
            bound = i + 1
            limit = (2**64 // bound) * bound
            while True:
                u = self.next_uint64()
                if u < limit:
                    break
            j = u % bound
            items[i], items[j] = items[j], items[i]


def generate_example(params: GeneratorParams, sub_seed: int) -> ScoredExample:
    """One generated example, drawing from the sequential stream in order."""
    stream = SplitMix64(sub_seed)
    d = float(beta_inverse_cdf(stream.next_float(), params.difficulty_a, params.difficulty_b))
    for _ in range(10_000):
        positive = np.array([stream.next_float() < params.rho for _ in range(params.m)])
        if positive.any():
            break
    else:
        raise RuntimeError("membership resampling did not terminate")
    u = stream.next_floats(params.m)
    k = params.sharpness
    a = np.where(positive, 1.0 + k * (1.0 - d), 1.5)
    b = np.where(positive, 1.0 + k * d, 1.0 + k * (1.0 - d))
    scores = np.clip(beta_inverse_cdf(u, a, b), 0.0, 1.0)
    return ScoredExample(scores, frozenset(np.flatnonzero(positive).tolist()))
