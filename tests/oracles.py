"""Slow reference implementations that the library is checked against."""

import math

from oce_rcps.risk import empirical_objective


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
