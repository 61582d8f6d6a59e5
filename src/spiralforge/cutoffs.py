"""Smooth cutoff functions with exact 0/1 plateaus.

The base profile rises from 0 to 1 across [-1, 1], is non-decreasing, and its
shift by -1/2 is odd.  ``Cutoff(a, b)`` rescales it so the transition sits in
the middle third of [a, b]: the value is exactly 0 near a and exactly 1 near
b, and the values of Cutoff(a, b) and Cutoff(b, a) sum to 1 pointwise.
``Cutoff.jet`` gives the value with its first and second derivatives in
closed form, from one evaluation of the profile, which the helicoid module
needs to evaluate substitute-kernel images without differencing across the
band, and ``Cutoff.even_jet`` the same at |s| for radial cutoffs.
``Cutoff.breakpoints`` gives where the band starts and ends, so the
transition's placement is known only to this module.
"""

from dataclasses import dataclass

import numpy as np


def _bump(x):
    """(b, b', b'') of b = exp(-1/x) extended by 0 for x <= 0; smooth on all of R."""
    x = np.asarray(x, dtype=float)
    b, b1, b2 = np.zeros_like(x), np.zeros_like(x), np.zeros_like(x)
    pos = x > 0
    xp = x[pos]
    e = np.exp(-1.0 / xp)
    b[pos] = e
    b1[pos] = e / xp ** 2
    b2[pos] = e * (1.0 - 2.0 * xp) / xp ** 4
    return b, b1, b2


def _profile(t):
    """The unit transition p / (p + q) and its first two derivatives."""
    t = np.asarray(t, dtype=float)
    p, pp, ppp = _bump(1.0 + t)
    q, q1, qpp = _bump(1.0 - t)
    qp = -q1
    d = p + q
    dp = pp + qp
    dpp = ppp + qpp
    return (p / d, (pp * d - p * dp) / d ** 2,
            ppp / d - (2.0 * pp * dp + p * dpp) / d ** 2 + 2.0 * p * dp ** 2 / d ** 3)


@dataclass(frozen=True)
class Cutoff:
    """Smooth transition that is 0 near a and 1 near b (a != b, either order)."""

    a: float
    b: float

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError("cutoff endpoints must differ")

    def jet(self, t):
        """(value, d/dt, d2/dt2) at t."""
        # Affine map sending a -> -3, b -> 3; |arg| <= 1 is the transition band.
        arg = -3.0 + 6.0 * (np.asarray(t, dtype=float) - self.a) / (self.b - self.a)
        v, v1, v2 = _profile(arg)
        return v, v1 * 6.0 / (self.b - self.a), v2 * 36.0 / (self.b - self.a) ** 2

    def even_jet(self, s):
        """jet at |s| with full s-derivatives: (value, d/ds, d2/ds2).

        For radial cutoffs psi(|s|); the chain rule through |s| is safe
        because every such cutoff is constant in a neighbourhood of s = 0.
        """
        v, v1, v2 = self.jet(np.abs(s))
        return v, np.sign(s) * v1, v2

    def breakpoints(self):
        """(a, band start, band end, b): the t that jet's affine map sends to
        -3, -1, 1, 3, in the order from a to b."""
        # this form, not a + (b - a) (x + 3) / 6, gives 4/3 and 5/3 for
        # (1, 2) exactly
        return tuple((self.a * (3.0 - x) + self.b * (3.0 + x)) / 6.0
                     for x in (-3.0, -1.0, 1.0, 3.0))

