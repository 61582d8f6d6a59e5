"""Logarithmic spirals, their moving frames, and the invariant normal form.

Two descriptions of the same curve family live here:

* the closed-form three-parameter spiral ``spiral_point`` with exponent a,
  vertical rate b and angular rate c, whose arc length, curvature and torsion
  are known in closed form (``spiral_invariants``);
* the frame description: an antisymmetric generator matrix drives an
  orthonormal frame e'(z) = delta * R e(z), and the curve integrates
  gamma'(z) = exp(delta * xi * z) e_3(z).

``invariants_to_spiral`` converts prescribed initial curvature/torsion and
growth rate into the first description; ``SpiralSpec`` packages the second
and anchors the curve at the fixed point of its one-period similarity,
gamma(0) = (lam I + delta R)^-1 e_3 in closed form, so that the similarity
acts about the origin with no translation part.  That |gamma(z)| then equals
the normal form's closed-form axis norm is an identity the tests check.

Torsion follows the classical sign convention tau = (g' x g'') . g''' /
|g' x g''|^2 throughout.
"""

import math
from dataclasses import dataclass, field

import numpy as np

_EPS_A = 1e-12


# ---------------------------------------------------------------------------
# closed-form spirals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpiralParams:
    a: float
    b: float
    c: float


def spiral_point(params, t):
    """Point(s) of the spiral; t may be an array.

    For |a| below 1e-12 the vertical term degenerates and the
    translation-adjusted limit b * t * e_z is used instead, matching the
    derivative formulas which are regular at a = 0.
    """
    a, b, c = params.a, params.b, params.c
    t = np.asarray(t, dtype=float)
    if abs(a) < _EPS_A:
        radial = 1.0
        vert = b * t
    else:
        radial = np.exp(a * t)
        vert = (b / a) * radial
    return np.stack([radial * np.cos(c * t), radial * np.sin(c * t),
                     vert * np.ones_like(t)], axis=-1)


def spiral_invariants(params, t):
    """(speed, curvature, torsion) of the spiral at parameter t."""
    a, b, c = params.a, params.b, params.c
    n2 = a * a + b * b + c * c
    if n2 == 0.0:
        raise ValueError("spiral parameters must not all vanish")
    t = np.asarray(t, dtype=float)
    grow = np.exp(a * t)
    speed = np.sqrt(n2) * grow
    kappa = np.sqrt(a * a * c * c + c ** 4) / n2 / grow
    tau = b * c / n2 / grow
    return speed, kappa, tau


def invariants_to_spiral(kappa0, tau0, xi):
    """Parameters and scale of the curve with ds = e^{xi z} dz and
    curvature/torsion kappa0 e^{-xi z}, tau0 e^{-xi z}.

    Returns (params, scale); the scaled spiral scale * spiral_point(params, z)
    realizes the prescribed invariants, uniquely up to rigid motion.
    """
    if kappa0 <= 0.0:
        raise ValueError("kappa0 must be positive")
    a = float(xi)
    c = float(np.hypot(kappa0, tau0))
    b = (tau0 / kappa0) * float(np.sqrt(kappa0 ** 2 + tau0 ** 2 + xi ** 2))
    return SpiralParams(a, b, c), 1.0 / float(np.sqrt(a * a + b * b + c * c))


# ---------------------------------------------------------------------------
# antisymmetric generators
# ---------------------------------------------------------------------------

def skew(w):
    """3x3 antisymmetric matrix with R v = w x v."""
    w = np.asarray(w, dtype=float)
    return np.array([[0.0, -w[2], w[1]],
                     [w[2], 0.0, -w[0]],
                     [-w[1], w[0], 0.0]])


def frenet_generator(kappa0, tau0):
    """Generator whose frame is the Frenet frame of its own curve.

    The frame rotates about the fixed axis (0, kappa0, tau0) / rho0; the
    spiral's discrete dilation acts by exactly this rotation, which is what
    makes the solved surfaces inherit the similarity.
    """
    if kappa0 <= 0.0:
        raise ValueError("kappa0 must be positive")
    return skew([0.0, float(kappa0), float(tau0)])


def matrix_invariants(r_mat):
    """(kappa0, tau0) of the curve generated by an antisymmetric matrix.

    kappa0 = |R e_3|; tau0 is the classical torsion, which is the negative of
    the triple-product pairing <e_3 ^ R^2 e_3, R e_3> / kappa0^2 (that pairing
    computes B' . N, i.e. minus the standard torsion).
    """
    r_mat = np.asarray(r_mat, dtype=float)
    bad = r_mat[~np.isfinite(r_mat)]
    if bad.size:
        raise ValueError(f"generator entry {bad[0]} must be finite")
    scale = max(np.abs(r_mat).max(), 1.0)
    e3 = np.array([0.0, 0.0, 1.0])
    # tau0 takes a cube of the entries; an overflow is an error here, not a warning
    with np.errstate(over="raise", invalid="raise"):
        try:
            if np.abs(r_mat + r_mat.T).max() > 1e-12 * scale:
                raise ValueError("generator must be antisymmetric")
            re3 = r_mat @ e3
            kappa0 = float(np.linalg.norm(re3))
            if kappa0 <= 1e-14 * scale:
                raise ValueError("degenerate axis: R e_3 = 0 gives a straight line")
            tau0 = -float(np.dot(np.cross(e3, r_mat @ re3), re3)) / kappa0 ** 2
        except (FloatingPointError, OverflowError):
            raise ValueError(f"generator entries up to {scale:g} overflow its "
                             f"invariants (kappa0, tau0)") from None
    return kappa0, tau0 + 0.0


def _rodrigues(axis, angle):
    """Rotation(s) by `angle` (array ok) about the unit vector `axis`."""
    angle = np.asarray(angle, dtype=float)
    k = skew(axis)
    k2 = k @ k
    eye = np.eye(3)
    return (eye + np.sin(angle)[..., None, None] * k
            + (1.0 - np.cos(angle))[..., None, None] * k2)


# ---------------------------------------------------------------------------
# the frame-generated curve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpiralSpec:
    """Generator matrix, growth rate xi, and slowness delta, plus derived data.

    The trivial generator (R = 0) is only admitted with allow_trivial=True;
    it degenerates the curve to a straight line and exists for flat test
    rigs, not for production solves.
    """

    r_mat: np.ndarray
    delta: float
    xi: float
    allow_trivial: bool = False
    kappa0: float = field(init=False)
    tau0: float = field(init=False)
    rho0: float = field(init=False)
    anchor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        r = np.asarray(self.r_mat, dtype=float)
        object.__setattr__(self, "r_mat", r)
        for name, value in (("delta", self.delta), ("xi", self.xi)):
            if not np.isfinite(value):
                raise ValueError(f"{name} = {value} must be finite")
        if self.delta <= 0.0:
            raise ValueError("delta must be positive")
        # matrix_invariants rejects a non-finite, non-antisymmetric or
        # overflowing non-zero generator
        if np.abs(r).max() == 0.0:
            if not self.allow_trivial:
                raise ValueError("trivial generator: pass allow_trivial=True "
                                 "only for flat test rigs")
            kappa0 = tau0 = 0.0
        else:
            kappa0, tau0 = matrix_invariants(r)
            # input checks: the normal form (invariants_to_spiral, the spiral
            # table) squares xi^2 + rho0^2, and delta^2 (a^2 + b^2 + c^2)
            # bounds the lam^2 + (delta |R|)^2 that gamma and the anchor divide by
            xi = float(self.xi)
            if not math.isfinite(xi * xi + kappa0 * kappa0 + tau0 * tau0):
                raise ValueError(f"xi = {xi:g} is too large: xi^2 + kappa0^2 "
                                 f"+ tau0^2 overflows")
            params, _ = invariants_to_spiral(kappa0, tau0, xi)
            rate = float(self.delta) * math.hypot(params.a, params.b, params.c)
            if not math.isfinite(rate * rate):
                raise ValueError(f"delta = {self.delta:g} is too large: "
                                 f"delta^2 (a^2 + b^2 + c^2) overflows")
            # gamma divides by lam^2 + mu^2, the squared growth and rotation
            # rates; below the smallest normal float the curve is nan or inf
            lam, mu = self.lam, self.delta * self.r_norm
            if not lam * lam + mu * mu >= np.finfo(float).tiny:
                raise ValueError(f"delta = {self.delta:g} is too small: (delta xi)^2 "
                                 f"+ (delta |R|)^2 underflows")
        object.__setattr__(self, "kappa0", kappa0)
        object.__setattr__(self, "tau0", tau0)
        object.__setattr__(self, "rho0", float(np.hypot(kappa0, tau0)))
        object.__setattr__(self, "anchor", self._anchor())

    @classmethod
    def from_invariants(cls, kappa0, tau0, xi, delta):
        return cls(frenet_generator(kappa0, tau0), float(delta), float(xi))

    # -- derived constants ---------------------------------------------------

    @property
    def omega(self):
        """The rotation vector w with R = skew(w)."""
        return np.array([self.r_mat[2, 1], self.r_mat[0, 2], self.r_mat[1, 0]])

    @property
    def r_norm(self):
        """Spectral norm of the generator (its rotation rate)."""
        return float(np.linalg.norm(self.omega))

    @property
    def lam(self):
        """Exponential rate delta * xi of the dilation gauge."""
        return self.delta * self.xi

    @property
    def b_mat(self):
        """delta * (xi I + R): the derivative of e^{delta xi z} e(z)."""
        return self.delta * (self.xi * np.eye(3) + self.r_mat)

    @property
    def trivial(self):
        return self.rho0 == 0.0

    # -- frame, rotation, curve ----------------------------------------------

    def frame(self, z):
        """Orthonormal frame columns (e_1, e_2, e_3) at z; z may be an array."""
        if self.trivial:
            z = np.asarray(z, dtype=float)
            return np.broadcast_to(np.eye(3), z.shape + (3, 3)).copy()
        axis = self.omega / self.r_norm
        return _rodrigues(axis, self.delta * self.r_norm * np.asarray(z, dtype=float))

    def _gamma_raw(self, z):
        """Integral of e^{delta xi t} e_3(t) from 0 to z, in closed form."""
        z = np.asarray(z, dtype=float)
        lam = self.lam
        if lam == 0.0:
            i0 = z + 0.0
        else:
            i0 = np.expm1(lam * z) / lam
        e3 = np.array([0.0, 0.0, 1.0])
        if self.trivial:
            return np.multiply.outer(i0, e3)
        mu = self.delta * self.r_norm
        denom = lam * lam + mu * mu
        e_lz = np.exp(lam * z)
        i_sin = (e_lz * (lam * np.sin(mu * z) - mu * np.cos(mu * z)) + mu) / denom
        i_cos = (e_lz * (lam * np.cos(mu * z) + mu * np.sin(mu * z)) - lam) / denom
        k = skew(self.omega / self.r_norm)
        v1 = k @ e3
        v2 = k @ v1
        return (np.multiply.outer(i0, e3) + np.multiply.outer(i_sin, v1)
                + np.multiply.outer(i0 - i_cos, v2))

    def _anchor(self):
        """gamma(0): the fixed point (lam I + delta R)^-1 e_3 of the
        similarity, so that gamma(z + 2 pi) = scale * rotation @ gamma(z)
        with no translation part, for every antisymmetric generator.

        With w the rotation axis, c = e_3 . w and v = e_3 - c w, it is
        c w / lam along w and (lam v - delta R v) / (lam^2 + (delta |R|)^2)
        on the plane normal to w.  Below |lam| = _EPS_A (the helix limit)
        the axial part is left out: each period then translates along w.
        """
        if self.trivial:
            return np.zeros(3)
        w = self.omega / self.r_norm
        c = w[2]
        v = np.array([0.0, 0.0, 1.0]) - c * w
        lam, mu = self.lam, self.delta * self.r_norm
        plane = (lam * v - self.delta * (self.r_mat @ v)) / (lam * lam + mu * mu)
        return plane if abs(lam) < _EPS_A else plane + (c / lam) * w

    def gamma(self, z):
        return self._gamma_raw(z) + self.anchor

    def similarity(self, p=1):
        """(scale, rotation) of the p-period action gamma(z + 2 pi p) =
        scale * rotation @ gamma(z), exact for every antisymmetric generator:
        (exp(2 pi lam p), frame(2 pi p)).  p may be an array of periods; the
        scales then have its shape and the rotations its shape + (3, 3)."""
        p = np.asarray(p, dtype=float)
        return np.exp(2.0 * np.pi * self.lam * p), self.frame(2.0 * np.pi * p)
