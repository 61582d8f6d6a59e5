"""Jet-level differential geometry of immersed surfaces in R^3.

A jet bundles the first and second partial derivatives of a map R^2 -> R^3
at a point.  The quantities computed here -- conformality ratio, unit
normal, mean curvature -- are homogeneous in the jet, which is what makes
the Taylor-remainder machinery at the bottom of this module work: the k-th
directional derivative of a degree-d quantity is degree d - k, so
remainders along a variation scale like the (k+1)-st power of its size.

Conventions
-----------
* ``d1`` has shape (..., 2, 3): the two first partials.  For the surface maps
  built elsewhere in this package the slot order is (theta, s); with that
  order the induced normal of the standard helicoid points along -e_x at the
  origin and has vertical component tanh(s).
* ``d2`` has shape (..., 4, 3) ordered (11, 22, 12, 21).
* Mean curvature is the trace of the shape operator (sum of principal
  curvatures) with respect to the normal d1[0] x d1[1] / |.|; the graph of
  the upper unit hemisphere, packed with slots (x, y), gets H = -2.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidImmersionError, InvalidVariationError
from .numerics import fd_weights

# Jets with conformality ratio below this are treated as non-immersed.
ASPECT_FLOOR = 1e-10


@dataclass(frozen=True)
class Jet:
    d1: np.ndarray
    d2: np.ndarray

    def __add__(self, other):
        return Jet(self.d1 + other.d1, self.d2 + other.d2)

    def scaled(self, c):
        return Jet(c * self.d1, c * self.d2)

    def norm(self):
        """Euclidean norm of all stored components."""
        return np.sqrt(np.sum(self.d1 ** 2, axis=(-2, -1))
                       + np.sum(self.d2 ** 2, axis=(-2, -1)))


# A variation has the same component layout as a jet but need not be immersed.
Variation = Jet


def jet_from_arrays(g1, g2, g11, g22, g12):
    """Pack partials (slot order: 1 then 2) into a Jet, broadcasting batch dims."""
    return Jet(np.stack([g1, g2], axis=-2), np.stack([g11, g22, g12, g12], axis=-2))


def metric(jet):
    """Components (g11, g12, g22) of the first fundamental form."""
    v1 = jet.d1[..., 0, :]
    v2 = jet.d1[..., 1, :]
    g11 = np.einsum("...i,...i->...", v1, v1)
    g22 = np.einsum("...i,...i->...", v2, v2)
    g12 = np.einsum("...i,...i->...", v1, v2)
    return g11, g12, g22


def aspect_ratio(jet):
    """Conformality ratio 2 sqrt(det g) / |d1|^2, in [0, 1].

    Equals 1 exactly on conformal jets (equal-length orthogonal partials) and
    0 on rank-deficient ones.  Raises on an identically-zero first jet.
    """
    g11, g12, g22 = metric(jet)
    denom = g11 + g22
    if np.any(denom == 0.0):
        raise InvalidImmersionError("zero first-order jet")
    det = np.maximum(g11 * g22 - g12 * g12, 0.0)
    return 2.0 * np.sqrt(det) / denom


def unit_normal(jet):
    """Unit normal d1[0] x d1[1] normalized; homogeneous of degree 0."""
    a = aspect_ratio(jet)
    if np.any(a < ASPECT_FLOOR):
        raise InvalidImmersionError("jet is not an immersion (aspect ratio ~ 0)")
    n = np.cross(jet.d1[..., 0, :], jet.d1[..., 1, :])
    return n / np.linalg.norm(n, axis=-1, keepdims=True)


def mean_curvature(jet):
    """Sum of principal curvatures; homogeneous of degree -1.  a11 ... a21
    are the second fundamental form's components, d2 against the normal."""
    g11, g12, g22 = metric(jet)
    nu = unit_normal(jet)
    a11, a22, a12, a21 = (np.einsum("...i,...i->...", jet.d2[..., k, :], nu) for k in range(4))
    det = g11 * g22 - g12 * g12
    return (g22 * a11 - g12 * (a12 + a21) + g11 * a22) / det


_QUANTITIES = {
    "aspect_ratio": aspect_ratio,
    "mean_curvature": mean_curvature,
}


def _resolve_quantity(phi):
    if callable(phi):
        return phi
    try:
        return _QUANTITIES[phi]
    except KeyError:
        raise KeyError(f"unknown homogeneous quantity {phi!r}; "
                       f"expected one of {sorted(_QUANTITIES)} or a callable")


def _path_step(jet, variation):
    # Step of the path parameter sized so sigma * variation moves the jet by
    # about 1e-3 of its own scale; clamped to keep stencils inside [0, 1]-ish.
    jn = float(jet.norm())
    en = float(variation.norm())
    return min(max(1e-3 * jn / en, 1e-7), 0.05)


def _check_path(jet, variation, lo, hi):
    for sigma in np.linspace(lo, hi, 41):
        probe = jet + variation.scaled(sigma)
        try:
            a = aspect_ratio(probe)
        except InvalidImmersionError:
            raise InvalidVariationError(f"path leaves immersion set at sigma={sigma:.3f}")
        if np.any(a < ASPECT_FLOOR):
            raise InvalidVariationError(f"path leaves immersion set at sigma={sigma:.3f}")


def directional_derivative(phi_fn, jet, variation, order, h):
    """FD directional derivative d^k/dsigma^k Phi(jet + sigma * variation) at 0.

    Symmetric nine-point stencil of step h > 0, so the accuracy order is at
    least 4 for every k <= 3 used here.
    """
    offsets = np.arange(-4, 5)
    wts = fd_weights(offsets * h, 0.0, order)[:, order]
    vals = [phi_fn(jet + variation.scaled(k * h)) for k in offsets]
    return float(np.dot(wts, vals))


def taylor_remainder(phi, jet, variation, k):
    """Order-k Taylor remainder of Phi along the variation.

    Returns Phi(jet + variation) minus the degree-k Taylor polynomial at the
    jet, with directional derivatives computed by finite differences in the
    path parameter.  Scales like |variation|^(k+1) for small variations.
    """
    phi_fn = _resolve_quantity(phi)
    if float(variation.norm()) == 0.0:
        return 0.0
    h = _path_step(jet, variation)
    _check_path(jet, variation, -4.0 * h, 1.0)
    total = float(phi_fn(jet + variation)) - float(phi_fn(jet))
    for i in range(1, k + 1):
        total -= directional_derivative(phi_fn, jet, variation, i, h) / math.factorial(i)
    return total


def taylor_remainder_integral(phi, jet, variation, k, n_quad=48):
    """Independent route to the same remainder: the integral form.

    Integrates (1 - sigma)^k / k! times the (k+1)-st path derivative over
    sigma in [0, 1] with Gauss-Legendre quadrature.  Used as an oracle for
    taylor_remainder; the two must agree to quadrature tolerance.
    """
    phi_fn = _resolve_quantity(phi)
    if float(variation.norm()) == 0.0:
        return 0.0
    h = _path_step(jet, variation)
    _check_path(jet, variation, -4.0 * h, 1.0 + 4.0 * h)
    nodes, weights = np.polynomial.legendre.leggauss(n_quad)
    sig = 0.5 * (nodes + 1.0)
    offsets = np.arange(-4, 5)
    wts = fd_weights(offsets * h, 0.0, k + 1)[:, k + 1]
    total = 0.0
    for s_i, w_i in zip(sig, 0.5 * weights):
        vals = [phi_fn(jet + variation.scaled(s_i + m * h)) for m in offsets]
        deriv = float(np.dot(wts, vals))
        total += w_i * (1.0 - s_i) ** k / math.factorial(k) * deriv
    return total
