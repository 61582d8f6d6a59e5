"""Properties of the one lab-frame map over the bench parameter box.

tube.frame_point is the only evaluation of M; bent_point, graph_point and
tube_map all reach the lab frame through it.  Each property is drawn over
kappa0 in [0.8, 1.2], tau0 in [0, 0.8], xi in [0.9, 1.2], delta
log-uniform in [1e-5, 3e-3], s in [-3, 3] and theta in [-pi, pi].
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from spiralforge import bent, helicoid, tube
from spiralforge.spirals import SpiralSpec

_C1 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0

specs = st.builds(
    lambda kappa0, tau0, xi, log_delta: SpiralSpec.from_invariants(
        kappa0, tau0, xi, 10.0 ** log_delta),
    st.floats(0.8, 1.2), st.floats(0.0, 0.8), st.floats(0.9, 1.2),
    st.floats(-5.0, float(np.log10(3e-3))))
s_values = st.floats(-3.0, 3.0)
theta_values = st.floats(-np.pi, np.pi)


def fd1(f, x, h=1e-3):
    return sum(c * f(x + k * h) for c, k in zip(_C1, range(-3, 4))) / h


@given(specs, s_values, theta_values)
def test_one_period_similarity(spec, s, theta):
    scale, rot = spec.similarity()
    later = bent.bent_point(spec, s, theta + 2.0 * np.pi)
    image = scale * rot @ bent.bent_point(spec, s, theta)
    assert np.linalg.norm(later - image) <= 1e-13 * np.linalg.norm(later)


@given(specs, st.floats(-6.0, 6.0))
def test_axis_norm(spec, z):
    got = np.linalg.norm(tube.tube_map(spec, 0.0, 0.0, z))
    want = (np.exp(spec.lam * z) / spec.lam
            * np.sqrt((spec.tau0 ** 2 + spec.xi ** 2) / (spec.rho0 ** 2 + spec.xi ** 2)))
    assert abs(got - want) <= 1e-12 * want


@given(specs, s_values, theta_values)
def test_bent_point_is_tube_of_helicoid(spec, s, theta):
    point = bent.bent_point(spec, s, theta)
    f = helicoid.reference_point(0.0, s, theta)
    via_tube = tube.tube_map(spec, f[0], f[1], f[2])
    assert np.linalg.norm(point - via_tube) <= 1e-15 * np.linalg.norm(point)
    flat_graph = bent.graph_point(spec, s, theta, 0.0, bent._gauged_normal(spec, s, theta))
    assert np.array_equal(flat_graph, point)


@given(specs, s_values, theta_values)
def test_first_jet_vs_fd(spec, s, theta):
    j = bent.bent_jet(spec, s, theta)
    assert np.abs(j.d1[0] - fd1(lambda t: bent.bent_point(spec, s, t), theta)).max() < 1e-6
    assert np.abs(j.d1[1] - fd1(lambda x: bent.bent_point(spec, x, theta), s)).max() < 1e-6
