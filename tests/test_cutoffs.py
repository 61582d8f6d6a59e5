import numpy as np
import pytest

from spiralforge.cutoffs import Cutoff, _profile


def test_partition_of_unity():
    t = np.linspace(-5, 5, 4001)
    total = Cutoff(1.0, 2.0).jet(t)[0] + Cutoff(2.0, 1.0).jet(t)[0]
    assert np.abs(total - 1.0).max() < 1e-15


def test_plateaus_exact():
    c = Cutoff(1.0, 2.0)
    assert c.jet(0.9)[0] == 0.0
    assert c.jet(2.1)[0] == 1.0
    # transition confined to the middle third
    assert c.jet(4.0 / 3.0 - 1e-9)[0] == 0.0
    assert c.jet(5.0 / 3.0 + 1e-9)[0] == 1.0
    assert c.breakpoints() == (1.0, 4.0 / 3.0, 5.0 / 3.0, 2.0)


def test_midpoint_and_oddness():
    assert abs(_profile(0.0)[0] - 0.5) < 1e-15
    t = np.linspace(-1, 1, 101)
    assert np.abs(_profile(t)[0] + _profile(-t)[0] - 1.0).max() < 1e-15


def test_monotone():
    t = np.linspace(-1.5, 1.5, 500)
    v = _profile(t)[0]
    assert np.all(np.diff(v) >= -1e-16)


@pytest.mark.parametrize("t0", [1.4, 1.5, 1.62])
def test_derivatives_match_fd(t0):
    c = Cutoff(1.0, 2.0)
    h = 1e-6
    fd1 = (c.jet(t0 + h)[0] - c.jet(t0 - h)[0]) / (2 * h)
    fd2 = (c.jet(t0 + h)[0] - 2 * c.jet(t0)[0] + c.jet(t0 - h)[0]) / h ** 2
    assert abs(fd1 - c.jet(t0)[1]) < 1e-6 * max(1.0, abs(c.jet(t0)[1]))
    assert abs(fd2 - c.jet(t0)[2]) < 1e-3 * max(1.0, abs(c.jet(t0)[2]))


def test_descending_order_flips():
    c = Cutoff(2.0, 1.0)  # 1 near t = 1, 0 near t = 2
    assert c.jet(0.9)[0] == 1.0
    assert c.jet(2.1)[0] == 0.0
    assert c.breakpoints() == (2.0, 5.0 / 3.0, 4.0 / 3.0, 1.0)


def test_even_cutoff_symmetry():
    s = np.linspace(-4, 4, 801)
    v, d1, d2 = Cutoff(1.0, 2.0).even_jet(s)
    # mirrored grid values agree to roundoff of the |s| evaluation
    assert np.abs(v - v[::-1]).max() < 1e-13
    assert np.abs(d1 + d1[::-1]).max() < 1e-12
    assert np.abs(d2 - d2[::-1]).max() < 1e-10


def test_equal_endpoints_rejected():
    with pytest.raises(ValueError):
        Cutoff(1.0, 1.0)
