import math
import tracemalloc

import numpy as np
import pytest

from mapflock.control import ControlParams
from mapflock.potentials import bump, phi_action, phi_uneven, sigma_scalar
from oracles import (
    closed_form_bump,
    closed_form_phi_action,
    closed_form_phi_uneven,
    sigma_norm,
)


class TestBump:
    def test_below_lower_cutoff(self):
        assert bump(0.0, 0.2, 1.0) == 1.0
        assert bump(0.19, 0.2, 1.0) == 1.0

    def test_beyond_upper_cutoff(self):
        assert bump(1.0, 0.2, 1.0) == 0.0
        assert bump(50.0, 0.2, 1.0) == 0.0

    def test_midpoint_is_half(self):
        # cos(pi/2) = 0 at the interval midpoint
        assert bump(0.6, 0.2, 1.0) == pytest.approx(0.5)
        assert bump(1.5, 1.0, 2.0) == pytest.approx(0.5)

    def test_continuous_on_dense_grid(self):
        # include both cutoffs in the grid
        z = np.sort(np.concatenate([np.linspace(0, 2, 20001), [0.2, 1.0]]))
        v = bump(z, 0.2, 1.0)
        assert np.max(np.abs(np.diff(v))) < 2e-3

    def test_monotone_non_increasing(self):
        z = np.linspace(0, 2, 5001)
        assert np.all(np.diff(bump(z, 0.2, 1.0)) <= 0)

    def test_degenerate_lower_cutoff_zero(self):
        assert bump(0.0, 0.0, 1.0) == 1.0
        assert bump(0.5, 0.0, 1.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("lower,upper", [(1.0, 1.0), (1.0, 0.5), (-0.1, 1.0)])
    def test_bad_cutoffs_rejected(self, lower, upper):
        with pytest.raises(ValueError):
            bump(0.5, lower, upper)

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            bump(-0.1, 0.2, 1.0)


class TestSigmaNorm:
    """The vector sigma-norm oracle and its gradient; the epsilon check."""

    def test_zero_input(self):
        value, grad = sigma_norm(np.zeros(2), 0.1)
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_scalar_twenty(self):
        value, _ = sigma_norm(20.0, 0.1)
        assert value == pytest.approx((math.sqrt(41.0) - 1.0) / 0.1, rel=1e-12)
        assert value == pytest.approx(54.03124, abs=1e-4)

    def test_positive_unless_zero(self):
        value, _ = sigma_norm(np.array([1e-3, 0.0]), 0.1)
        assert value > 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        eps = 0.1
        h = 1e-6
        for _ in range(100):
            v = rng.uniform(-50.0, 50.0, size=2)
            _, grad = sigma_norm(v, eps)
            fd = np.empty(2)
            for k in range(2):
                step = np.zeros(2)
                step[k] = h
                fd[k] = (sigma_norm(v + step, eps)[0] - sigma_norm(v - step, eps)[0]) / (2 * h)
            assert np.linalg.norm(grad - fd) <= 1e-6 * max(1.0, np.linalg.norm(fd))

    def test_gradient_finite_at_zero(self):
        _, grad = sigma_norm(np.zeros(2), 0.1)
        assert np.all(np.isfinite(grad))

    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            sigma_norm(np.ones(2), 0.0)
        with pytest.raises(ValueError):
            sigma_scalar(1.0, -1.0)


class TestPhiUneven:
    def test_root_at_zero(self):
        assert phi_uneven(0.0, 5.0, 5.0, 0.0) == 0.0

    def test_limits(self):
        assert phi_uneven(1e6, 5.0, 5.0, 0.0) == pytest.approx(5.0, abs=1e-6)
        assert phi_uneven(-1e6, 5.0, 5.0, 0.0) == pytest.approx(-5.0, abs=1e-6)

    def test_odd_symmetry_when_even(self):
        z = np.linspace(0.0, 30.0, 100)
        np.testing.assert_allclose(phi_uneven(-z, 5.0, 5.0, 0.0),
                                   -phi_uneven(z, 5.0, 5.0, 0.0), atol=1e-12)

    def test_strictly_increasing(self):
        z = np.linspace(-40, 40, 2000)
        assert np.all(np.diff(phi_uneven(z, 5.0, 3.0, 0.25)) > 0)

    def test_bad_scales(self):
        with pytest.raises(ValueError):
            phi_uneven(0.0, 0.0, 5.0, 0.0)


class TestPotentialParams:
    """The action-potential constants, which ControlParams holds and checks."""

    def test_c_is_derived(self):
        p = ControlParams(a=5.0, b=5.0)
        assert p.c == 0.0
        q = ControlParams(a=8.0, b=2.0)
        assert q.c == pytest.approx(-6.0 / 8.0)
        # derived c places the sigmoid root at zero
        assert phi_uneven(0.0, q.a, q.b, q.c) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("kwargs", [
        {"epsilon": 0.0}, {"a": -1.0}, {"gamma": 0.0}, {"gamma": 1.0},
        {"d": 30.0, "r": 24.0}, {"d": 0.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ControlParams(**kwargs)


class TestPhiAction:
    def setup_method(self):
        self.params = ControlParams()  # eps=0.1, a=b=5, d=20, r=24

    def test_zero_at_desired_spacing(self):
        assert phi_action(self.params.d_sigma, self.params) == pytest.approx(0.0, abs=1e-12)
        assert self.params.d_sigma == pytest.approx(54.0312, abs=1e-3)

    def test_zero_at_and_beyond_range(self):
        r_sigma = self.params.r_sigma
        assert r_sigma == pytest.approx((math.sqrt(1 + 0.1 * 24 ** 2) - 1) / 0.1, rel=1e-12)
        assert phi_action(r_sigma, self.params) == 0.0
        assert phi_action(r_sigma + 10.0, self.params) == 0.0

    def test_repulsive_below_spacing(self):
        assert phi_action(40.0, self.params) < 0.0

    def test_attractive_between_spacing_and_cutoff(self):
        z = np.linspace(self.params.d_sigma + 1e-9, self.params.r_sigma, 200)
        assert np.all(phi_action(z, self.params) >= 0.0)

    def test_single_sign_change_at_spacing(self):
        # bisection on (0, r_sigma): the only root of the sigmoid factor is d_sigma
        lo, hi = 1e-6, self.params.r_sigma - 1e-6
        assert phi_action(lo, self.params) < 0 < phi_action(hi, self.params)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if phi_action(mid, self.params) < 0:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(self.params.d_sigma, abs=1e-9)
        z = np.linspace(1e-6, self.params.r_sigma, 5000)
        signs = np.sign(phi_action(z, self.params))
        assert np.count_nonzero(np.diff(signs[signs != 0])) == 1

    def test_pure_function_bit_identical(self):
        z = np.linspace(0, 80, 500)
        first = phi_action(z, self.params)
        second = phi_action(z, self.params)
        assert np.array_equal(first, second)

    def test_negative_sigma_distance_rejected(self):
        with pytest.raises(ValueError):
            phi_action(-1.0, self.params)


def around(*points):
    """Each point and its neighbouring floats on either side, then NaN."""
    points = np.asarray(points, dtype=float)
    return np.concatenate([np.nextafter(points, -np.inf), points,
                           np.nextafter(points, np.inf), [np.nan]])


def non_negative(z):
    return z[~(z < 0.0)]


def assert_same_bits(got, want):
    assert type(got) is type(want)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def assert_same_bits_everywhere(kernel, oracle, points, grid):
    """Scalars, 0-d arrays, a dense array and two strided views of it."""
    for x in points:
        assert_same_bits(kernel(float(x)), oracle(float(x)))
        assert_same_bits(kernel(np.array(x)), oracle(np.array(x)))
    z = np.concatenate([points, grid])
    for view in (z, z[::3], z[:20000].reshape(200, 100).T):
        assert_same_bits(kernel(view), oracle(view))


ACTION_PARAMS = (ControlParams(), ControlParams(a=8.0, b=2.0, gamma=0.35))


class TestAgainstClosedForm:
    """The in-place kernels against the closed-form expressions of the
    oracle: equal values, NaN where it is NaN, and equal sign bits."""

    @pytest.mark.parametrize("lower,upper", [(0.2, 1.0), (0.0, 1.0), (1.0, 2.0)])
    def test_bump(self, lower, upper):
        assert_same_bits_everywhere(lambda z: bump(z, lower, upper),
                                    lambda z: closed_form_bump(z, lower, upper),
                                    non_negative(around(0.0, lower, upper, 1e150)),
                                    np.linspace(0.0, 2.0 * upper, 20001))

    @pytest.mark.parametrize("a,b", [(5.0, 5.0), (8.0, 2.0), (2.0, 8.0)])
    def test_phi_uneven(self, a, b):
        c = ControlParams(a=a, b=b).c
        points = np.append(around(-c, 0.0, 1e150, -1e150), -0.0)
        assert_same_bits_everywhere(lambda z: phi_uneven(z, a, b, c),
                                    lambda z: closed_form_phi_uneven(z, a, b, c),
                                    points, np.linspace(-60.0, 60.0, 20001))

    @pytest.mark.parametrize("p", ACTION_PARAMS)
    def test_phi_action(self, p):
        assert_same_bits_everywhere(lambda z: phi_action(z, p),
                                    lambda z: closed_form_phi_action(z, p),
                                    non_negative(around(0.0, p.d_sigma, p.gamma * p.r_sigma,
                                                        p.r_sigma, 1e150)),
                                    np.linspace(0.0, 2.0 * p.r_sigma, 20001))

    def test_inputs_unchanged(self):
        p = ACTION_PARAMS[1]
        z = np.concatenate([around(p.d_sigma, p.r_sigma), np.linspace(0.0, 80.0, 501)])
        before = z.copy()
        for out in (bump(z, p.gamma, p.r_sigma), phi_uneven(z, p.a, p.b, p.c),
                    phi_action(z, p)):
            assert not np.shares_memory(out, z)
        assert np.array_equal(z, before, equal_nan=True)

    def test_phi_action_holds_at_most_three_pair_arrays(self):
        p = ACTION_PARAMS[0]
        z = np.linspace(0.0, 1.2 * p.r_sigma, 3000)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            phi_action(z, p)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 3 * z.nbytes
