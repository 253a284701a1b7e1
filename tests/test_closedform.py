import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as quad1d

from stabletau.closedform import (
    BallSpec,
    C_K,
    StableParams,
    W_SHIFT,
    aux_w,
    aux_w_hess,
    aux_w_hess_det,
    ball_exit_constant,
    ball_phi,
    disk_exit_radial_cdf,
    disk_h,
    disk_poisson_density,
    eps_quadratic,
    EPS_QUADRATIC_HESS,
    kernel_K,
    kernel_K_grad,
    kernel_K_hess,
    kernel_K_hess_components,
)
from stabletau.errors import (
    BadGeometryError,
    BelowPoleError,
    OriginSingularError,
    OutsideBallError,
)


def test_ball_phi_cauchy_center():
    # C_B = 2/pi for the planar Cauchy process
    assert ball_phi(StableParams(1.0, 2), 1.0, [0.0, 0.0]) == \
        pytest.approx(2.0 / math.pi, rel=1e-14)


def test_ball_phi_boundary_zero():
    for alpha, d in [(0.7, 2), (1.0, 3), (1.6, 2), (2.0, 2)]:
        x = np.zeros(d)
        x[0] = 1.0
        assert ball_phi(StableParams(alpha, d), 1.0, x) == 0.0


def test_ball_phi_brownian():
    # Gamma(1) = Gamma(2) = 1 gives C_B = 1/4 for alpha = 2, d = 2
    assert ball_exit_constant(StableParams(2.0, 2)) == pytest.approx(0.25, rel=1e-14)
    assert ball_phi(StableParams(2.0, 2), 1.0, [0.0, 0.0]) == pytest.approx(0.25)


def test_ball_phi_outside_raises():
    with pytest.raises(OutsideBallError):
        ball_phi(StableParams(1.0, 2), 1.0, [1.5, 0.0])


@settings(max_examples=40, deadline=None)
@given(st.floats(0.2, 2.0), st.floats(0.1, 3.0), st.floats(0.0, 0.99))
def test_ball_phi_scaling(alpha, a, frac):
    # phi^{(aD)}(ax) = a^alpha phi^{(D)}(x)
    p = StableParams(alpha, 2)
    x = np.array([frac, 0.0])
    lhs = ball_phi(p, a, a * x)
    rhs = a**alpha * ball_phi(p, 1.0, x)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


def test_disk_h():
    ball = BallSpec(np.zeros(2), 1.0)
    assert disk_h(ball, [0.0, 0.0]) == pytest.approx(2.0 / math.pi)
    assert disk_h(ball, [1.0, 0.0]) == 0.0
    assert disk_h(ball, [0.6, 0.0]) == pytest.approx((2 / math.pi) * 0.8, rel=1e-14)
    assert disk_h(BallSpec([1.0, 1.0], 2.0), [1.0, 1.0]) == pytest.approx(4 / math.pi)


def test_disk_poisson_center_value():
    s = 0.7
    ball = BallSpec(np.zeros(2), s)
    y = np.array([s * math.sqrt(2), 0.0])
    assert disk_poisson_density(ball, np.zeros(2), y) == \
        pytest.approx(1.0 / (2 * math.pi**2 * s**2), rel=1e-13)


def test_disk_poisson_preconditions():
    ball = BallSpec(np.zeros(2), 1.0)
    with pytest.raises(BadGeometryError):
        disk_poisson_density(ball, [1.5, 0.0], [2.0, 0.0])
    with pytest.raises(BadGeometryError):
        disk_poisson_density(ball, [0.0, 0.0], [0.5, 0.0])


def test_disk_poisson_boundary_blowup():
    # inverse-square-root divergence as |y - z| drops to s
    ball = BallSpec(np.zeros(2), 1.0)
    vals = [disk_poisson_density(ball, np.zeros(2), [1.0 + e, 0.0])
            for e in (1e-2, 1e-4, 1e-6)]
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] == pytest.approx(1 / (math.pi**2 * math.sqrt(2e-6)), rel=1e-3)


def test_disk_poisson_normalisation_quadrature():
    # radial quadrature of the kernel reproduces the arccos law; mass 1 at
    # infinity.  Substituting w = sqrt(rho^2 - s^2) removes the edge
    # singularity so ordinary adaptive quadrature is a fair oracle.
    s = 1.0
    ball = BallSpec(np.zeros(2), s)

    def integrand(w):
        rho = math.sqrt(s * s + w * w)
        dens = 2 * math.pi * rho * disk_poisson_density(ball, np.zeros(2), [rho, 0.0])
        return dens * (w / rho)

    for r_cap in (1.5, 2.0, 5.0, 50.0):
        val, err = quad1d(integrand, 0.0, math.sqrt(r_cap**2 - s * s))
        want = float(disk_exit_radial_cdf(s, np.array([r_cap]))[0])
        assert val == pytest.approx(want, abs=1e-10 + 5 * err)
    full, err = quad1d(integrand, 0.0, np.inf)
    assert full == pytest.approx(1.0, abs=1e-8)


def test_kernel_value_and_singularity():
    assert kernel_K(np.array([0.0, 0.0, 1.0])) == pytest.approx(1 / (2 * math.pi))
    with pytest.raises(OriginSingularError):
        kernel_K(np.zeros(3))


def _random_points(n, lo=0.5, hi=5.0, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x * rng.uniform(lo, hi, size=(n, 1))


def test_kernel_table_symmetry_and_trace():
    x = _random_points(100)
    h = kernel_K_hess(x)
    assert np.allclose(h, np.swapaxes(h, -1, -2), atol=0)
    trace = h[..., 0, 0] + h[..., 1, 1] + h[..., 2, 2]
    scale = np.max(np.abs(h), axis=(-1, -2))
    assert np.max(np.abs(trace) / scale) < 1e-14


def test_kernel_k13_spot_value():
    # substitute (1, 0, 1) into the mixed-derivative table entry: 9 C_K 2^{-7/2}
    want = C_K * (12 - 3) / 2**3.5
    h = kernel_K_hess(np.array([1.0, 0.0, 1.0]))
    assert h[0, 2] == pytest.approx(want, rel=1e-14)
    assert h[0, 2] == pytest.approx(0.1266070, abs=1e-6)
    # finite-difference oracle on K itself
    e = 1e-5
    fd = (kernel_K([1 + e, 0, 1 + e]) - kernel_K([1 + e, 0, 1 - e])
          - kernel_K([1 - e, 0, 1 + e]) + kernel_K([1 - e, 0, 1 - e])) / (4 * e * e)
    assert h[0, 2] == pytest.approx(fd, rel=1e-6)


def test_kernel_grad_matches_fd():
    x = _random_points(100, seed=1)
    e = 1e-6
    grad = kernel_K_grad(x)
    for axis in range(3):
        step = np.zeros(3)
        step[axis] = e
        fd = (kernel_K(x + step) - kernel_K(x - step)) / (2 * e)
        denom = np.maximum(np.abs(grad[:, axis]), 1e-4 * np.max(np.abs(grad)))
        assert np.max(np.abs(fd - grad[:, axis]) / denom) < 1e-6


def test_kernel_hess_matches_fd_of_grad():
    x = _random_points(100, seed=2)
    e = 2e-6
    hess = kernel_K_hess(x)
    for axis in range(3):
        step = np.zeros(3)
        step[axis] = e
        fd = (kernel_K_grad(x + step) - kernel_K_grad(x - step)) / (2 * e)
        scale = np.maximum(np.abs(hess[:, axis, :]), 1e-3)
        assert np.max(np.abs(fd - hess[:, axis, :]) / scale) < 1e-6


def _hess_components_reference(x):
    """K's Hessian components as the six written-out formulas, one np.stack."""
    x = np.asarray(x, dtype=float)
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    r2 = x1 * x1 + x2 * x2 + x3 * x3
    r7 = r2 ** -3.5
    k11 = C_K * x3 * (12 * x1 * x1 - 3 * x2 * x2 - 3 * x3 * x3) * r7
    k22 = C_K * x3 * (12 * x2 * x2 - 3 * x1 * x1 - 3 * x3 * x3) * r7
    k33 = C_K * x3 * (6 * x3 * x3 - 9 * x1 * x1 - 9 * x2 * x2) * r7
    k12 = 15 * C_K * x3 * x1 * x2 * r7
    k13 = C_K * x1 * (12 * x3 * x3 - 3 * x1 * x1 - 3 * x2 * x2) * r7
    k23 = C_K * x2 * (12 * x3 * x3 - 3 * x1 * x1 - 3 * x2 * x2) * r7
    return np.stack([k11, k22, k33, k12, k13, k23], axis=-1)


def _kernel_inputs():
    rng = np.random.default_rng(9)
    pts = rng.uniform(-2.0, 2.0, (300, 3)) * np.exp(rng.uniform(-8.0, 3.0, (300, 1)))
    pts[:5, 2] = [0.0, -0.0, 1e-300, -3.0, 1e-9]
    pts[5:8, :2] = 0.0
    wide = np.zeros((600, 5))
    wide[::2, 1:4] = pts
    return {
        "point": np.array([0.3, -0.2, 0.7 + W_SHIFT]),
        "rows": pts,
        "stacked": pts[:8].reshape(2, 4, 3),
        "strided": wide[::2, 1:4],
        "fortran": np.asfortranarray(pts),
        "transposed buffer": np.ascontiguousarray(pts.T).T,
    }


@pytest.mark.parametrize("case", list(_kernel_inputs()))
def test_kernel_hess_components_bitwise(case):
    x = _kernel_inputs()[case]
    got = kernel_K_hess_components(x)
    want = _hess_components_reference(x)
    assert got.shape == want.shape == x.shape[:-1] + (6,)
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
    if case == "point":  # the aux_w_hess path
        assert aux_w_hess(x - [0.0, 0.0, W_SHIFT]).tobytes() == want[
            np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])].tobytes()


@pytest.mark.parametrize("x", [np.zeros(3), np.array([[0.1, 0.2, 0.3], [0.0, 0.0, 0.0]])])
def test_kernel_hess_components_origin(x):
    with pytest.raises(OriginSingularError):
        kernel_K_hess_components(x)


def test_aux_w_value_at_origin():
    # H(w)(0) = 54 C_K^3 (3/2)^{-6}
    want = 54.0 * C_K**3 * 1.5**-6
    assert aux_w_hess_det(np.zeros(3)) == pytest.approx(want, rel=1e-14)
    assert aux_w_hess_det(np.zeros(3)) == pytest.approx(0.0191123, abs=1e-6)


def test_aux_w33_vanishes_on_unit_circle():
    # the shift sqrt(3/2) is chosen so w_33 = 0 on the slab's unit circle
    h = aux_w_hess(np.array([-1.0, 0.0, 0.0]))
    assert h[2, 2] == pytest.approx(0.0, abs=1e-15)


def fd_hessian(f, x, e):
    """Richardson-extrapolated central-difference Hessian."""
    def once(step):
        out = np.empty((3, 3))
        for i in range(3):
            for j in range(3):
                si, sj = np.zeros(3), np.zeros(3)
                si[i] = step
                sj[j] = step
                out[i, j] = (f(x + si + sj) - f(x + si - sj)
                             - f(x - si + sj) + f(x - si - sj)) / (4 * step * step)
        return out

    return (4.0 * once(e / 2) - once(e)) / 3.0


def test_aux_w_positive_and_matches_fd():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-2, 2, size=(100, 3))
    pts[:, 2] = rng.uniform(-W_SHIFT + 0.3, 2.5, size=100)
    dets = aux_w_hess_det(pts)
    assert np.all(dets > 0)
    for x in pts[:20]:
        fd = fd_hessian(aux_w, x, 1e-3)
        assert np.linalg.det(fd) == pytest.approx(aux_w_hess_det(x), rel=1e-6)


def test_aux_w_below_pole():
    with pytest.raises(BelowPoleError):
        aux_w(np.array([0.0, 0.0, -W_SHIFT - 0.1]))


def test_eps_quadratic():
    assert eps_quadratic(np.array([0.0, 0.0, 1.0])) == 1.0
    assert eps_quadratic(np.array([1.0, 1.0, 1.0])) == 0.0
    assert np.trace(EPS_QUADRATIC_HESS) == 0.0
    assert np.allclose(np.diag(EPS_QUADRATIC_HESS), [-1, -1, 2])


def test_norm_const_documented():
    # A_{2,-1} coincides with 1/(2 pi), the half-space kernel constant
    assert StableParams(1.0, 2).norm_const == pytest.approx(1 / (2 * math.pi), rel=1e-12)
    assert math.isnan(StableParams(2.0, 2).norm_const)

