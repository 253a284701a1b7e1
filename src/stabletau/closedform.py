"""Closed forms: ball exit times, the disk exit kernel, the half-space kernel
with its full derivative table, the shifted auxiliary kernel, and the
epsilon-quadratic.

Everything here is an explicit formula; no Monte Carlo, no adaptivity.  The
transition density of the planar driving process, p_t(x) = t/(2 pi) (t^2 +
|x|^2)^{-3/2}, is recorded for reference only; nothing below needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadGeometryError,
    BelowPoleError,
    OriginSingularError,
    OutsideBallError,
)

C_K = 1.0 / (2.0 * math.pi)   # half-space Poisson kernel constant
C_P = 1.0 / math.pi ** 2      # disk exit kernel constant (alpha=1, d=2)
W_SHIFT = math.sqrt(1.5)      # pole offset of the auxiliary kernel


@dataclass(frozen=True)
class StableParams:
    """Stability index alpha in (0, 2] and ambient dimension d >= 1."""

    alpha: float
    dim: int = 2

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError("alpha must lie in (0, 2]")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")


@dataclass(frozen=True)
class BallSpec:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")


def ball_exit_constant(p: StableParams) -> float:
    """C_B = Gamma(d/2) / (2^alpha Gamma(1+alpha/2) Gamma(d/2+alpha/2))."""
    a, d = p.alpha, p.dim
    return math.gamma(d / 2.0) / (
        2.0 ** a * math.gamma(1.0 + a / 2.0) * math.gamma(d / 2.0 + a / 2.0)
    )


def ball_phi(p: StableParams, r: float, x) -> float:
    """Expected exit time C_B (r^2 - |x|^2)^(alpha/2) from B(0, r) at x."""
    x = np.asarray(x, dtype=float)
    rho2 = float(x @ x) if x.ndim == 1 else float(np.sum(x * x))
    gap = r * r - rho2
    if gap < 0:
        if gap > -1e-15 * r * r:
            gap = 0.0
        else:
            raise OutsideBallError(f"|x| = {math.sqrt(rho2):g} exceeds r = {r:g}")
    return ball_exit_constant(p) * gap ** (p.alpha / 2.0)


def disk_poisson_density(ball: BallSpec, x, y) -> float:
    """Exit density of the planar Cauchy process from B(z, s), x inside, y outside."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    s2 = ball.radius ** 2
    in_gap = s2 - float(np.sum((x - ball.center) ** 2))
    out_gap = float(np.sum((y - ball.center) ** 2)) - s2
    if in_gap <= 0 or out_gap <= 0:
        raise BadGeometryError("need |x-z| < s and |y-z| > s")
    return C_P * math.sqrt(in_gap) / (math.sqrt(out_gap) * float(np.sum((x - y) ** 2)))


# -- half-space kernel K and its derivative table ---------------------------------

def _split3(x):
    x = np.asarray(x, dtype=float)
    return x[..., 0], x[..., 1], x[..., 2]


def _radius2(x1, x2, x3):
    """|x|^2, which K's singularity at the origin requires to be nonzero."""
    r2 = x1 * x1 + x2 * x2 + x3 * x3
    if np.any(r2 == 0.0):
        raise OriginSingularError("K is singular at the origin")
    return r2


def kernel_K(x):
    """K(x) = C_K x3 / |x|^3 (Poisson kernel of the upper half-space)."""
    x1, x2, x3 = _split3(x)
    return C_K * x3 * _radius2(x1, x2, x3) ** -1.5


def kernel_K_grad(x):
    x1, x2, x3 = _split3(x)
    r5 = _radius2(x1, x2, x3) ** -2.5
    g1 = -3.0 * C_K * x3 * x1 * r5
    g2 = -3.0 * C_K * x3 * x2 * r5
    g3 = C_K * (x1 * x1 + x2 * x2 - 2.0 * x3 * x3) * r5
    return np.stack([g1, g2, g3], axis=-1)


def kernel_K_hess_components(x):
    """(k11, k22, k33, k12, k13, k23) of K's Hessian on the last axis; trace is zero.

    Shared products are formed once, on contiguous columns (an x whose last
    axis is its slowest, such as the transpose of a (3, n) buffer, is read
    without a copy), and each component is written once into a C-contiguous
    (..., 6) result.  Operations and their order are those of the written-out
    formulas, so the bits do not depend on the layout of x.
    """
    x = np.asarray(x, dtype=float)
    x1, x2, x3 = np.ascontiguousarray(np.moveaxis(x, -1, 0))
    r7 = _radius2(x1, x2, x3) ** -3.5
    t1, t2, t3 = 3 * x1 * x1, 3 * x2 * x2, 3 * x3 * x3
    cx3 = C_K * x3
    t = 12 * x3 * x3 - t1 - t2
    out = np.empty(x.shape[:-1] + (6,))
    np.multiply(cx3 * (12 * x1 * x1 - t2 - t3), r7, out=out[..., 0])
    np.multiply(cx3 * (12 * x2 * x2 - t1 - t3), r7, out=out[..., 1])
    np.multiply(cx3 * (6 * x3 * x3 - 9 * x1 * x1 - 9 * x2 * x2), r7, out=out[..., 2])
    np.multiply(15 * C_K * x3 * x1 * x2, r7, out=out[..., 3])
    np.multiply(C_K * x1 * t, r7, out=out[..., 4])
    np.multiply(C_K * x2 * t, r7, out=out[..., 5])
    return out


_HESS_INDEX = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])  # (i, j) -> component


def kernel_K_hess(x):
    """All second derivatives of K as a symmetric 3x3 on the last two axes."""
    return kernel_K_hess_components(x)[..., _HESS_INDEX]


# -- auxiliary shifted kernel w ----------------------------------------------------

def _shifted(x):
    x = np.asarray(x, dtype=float)
    x3 = x[..., 2]
    if np.any(x3 <= -W_SHIFT):
        raise BelowPoleError("w requires x3 > -sqrt(3/2)")
    shifted = np.array(x, copy=True)
    shifted[..., 2] = x3 + W_SHIFT
    return shifted


def aux_w(x):
    """w(x) = K(x1, x2, x3 + sqrt(3/2)); its vertical second derivative vanishes
    on the unit circle in the slab, which is what makes it a useful companion."""
    return kernel_K(_shifted(x))


def aux_w_hess(x):
    return kernel_K_hess(_shifted(x))


def aux_w_hess_det(x):
    """Closed-form Hessian determinant of w; strictly positive above the pole."""
    xs = _shifted(x)
    x1, x2, x3 = _split3(xs)
    rho2 = x1 * x1 + x2 * x2
    r2 = rho2 + x3 * x3
    return C_K ** 3 * 27.0 * x3 * (rho2 + 2.0 * x3 * x3) * r2 ** -7.5


# -- epsilon-quadratic --------------------------------------------------------------

EPS_QUADRATIC_HESS = np.diag([-1.0, -1.0, 2.0])


def eps_quadratic(x):
    """-(x1^2 + x2^2)/2 + x3^2: harmonic, Hessian diag(-1, -1, 2)."""
    x1, x2, x3 = _split3(x)
    return -0.5 * x1 * x1 - 0.5 * x2 * x2 + x3 * x3

