"""Harmonic extension of the exit-time field to 3-space and its Hessian.

For x3 > 0 the extension is the half-space Poisson integral of the planar
field; its derivatives are obtained by differentiating the kernel under the
integral (never by differencing the Monte Carlo field).  The lower half-space
is the reflection u(x1, x2, -x3) - 2 x3, whose Hessian follows by flipping
the signs of the 13 and 23 entries, and on the slab over the domain the
vertical column is (0, 0, -u11 - u22) with the planar block read off the
field itself.

Every field answers the same calls: values_at(pts), typical_stderr() and
slab_hessian(xy, depth), the planar block (phi_11, phi_22, phi_12) and the
six entry errors at a slab point depth inside the domain.  A noisy field
(typical_stderr() > 0) also answers values_and_stderr_at(pts).  DiskPhi
differentiates in closed form; wos.PhiField differences its own values.

Every integral of the field runs through one routine, _poisson: a kernel
evaluated at the mirror image (x1, x2, |x3|), integrated on the chart that
integrate anchors at that peak.  A point and its reflection share that
integral, and the context's memo computes it once.  Outside the domain the
slab derivative u3 = -(-Delta)^{1/2} phi is the third component of the
gradient kernel's integral at x3 = 0, where that component is C_K / |x - y|^3.
"""

from __future__ import annotations

import copy
import math
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from .closedform import kernel_K, kernel_K_grad, kernel_K_hess_components
from .errors import NonConvergedError, OnBoundaryError, UndefinedOnCutError
from .geom import SupportDomain
from .quad import QuadSpec, integrate

_SIGNATURE_CUT = 1e-9  # zero-eigenvalue threshold, relative to the largest one
# Poisson integrals a context keeps for their mirror twins; above the 1 000
# points of a 500-point scan with its reflections, so every mirror finds its twin
_MEMO_CAP = 4096


class DiskPhi:
    """Closed-form exit-time field of the planar Cauchy process on the unit disk."""

    def __init__(self, radius: float = 1.0):
        self.radius = float(radius)

    def values_at(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        p0, p1 = pts[:, 0], pts[:, 1]
        gap = np.maximum(self.radius ** 2 - (p0 * p0 + p1 * p1), 0.0)
        return (2.0 / math.pi) * np.sqrt(gap)

    def slab_hessian(self, x, depth):
        """(phi_11, phi_22, phi_12) and zero entry errors at an interior point,
        differentiated exactly, so depth is not needed."""
        x = np.asarray(x, dtype=float)
        gap = self.radius ** 2 - float(x @ x)
        if gap <= 0:
            raise UndefinedOnCutError("slab Hessian needs an interior point")
        cb = 2.0 / math.pi
        g12, g32 = gap ** -0.5, gap ** -1.5
        h11 = -cb * (g12 + x[0] * x[0] * g32)
        h22 = -cb * (g12 + x[1] * x[1] * g32)
        h12 = -cb * x[0] * x[1] * g32
        return h11, h22, h12, np.zeros(6)

    def typical_stderr(self) -> float:
        return 0.0


@dataclass(frozen=True)
class ExtensionContext:
    """Domain, planar field, and quadrature defaults shared by evaluations.

    Contexts are immutable, so the integrals they keep cannot go stale.  A
    point and its reflection below the slab cost one integral: each context
    keeps a memo of Poisson integrals keyed on (kernel, noisy, bytes of the
    mirror image (x1, x2, |x3|)), and the twin on the other side of the slab
    takes the stored (value, err) out of it, or raises NonConvergedError
    again with the stored best value.  The memo holds at most _MEMO_CAP
    (4 096) integrals still waiting for their twin and drops the oldest
    first.  A point evaluated again on the same side is integrated again.
    """

    dom: SupportDomain
    phi: object
    quad: QuadSpec = field(default_factory=QuadSpec)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _memo_lock: threading.Lock = field(default_factory=threading.Lock, init=False,
                                       repr=False, compare=False)


@dataclass(frozen=True)
class HessianSample:
    x: np.ndarray
    hess: np.ndarray
    det: float
    trace: float
    signature: tuple
    det_err: float
    entry_err: np.ndarray  # (6,) errors for (11, 22, 33, 12, 13, 23)
    converged: bool = True


def hessian_signature(h: np.ndarray) -> tuple:
    eig = np.linalg.eigvalsh(h)
    tau = _SIGNATURE_CUT * float(np.max(np.abs(eig)))
    n_pos = int(np.count_nonzero(eig > tau))
    n_neg = int(np.count_nonzero(eig < -tau))
    return (n_pos, n_neg, 3 - n_pos - n_neg)


def _det_error(h: np.ndarray, entry_err: np.ndarray) -> float:
    """First-order determinant error from per-entry errors via the adjugate.

    The adjugate (d det / d h) of the symmetric 3x3 is written out, so it is
    defined for singular matrices too.
    """
    (h11, h12, h13), (_, h22, h23), (_, _, h33) = h
    e11, e22, e33, e12, e13, e23 = entry_err
    return float(abs(h22 * h33 - h23 * h23) * e11 + abs(h11 * h33 - h13 * h13) * e22
                 + abs(h11 * h22 - h12 * h12) * e33
                 + 2 * (abs(h13 * h23 - h12 * h33) * e12 + abs(h12 * h23 - h22 * h13) * e13
                        + abs(h12 * h13 - h11 * h23) * e23))


def _assemble(entries: np.ndarray) -> np.ndarray:
    h11, h22, h33, h12, h13, h23 = entries
    return np.array([[h11, h12, h13], [h12, h22, h23], [h13, h23, h33]])


def _offsets(x, pts) -> np.ndarray:
    """Kernel arguments x - (y, 0) for the planar quadrature nodes y.

    Returned as the (n, 3) transpose of a (3, n) buffer, so the kernels read
    contiguous columns.
    """
    rel = np.empty((3, len(pts)))
    np.subtract(x[0], pts[:, 0], out=rel[0])
    np.subtract(x[1], pts[:, 1], out=rel[1])
    rel[2] = x[2]
    return rel.T


def _poisson(ctx: ExtensionContext, x, kernel, noisy: bool = False):
    """integrate's (value, err) for kernel(x' - (y, 0)) phi(y), x' = (x1, x2, |x3|).

    x' is integrate's peak: the chart is anchored at (x1, x2), or over the
    exterior at the foot of integrate's one nearest-boundary query, and
    reads the kernel's length scale, the distance from x' to the anchor, and
    maps itself when that is small (see the quad module docstring).  The
    context's spec is copied once, with abs_tol floored at a quarter of the
    field's typical error bar, below which quadrature resolves only the
    field's noise (a closed-form field has none).  With noisy, columns
    |kernel| * stderr follow the kernel's.  The twin on the other side of
    the slab takes the result out of the context's memo.
    """
    mirror = np.array([x[0], x[1], abs(x[2])])
    key, below = (kernel, noisy, mirror.tobytes()), bool(x[2] < 0.0)
    with ctx._memo_lock:
        twin = ctx._memo.get(key)
        if twin is not None and twin[0] != below:  # the mirror stored it: take it
            del ctx._memo[key]
            _, val, err, converged = twin
        else:
            twin = None
    if twin is None:
        spec = replace(ctx.quad,
                       abs_tol=max(ctx.quad.abs_tol, 0.25 * float(ctx.phi.typical_stderr())))

        def integrand(pts):
            # a fresh C-contiguous (n, m) kernel array, scaled in place; the
            # result must stay C-ordered (see the quad module docstring)
            k = kernel(_offsets(mirror, pts)).reshape(len(pts), -1)
            if not noisy:
                k *= ctx.phi.values_at(pts)[:, None]
                return k
            vals, errs = ctx.phi.values_and_stderr_at(pts)
            return np.concatenate([k * vals[:, None], np.abs(k) * errs[:, None]], axis=1)

        try:
            (val, err), converged = integrate(ctx.dom, integrand, spec, mirror), True
        except NonConvergedError as exc:
            val, err, converged = exc.value, exc.err_estimate, False
        with ctx._memo_lock:  # a copy, as the caller may change its result in place
            ctx._memo[key] = (below, copy.copy(val), copy.copy(err), converged)
            if len(ctx._memo) > _MEMO_CAP:
                del ctx._memo[next(iter(ctx._memo))]
    if not converged:
        raise NonConvergedError(val, err)
    return val, err


def eval_u(ctx: ExtensionContext, x) -> float:
    """Value of the extension at x in R^3 away from the exterior cut."""
    x = np.asarray(x, dtype=float)
    if x[2] == 0.0:
        sd = ctx.dom.signed_distance(x[:2])
        if sd < -1e-12:
            raise UndefinedOnCutError("u is undefined on int(D^c) x {0}")
        return float(ctx.phi.values_at(x[:2].reshape(1, 2))[0]) if sd > 0 else 0.0
    val, _ = _poisson(ctx, x, kernel_K)
    return float(val) - 2.0 * min(x[2], 0.0)


def eval_u_grad(ctx: ExtensionContext, x) -> np.ndarray:
    """Gradient of the extension off the slab, by kernel differentiation."""
    x = np.asarray(x, dtype=float)
    if x[2] == 0.0:
        raise UndefinedOnCutError("gradient on the slab is one-sided; use eval_u3_slab")
    g, _ = _poisson(ctx, x, kernel_K_grad)
    if x[2] < 0.0:
        g[2] = -g[2] - 2.0
    return g


def hessian_sample(x, h, entry_err, converged) -> HessianSample:
    """The sample of Hessian h at x, with its det, trace, signature and det error.

    A Hessian or entry error that is not finite is not converged, and its
    signature is (0, 0, 3): such a sample is never a verdict.
    """
    finite = bool(np.isfinite(h).all() and np.isfinite(entry_err).all())
    return HessianSample(
        x=x, hess=h, det=float(np.linalg.det(h)) if finite else math.nan,
        trace=float(np.trace(h)),
        signature=hessian_signature(h) if finite else (0, 0, 3),
        det_err=_det_error(h, entry_err), entry_err=entry_err,
        converged=converged and finite)


def eval_hessian(ctx: ExtensionContext, x) -> HessianSample:
    """Hessian sample of u at x.

    Off the slab the entries are integrals of the kernel's second
    derivatives against the field, with the (13, 23) sign flips below it;
    on the slab over the domain the vertical mixed entries vanish and
    u33 = -u11 - u22.
    """
    x = np.asarray(x, dtype=float)
    conv = True
    if x[2] == 0.0:
        entries, entry_err = _slab_hessian_entries(ctx, x[:2])
    else:
        noisy = ctx.phi.typical_stderr() > 0.0
        try:
            val, err = _poisson(ctx, x, kernel_K_hess_components, noisy)
        except NonConvergedError as exc:
            val, err, conv = exc.value, exc.err_estimate, False
        entries, entry_err = val[:6], err[:6]
        if noisy:
            entry_err = np.sqrt(entry_err ** 2 + val[6:] ** 2)
        if x[2] < 0.0:
            entries = entries * np.array([1, 1, 1, 1, -1, -1.0])
    return hessian_sample(x, _assemble(entries), entry_err, conv)


def _slab_hessian_entries(ctx: ExtensionContext, xy):
    sd = ctx.dom.signed_distance(xy)
    if sd <= 1e-12:
        raise UndefinedOnCutError("slab Hessian defined only over the open domain")
    h11, h22, h12, err = ctx.phi.slab_hessian(xy, sd)
    return np.array([h11, h22, -h11 - h22, h12, 0.0, 0.0]), err


def eval_u3_slab(ctx: ExtensionContext, xy) -> float:
    """Vertical derivative on the slab: -1 over the domain, positive outside."""
    xy = np.asarray(xy, dtype=float)
    sd = ctx.dom.signed_distance(xy)
    if abs(sd) <= 1e-9:
        raise OnBoundaryError("u3 jumps across the domain boundary")
    if sd > 0:
        return -1.0
    g, _ = _poisson(ctx, np.array([xy[0], xy[1], 0.0]), kernel_K_grad)
    return float(g[2])


def local_frame_hessian(h: np.ndarray, normal_angle: float) -> np.ndarray:
    """Rewrite a Hessian in the boundary frame (inner normal, clockwise tangent, e3)."""
    c, s = math.cos(normal_angle), math.sin(normal_angle)
    r = np.array([[-c, s, 0.0], [-s, -c, 0.0], [0.0, 0.0, 1.0]])
    return r.T @ h @ r
