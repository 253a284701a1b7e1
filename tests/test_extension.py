import dataclasses
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy.integrate import quad as quad1d
from scipy.interpolate import PchipInterpolator

from stabletau import extension
from stabletau.analysis import cylinder_points, hessian_scan, psi_blend, veps_shift
from stabletau.closedform import (
    StableParams,
    aux_w_hess_det,
    kernel_K_grad,
)
from stabletau.errors import NonConvergedError, OnBoundaryError, UndefinedOnCutError
from stabletau.extension import (
    DiskPhi,
    ExtensionContext,
    _det_error,
    eval_hessian,
    eval_u,
    eval_u3_slab,
    eval_u_grad,
    hessian_signature,
    local_frame_hessian,
)
from stabletau.geom import SupportDomain
from stabletau.quad import QuadSpec, integrate
from stabletau.wos import PhiField, WalkConfig, build_field


@pytest.fixture(scope="module")
def ctx():
    return ExtensionContext(SupportDomain.disk(1.0), DiskPhi())


def test_eval_u_slab_values(ctx):
    assert eval_u(ctx, [0.0, 0.0, 0.0]) == pytest.approx(2 / math.pi, rel=1e-12)
    assert eval_u(ctx, [0.6, 0.0, 0.0]) == pytest.approx((2 / math.pi) * 0.8, rel=1e-12)
    assert eval_u(ctx, [1.0, 0.0, 0.0]) == 0.0  # boundary of the cut closure


def test_eval_u_undefined_on_cut(ctx):
    with pytest.raises(UndefinedOnCutError):
        eval_u(ctx, [1.5, 0.0, 0.0])


def test_eval_u_raises_when_not_converged(ctx):
    starved = ExtensionContext(ctx.dom, ctx.phi, QuadSpec(rel_tol=1e-14, abs_tol=1e-14,
                                                          max_cells=64))
    # the kernel's peak, x3 = 0.01 wide at the anchor, needs more than 64 cells
    with pytest.raises(NonConvergedError):
        eval_u(starved, [0.2, -0.1, 0.01])


def test_eval_u_reflection_identity(ctx):
    up = eval_u(ctx, [0.2, -0.1, 0.7])
    lo = eval_u(ctx, [0.2, -0.1, -0.7])
    assert lo == pytest.approx(up + 1.4, rel=1e-12)


def test_eval_u_brute_force_oracle(ctx):
    # 10^6-node midpoint rule for the half-space Poisson integral
    n = 1000
    g = ((np.arange(n) + 0.5) / n) * 2 - 1
    gx, gy = np.meshgrid(g, g)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    r2 = np.sum(pts * pts, axis=1)
    phi = (2 / math.pi) * np.sqrt(np.maximum(1 - r2, 0.0))
    x = np.array([0.3, 0.2, 0.9])
    rel = np.concatenate([x[:2] - pts, np.full((len(pts), 1), x[2])], axis=1)
    kern = (1 / (2 * math.pi)) * x[2] / np.sum(rel * rel, axis=1) ** 1.5
    brute = float(np.sum(kern[r2 < 1] * phi[r2 < 1])) * (2 / n) ** 2
    assert eval_u(ctx, x) == pytest.approx(brute, rel=1e-4)


def test_slab_hessian_closed_form(ctx):
    s = eval_hessian(ctx, [0.0, 0.0, 0.0])
    cb = 2 / math.pi
    assert s.hess[0, 0] == pytest.approx(-cb, rel=1e-12)
    assert s.hess[1, 1] == pytest.approx(-cb, rel=1e-12)
    assert s.hess[2, 2] == pytest.approx(2 * cb, rel=1e-12)
    assert s.hess[0, 1] == 0.0 and abs(s.hess[0, 2]) < 1e-9 and abs(s.hess[1, 2]) < 1e-9
    assert s.det == pytest.approx(16 / math.pi**3, rel=1e-12)
    assert s.signature == (1, 2, 0)


def test_slab_hessian_off_centre(ctx):
    s = eval_hessian(ctx, [0.4, -0.3, 0.0])
    assert s.signature == (1, 2, 0)
    assert s.det > 0
    assert s.hess[0, 0] < 0 and s.hess[1, 1] < 0
    assert s.hess[0, 0] * s.hess[1, 1] - s.hess[0, 1] ** 2 > 0
    with pytest.raises(UndefinedOnCutError):
        eval_hessian(ctx, [1.2, 0.0, 0.0])


def test_signature_scan_above_disk(ctx):
    # constant signature (1,2) everywhere off the cut
    rng = Generator(Philox(key=17))
    n_checked = 0
    while n_checked < 200:
        x = rng.uniform([-3, -3, 0.02], [3, 3, 3])
        s = eval_hessian(ctx, x)
        assert s.det > 0, f"det <= 0 at {x}"
        assert s.signature == (1, 2, 0), f"signature {s.signature} at {x}"
        n_checked += 1


def test_trace_vanishes(ctx):
    for x in ([0.5, 0.3, 0.8], [-1.2, 0.4, 0.3], [2.0, 0.0, 1.5]):
        s = eval_hessian(ctx, x)
        assert abs(s.trace) <= 10 * float(np.sum(s.entry_err)) + 1e-13


def _exact_disk_u(x1, x2, x3):
    """Harmonic extension of DiskPhi above the slab, in closed form (mpmath).

    u = x3 R_D(1 + lam, 1 + lam, lam) / (2 R_D(1, 0, 1)) with lam the largest
    root of (x1^2 + x2^2) / (1 + lam) + x3^2 / lam = 1: minus the vertical
    derivative of the flat disk's potential, normalised so that -u_3 = 1 on
    the slab over the disk.  It reduces to DiskPhi on the slab.
    """
    import mpmath

    b = 1 - x1 * x1 - x2 * x2 - x3 * x3
    root = mpmath.sqrt(b * b + 4 * x3 * x3)
    lam = 2 * x3 * x3 / (b + root) if b > 0 else (root - b) / 2
    return x3 * mpmath.elliprd(1 + lam, 1 + lam, lam) / (2 * mpmath.elliprd(1, 0, 1))


def _exact_disk_hessian(x):
    """D^2 u of _exact_disk_u by central differences at 50 digits (step 1e-12).

    Below the slab u(x1, x2, -x3) - 2 x3 flips the 13 and 23 entries.
    """
    import mpmath

    with mpmath.workdps(50):
        p = [mpmath.mpf(float(v)) for v in x]
        flip = p[2] < 0
        p[2] = abs(p[2])
        step = mpmath.mpf("1e-12")

        def u(*moves):
            q = list(p)
            for axis, sign in moves:
                q[axis] += sign * step
            return _exact_disk_u(*q)

        h = np.empty((3, 3))
        centre = u()
        for i in range(3):
            h[i, i] = float((u((i, 1)) - 2 * centre + u((i, -1))) / step ** 2)
            for j in range(i):
                mixed = (u((i, 1), (j, 1)) - u((i, 1), (j, -1))
                         - u((i, -1), (j, 1)) + u((i, -1), (j, -1))) / (4 * step ** 2)
                h[i, j] = h[j, i] = float(mixed)
    if flip:
        h[:2, 2] *= -1
        h[2, :2] *= -1
    return h


def _oracle_points():
    """S1-S4 at h = 0.003 ... 0.32, exterior and interior anchors, one reflection,
    and interior points at x3 = 1e-3 ... 0.05, where the chart maps by sinh."""
    pts = []
    probes = [(-1.0, 0.125), (-1.0, 0.625), (1.0, 0.625), (1.0, 0.125)]  # (x1, x3) / h
    hs = (0.003, 0.01, 0.02, 0.1, 0.32)
    for k, ((a1, a3), h) in enumerate((p, h) for p in probes for h in hs):
        psi = 0.4 + 0.77 * k
        pts.append([(1.0 - a1 * h) * math.cos(psi), (1.0 - a1 * h) * math.sin(psi), a3 * h])
    pts += [[1.6, 0.7, 0.4], [-0.9, -2.1, 0.05], [2.4, -1.3, -1.1],
            [0.2, 0.1, 0.3], [-0.4, 0.2, 0.6], [0.9, -0.3, 0.15], [0.2, 0.1, -0.3]]
    pts += [[0.3, 0.2, 1e-3], [-0.6, 0.5, 3e-3], [0.0, -0.9, 0.01], [0.95, 0.0, 0.02],
            [-0.1, 0.7, 0.05], [0.5, -0.4, -4e-3]]
    return np.array(pts)


def test_disk_hessian_matches_exact_extension():
    # the closed-form u at alpha = 1: every entry within its reported error
    ctx = ExtensionContext(SupportDomain.disk(1.0), DiskPhi(), _CRITERION5_QUAD)
    for x in _oracle_points():
        exact = _exact_disk_hessian(x)
        assert abs(np.trace(exact)) <= 1e-9 * np.max(np.abs(exact)), x
        s = eval_hessian(ctx, x)
        assert s.converged
        (h11, h12, h13), (_, h22, h23), (_, _, h33) = s.hess - exact
        dev = np.abs([h11, h22, h33, h12, h13, h23])
        assert np.all(dev <= s.entry_err), (x, dev / s.entry_err)
        assert abs(s.trace) <= float(np.sum(s.entry_err[:3])), x


# the ROADMAP cliff table: (x1, x2) by x3, whether eval_hessian converges under
# criterion 5's QuadSpec and under the default one
_CLIFF = {(0.3, 0.2): {1e-2: (True, True), 1e-3: (True, False), 3e-4: (False, False)},
          (0.95, 0.0): {1e-2: (True, True), 1e-3: (True, False), 3e-4: (True, False)},
          (1.05, 0.0): {1e-2: (True, True), 1e-3: (True, True), 3e-4: (True, True)}}


@pytest.mark.parametrize("anchor", list(_CLIFF))
def test_cliff_table_converges_where_it_did(anchor):
    dom, phi = SupportDomain.disk(1.0), DiskPhi()
    for x3, want in _CLIFF[anchor].items():
        got = tuple(eval_hessian(ExtensionContext(dom, phi, spec), [*anchor, x3]).converged
                    for spec in (_CRITERION5_QUAD, QuadSpec()))
        assert got == want, (anchor, x3)


def test_reflection_det_exact_and_fd_crosscheck(ctx):
    rng = Generator(Philox(key=23))
    for _ in range(4):
        x = rng.uniform([-1.5, -1.5, 0.4], [1.5, 1.5, 1.2])
        up = eval_hessian(ctx, x)
        lo = eval_hessian(ctx, x * np.array([1, 1, -1]))
        assert lo.det == up.det  # exact, by construction of the lower branch
        assert lo.signature == up.signature
        # independent quadrature route: second differences of eval_u at the
        # mirrored point exercise the -2 x3 correction explicitly
        h = 0.02
        mirror = x * np.array([1, 1, -1])
        fd = np.empty((3, 3))
        for i in range(3):
            for j in range(i, 3):
                si, sj = np.zeros(3), np.zeros(3)
                si[i], sj[j] = h, h
                if i == j:
                    fd[i, i] = (eval_u(ctx, mirror + si) - 2 * eval_u(ctx, mirror)
                                + eval_u(ctx, mirror - si)) / h**2
                else:
                    fd[i, j] = fd[j, i] = (
                        eval_u(ctx, mirror + si + sj) - eval_u(ctx, mirror + si - sj)
                        - eval_u(ctx, mirror - si + sj) + eval_u(ctx, mirror - si - sj)
                    ) / (4 * h * h)
        scale = np.max(np.abs(lo.hess))
        assert np.max(np.abs(fd - lo.hess)) < 5e-3 * scale + 5e-5


def test_veps_shift(ctx):
    x = [0.3, 0.1, 0.6]
    base = eval_hessian(ctx, x)
    shifted = veps_shift(base, 0.001)
    diff = shifted.hess - base.hess
    assert np.allclose(diff, np.diag([-0.001, -0.001, 0.002]), atol=0)
    assert shifted.trace == pytest.approx(base.trace, abs=1e-15)


def test_psib_blend(ctx):
    x = np.array([0.2, -0.4, 0.5])
    u = eval_hessian(ctx, x)
    u_h = u.hess
    for b in (0.0, 0.3, 1.0):
        blend = psi_blend(u, b)
        from stabletau.closedform import aux_w_hess

        want = (1 - b) * u_h + b * aux_w_hess(x)
        assert np.allclose(blend.hess, want, atol=0)
    full = psi_blend(u, 1.0)
    assert full.det == pytest.approx(float(aux_w_hess_det(x)), rel=1e-6)


def test_unknown_target_is_rejected_before_any_integral(monkeypatch):
    calls = []
    real = extension.integrate

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(extension, "integrate", spy)
    fresh = ExtensionContext(SupportDomain.disk(1.0), DiskPhi())
    with pytest.raises(ValueError, match="bogus"):
        hessian_scan(fresh, np.array([[0.2, 0.1, 0.5], [0.3, -0.2, 0.4]]), "bogus")
    assert calls == []
    hessian_scan(fresh, np.array([[0.2, 0.1, 0.5]]))
    assert len(calls) == 1


class _OneNanRead(DiskPhi):
    """The disk's field, but every read returns NaN at its first point."""

    def values_at(self, pts):
        out = super().values_at(pts)
        out[0] = np.nan
        return out


def test_a_nan_field_read_is_non_convergence_never_a_value():
    dom, phi = SupportDomain.disk(1.0), _OneNanRead()
    with pytest.raises(NonConvergedError):
        integrate(dom, phi.values_at)
    nan_ctx = ExtensionContext(dom, phi)
    x = np.array([0.2, 0.1, 0.5])
    with pytest.raises(NonConvergedError):
        eval_u(nan_ctx, x)
    sample = eval_hessian(nan_ctx, x)
    assert not sample.converged and sample.signature == (0, 0, 3)
    rep = hessian_scan(nan_ctx, np.array([x, [0.3, -0.2, 0.0]]))
    # the slab point reads the field's closed-form block, not the NaN read
    assert rep.verdicts == ["indeterminate", "pass"]
    payload = json.loads(rep.json_text())  # a NaN is written as null
    assert payload["values"][0][rep.columns.index("det")] is None
    assert payload["values"][1][rep.columns.index("det")] == rep.values[1, 6]


def test_u3_slab(ctx):
    assert eval_u3_slab(ctx, [0.5, 0.0]) == -1.0
    assert eval_u3_slab(ctx, [-2.0, 0.0]) > 0
    with pytest.raises(OnBoundaryError):
        eval_u3_slab(ctx, [1.0, 0.0])


def test_u3_slab_fd_consistency(ctx):
    # (u(x, h) - u(x, 0)) / h -> -1 inside the domain
    h = 1e-4
    for xy in ([0.0, 0.0], [0.5, 0.2]):
        fd = (eval_u(ctx, [xy[0], xy[1], h]) - eval_u(ctx, [xy[0], xy[1], 0.0])) / h
        assert fd == pytest.approx(-1.0, abs=1e-2)


SQUARE_DOM = SupportDomain.from_polygon([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]])
# exterior points 0.0013-0.043 off the smoothed square's corners, where some
# of the boundary-anchored chart's rays lie so near a tangent that their N is
# at rounding level and Newton stalls; bisection finishes them
_TANGENT_RAY_POINTS = [(-0.5539476524364224, -0.4560998277644411),
                       (0.45205693378933937, 0.5122479780757269),
                       (0.5122006172414523, 0.4520512482046123),
                       (0.4532896715961062, 0.5250021094908998)]


@pytest.mark.parametrize("dom, xy", [
    (SupportDomain.disk(1.0), (-2.0, 0.0)),
    # points whose chart failed the radial-extent Newton when its anchor was
    # queried from their boundary foot instead of from the point itself
    (SupportDomain.ellipse(0.8, 0.5), (-0.3654539164320145, 0.46535310234802296)),
    (SupportDomain.ellipse(0.9, 0.15), (0.5384124901191011, -0.12122223370231305)),
    (SupportDomain.from_polygon([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]]),
     (-0.5166415339642634, 0.3805608771790026)),
    *((SQUARE_DOM, xy) for xy in _TANGENT_RAY_POINTS),
], ids=["disk", "ellipse-0.8-0.5", "ellipse-0.9-0.15", "square",
        *(f"square-tangent-{k}" for k in range(len(_TANGENT_RAY_POINTS)))])
def test_exterior_u3_positive(dom, xy):
    u3 = eval_u3_slab(ExtensionContext(dom, DiskPhi()), xy)
    assert np.isfinite(u3) and u3 > 0


@pytest.mark.parametrize("xy", _TANGENT_RAY_POINTS)
def test_exterior_u3_tangent_rays_brute_force(xy):
    """The tangent-ray points against a midpoint rule about x itself.

    u3 = C_K int_D phi(y) |y - x|^-3 dy, in polar coordinates about x with
    r = d e^s (d the distance to D): C_K int int phi r^-1 ds dpsi, on a
    1000 x 1000 midpoint grid masked by the sign of the distance oracle.
    """
    x = np.asarray(xy)
    d = -float(SQUARE_DOM.boundary_distance_batch(x[None])[0])
    s_max = math.log(2.0 / d)  # the domain lies within 2 of x
    n = 1000
    psi = (np.arange(n) + 0.5) * (2 * math.pi / n)
    r = d * np.exp((np.arange(n) + 0.5) * (s_max / n))
    y = (x + r[None, :, None] * np.stack([np.cos(psi), np.sin(psi)], axis=1)[:, None, :]
         ).reshape(-1, 2)
    inside = SQUARE_DOM.step_distance(y, 0.0) > 0.0  # exact sign of the distance
    f = np.where(inside, DiskPhi().values_at(y), 0.0).reshape(n, n) / r
    brute = float(f.sum()) * (s_max / n) / n  # C_K = 1 / (2 pi) times d psi = 2 pi / n
    assert eval_u3_slab(ExtensionContext(SQUARE_DOM, DiskPhi()), xy) == pytest.approx(
        brute, rel=5e-4)


def test_exterior_u3_brute_force(ctx):
    # 10^6-node midpoint rule oracle for C_K int phi(y) |y - x|^-3 dy at x = (-1.5, 0)
    x = np.array([-1.5, 0.0])
    n = 1000
    g = ((np.arange(n) + 0.5) / n) * 2.0 - 1.0
    gx, gy = np.meshgrid(g, g)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    r2 = np.sum(pts * pts, axis=1)
    inside = r2 < 1.0
    phi = (2 / math.pi) * np.sqrt(np.maximum(1 - r2, 0.0))
    d3 = np.sum((pts - x) ** 2, axis=1) ** 1.5
    brute = (1 / (2 * math.pi)) * float(np.sum(phi[inside] / d3[inside])) * (2 / n) ** 2
    assert eval_u3_slab(ctx, x) == pytest.approx(brute, rel=1e-4)


def test_grad_matches_fd(ctx):
    x = np.array([0.4, -0.2, 0.8])
    g = eval_u_grad(ctx, x)
    e = 1e-4
    for axis in range(3):
        step = np.zeros(3)
        step[axis] = e
        fd = (eval_u(ctx, x + step) - eval_u(ctx, x - step)) / (2 * e)
        assert g[axis] == pytest.approx(fd, rel=1e-3, abs=1e-8)
    # lower half-space: reflected gradient with the -2 vertical correction
    gl = eval_u_grad(ctx, x * np.array([1, 1, -1]))
    assert gl[2] == pytest.approx(-g[2] - 2.0, rel=1e-10)


def test_u13_two_routes(ctx):
    """Mixed vertical derivative via K_13 against phi and via K_1 against the
    slab vertical derivative field (unit disk; the exterior part is radial)."""
    # radial table of u3 outside the disk
    deltas = np.geomspace(1e-4, 9.0, 60)
    fine = ExtensionContext(ctx.dom, ctx.phi, QuadSpec(rel_tol=1e-7))
    u3_out = np.array([eval_u3_slab(fine, [1.0 + d, 0.0]) for d in deltas])
    table = PchipInterpolator(np.log(deltas), np.log(u3_out))

    def u3_ext(r):
        return np.exp(table(np.log(np.maximum(r - 1.0, 1e-300))))

    x = np.array([0.3, 0.0, 0.8])
    direct = eval_hessian(ctx, x).hess[0, 2]

    def inner(pts):
        rel = np.concatenate([x[:2] - pts, np.full((len(pts), 1), x[2])], axis=1)
        return kernel_K_grad(rel)[:, 0] * (-1.0)

    inner_val, inner_err = integrate(ctx.dom, inner, QuadSpec(rel_tol=1e-8))

    def outer_radial(t):
        # r = 1 + t^2 kills the delta^{-1/2} edge singularity
        r = 1.0 + t * t
        jac = 2.0 * t * r
        angs = np.linspace(0, 2 * np.pi, 256, endpoint=False)
        y = np.stack([r * np.cos(angs), r * np.sin(angs)], axis=1)
        rel = np.concatenate([x[:2] - y, np.full((len(y), 1), x[2])], axis=1)
        k1 = kernel_K_grad(rel)[:, 0]
        return float(np.mean(k1)) * 2 * np.pi * jac * float(u3_ext(r))

    outer_val, outer_err = quad1d(outer_radial, 0.0, math.sqrt(9.0 - 1.0),
                                  limit=200)
    indirect = inner_val + outer_val
    assert direct == pytest.approx(indirect, rel=2e-2)


def _entry_matrix(e):
    e11, e22, e33, e12, e13, e23 = e
    return np.array([[e11, e12, e13], [e12, e22, e23], [e13, e23, e33]])


def test_det_error_matches_dense_adjugate():
    rng = np.random.default_rng(12)
    for _ in range(200):
        a = rng.normal(size=(3, 3))
        h = a + a.T
        err = rng.uniform(0.0, 1.0, 6)
        adj = np.abs(np.linalg.det(h) * np.linalg.inv(h))
        want = float(np.sum(adj * _entry_matrix(err)))
        assert _det_error(h, err) == pytest.approx(want, rel=1e-10)


def test_det_error_singular_matrix():
    # diag(1, 0, -1) plus a 13 coupling: det is exactly zero, yet to first
    # order det = -1.25 h22, so only the 22 entry's error moves it
    h = np.array([[1.0, 0.0, 0.5], [0.0, 0.0, 0.0], [0.5, 0.0, -1.0]])
    assert np.linalg.det(h) == 0.0
    err = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    assert _det_error(h, err) == pytest.approx(1.25 * 0.2, rel=1e-15)


def test_hessian_signature():
    # random rotations of diagonals with known signs; eigenvalues below 1e-9
    # of the largest count as zero
    rng = Generator(Philox(key=31))
    for _ in range(50):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        eig = rng.uniform(0.1, 2.0, 3) * rng.choice([-1.0, 1.0], 3)
        n_pos = int(np.count_nonzero(eig > 0))
        assert hessian_signature(q @ np.diag(eig) @ q.T) == (n_pos, 3 - n_pos, 0)
        eig[0] = 1e-12
        assert sum(hessian_signature(q @ np.diag(eig) @ q.T)[:2]) == 2
    assert hessian_signature(np.diag([1.0, -2.0, -3.0])) == (1, 2, 0)
    assert hessian_signature(np.diag([1.0, 1e-12, -3.0])) == (1, 1, 1)


def test_local_frame_hessian():
    h = np.diag([1.0, 2.0, 3.0])
    # at normal angle 0 the frame is (-e1, -e2, e3): diagonal unchanged
    loc = local_frame_hessian(h, 0.0)
    assert np.allclose(np.diag(loc), [1.0, 2.0, 3.0])
    # at angle pi/2 the planar axes swap
    loc = local_frame_hessian(h, math.pi / 2)
    assert np.allclose(np.diag(loc), [2.0, 1.0, 3.0])


def test_stencil_slab_hessian_on_quadratic():
    # a PhiField differences its own values on the slab; nodes holding a
    # quadratic, read by the bicubic spline far from the collar, give its
    # second derivatives
    dom, spacing = SupportDomain.disk(1.0), 0.01
    half = 1.0 + spacing
    n = int(round(2 * half / spacing)) + 1
    xs = -half + spacing * np.arange(n)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    values = 1.0 - 0.8 * gx ** 2 - 0.5 * gy ** 2 + 0.3 * gx * gy
    field = PhiField(dom, 1.0, [-half, -half], spacing, values, np.zeros_like(values),
                     np.zeros((8, 3)))
    s = eval_hessian(ExtensionContext(dom, field), [0.1, 0.05, 0.0])
    assert s.hess[0, 0] == pytest.approx(-1.6, abs=1e-6)
    assert s.hess[1, 1] == pytest.approx(-1.0, abs=1e-6)
    assert s.hess[0, 1] == pytest.approx(0.3, abs=1e-6)
    assert s.hess[2, 2] == pytest.approx(2.6, abs=1e-6)


class _CountingPhi(DiskPhi):
    """DiskPhi recording the node count of every integrand call."""

    def __init__(self):
        super().__init__()
        self.batches = []

    def values_at(self, pts):
        self.batches.append(len(pts))
        return super().values_at(pts)


_CRITERION5_QUAD = QuadSpec(rel_tol=1e-6, abs_tol=3e-8, max_cells=30000)
# integrand nodes of eval_hessian for the first two criterion-5 cylinder
# points and the S1 probe at h = 0.01 (boundary angle 0) when refinement split
# one 225-node cell per step, in the order of _budget_points()
_ONE_CELL_PER_STEP_NODES = (23400, 25200, 124200)


def _budget_points():
    return [*cylinder_points(3.0, 500)[:2], np.array([1.01, 0.0, 0.125 * 0.01])]


def test_round_refinement_node_budget():
    for x, serial in zip(_budget_points(), _ONE_CELL_PER_STEP_NODES):
        phi = _CountingPhi()
        sample = eval_hessian(ExtensionContext(SupportDomain.disk(1.0), phi, _CRITERION5_QUAD), x)
        assert sample.converged
        assert sum(phi.batches) <= 1.1 * serial, (x, sum(phi.batches), serial)


def test_round_refinement_batches_cells():
    phi = _CountingPhi()
    eval_hessian(ExtensionContext(SupportDomain.disk(1.0), phi, _CRITERION5_QUAD),
                 _budget_points()[2])
    assert max(phi.batches) <= 64 * 225
    assert max(phi.batches) > 225
    assert all(n % 225 == 0 for n in phi.batches)


def test_noisy_integrand_reads_field_with_one_distance_query(monkeypatch):
    dom = SupportDomain.ellipse(0.8, 0.5)
    field = build_field(dom, StableParams(1.0, 2), 0.1, WalkConfig(n_walks=200, seed=4))
    queries = [0]
    query = dom._signed_distance_foot

    def counting(pts, seed=None):
        queries[0] += 1
        return query(pts, seed)

    per_call = []
    real_integrate = extension.integrate

    def integrate_counting(dom_, f, spec, peak):
        def g(pts):
            before = queries[0]
            out = f(pts)
            per_call.append(queries[0] - before)
            return out
        return real_integrate(dom_, g, spec, peak)

    monkeypatch.setattr(dom, "_signed_distance_foot", counting)
    monkeypatch.setattr(extension, "integrate", integrate_counting)
    sample = eval_hessian(ExtensionContext(dom, field), [0.1, 0.05, 0.3])
    assert field.typical_stderr() > 0.0  # the integrand carries the noise columns
    assert np.all(sample.entry_err > 0.0)
    assert per_call and all(n == 1 for n in per_call)


def _exact_ellipse_u(x, a=0.8, b=0.5):
    """The alpha = 1 harmonic extension on the ellipse with semi-axes a, b, in closed form.

    u = x3 R_D(a^2 + lam, b^2 + lam, lam) / (R_D(b^2, 0, a^2) + R_D(a^2, 0, b^2)),
    with lam the largest root of x1^2 / (a^2 + lam) + x2^2 / (b^2 + lam) + x3^2 / lam = 1
    (minus the vertical derivative of the flat ellipsoid's potential); below
    the slab u(x1, x2, -x3) - 2 x3.
    """
    from scipy.optimize import brentq
    from scipy.special import elliprd

    x1, x2, x3 = x
    if x3 < 0:
        return _exact_ellipse_u((x1, x2, -x3), a, b) - 2 * x3
    lam = brentq(lambda t: x1 * x1 / (a * a + t) + x2 * x2 / (b * b + t) + x3 * x3 / t - 1,
                 1e-300, 100.0, xtol=1e-16, rtol=1e-15)
    return x3 * elliprd(a * a + lam, b * b + lam, lam) / (elliprd(b * b, 0, a * a)
                                                         + elliprd(a * a, 0, b * b))


def test_field_integrals_stop_at_the_field_noise():
    # every Poisson integral of a Monte Carlo field floors abs_tol at a quarter
    # of its typical error bar: without it, eval_u_grad ran out of cells at
    # these points under the default QuadSpec, while eval_hessian converged
    field = build_field(SupportDomain.ellipse(0.8, 0.5), StableParams(1.0, 2), 0.1,
                        WalkConfig(n_walks=600, seed=11))
    ctx = ExtensionContext(field.dom, field)
    sigma = field.typical_stderr()
    assert sigma > 0.0
    e = 1e-5
    for x in ([0.2, 0.1, 0.5], [0.1, -0.2, 0.2], [0.3, 0.1, -0.3]):
        x = np.array(x)
        exact = [(_exact_ellipse_u(x + e * step) - _exact_ellipse_u(x - e * step)) / (2 * e)
                 for step in np.eye(3)]
        assert np.max(np.abs(eval_u_grad(ctx, x) - exact)) < 3 * sigma
        assert abs(eval_u(ctx, x) - _exact_ellipse_u(x)) < 3 * sigma


# -- the field protocol: every field class answers the same reads -------------------

@pytest.fixture(scope="module")
def noisy_ellipse_field():
    return build_field(SupportDomain.ellipse(0.8, 0.5), StableParams(1.0, 2), 0.1,
                       WalkConfig(n_walks=200, seed=4))


def _stencil(phi, xy, h):
    """(phi_11, phi_22, phi_12) by centred differences of values_at with step h,
    in PhiField.slab_hessian's point order and arithmetic."""
    x0, y0 = xy
    v = phi.values_at(np.array([
        [x0, y0], [x0 + h, y0], [x0 - h, y0], [x0, y0 + h], [x0, y0 - h],
        [x0 + h, y0 + h], [x0 + h, y0 - h], [x0 - h, y0 + h], [x0 - h, y0 - h],
    ]))
    return ((v[1] - 2 * v[0] + v[2]) / h ** 2, (v[3] - 2 * v[0] + v[4]) / h ** 2,
            (v[5] - v[6] - v[7] + v[8]) / (4 * h ** 2))


@pytest.mark.parametrize("kind", ["DiskPhi", "PhiField"])
def test_field_protocol(kind, request):
    if kind == "DiskPhi":
        dom, phi = SupportDomain.disk(1.0), DiskPhi()
    else:
        phi = request.getfixturevalue("noisy_ellipse_field")
        dom = phi.dom
    pts = np.random.default_rng(9).uniform(-1.1, 1.1, size=(3000, 2))
    d = dom.boundary_distance_batch(pts)
    values = phi.values_at(pts)
    assert values.shape == (len(pts),) and np.all(values[d <= 0] == 0.0)
    assert np.all(values[d > 0] > 0.0)
    assert phi.values_at(pts[0]).shape == (1,)  # one point reads as one row
    sigma = phi.typical_stderr()
    assert isinstance(sigma, float) and sigma >= 0.0
    if sigma > 0.0:  # a noisy field's combined read is its two separate reads, bitwise
        for where in (d > phi.collar, (d > 0) & (d <= phi.collar), d <= 0):
            assert np.count_nonzero(where) > 50  # interior, collar and exterior points
        both = phi.values_and_stderr_at(pts)
        errs = phi.stderr_at(pts)
        assert errs.shape == (len(pts),) and np.all(errs >= 0.0)
        assert both[0].tobytes() == values.tobytes()
        assert both[1].tobytes() == errs.tobytes()
    # the slab Hessian is a centred stencil of values_at: PhiField's is that
    # stencil, DiskPhi's the exact derivatives it approaches
    for xy in ([0.0, 0.0], [0.2, -0.15], [-0.3, 0.1]):
        depth = float(dom.boundary_distance_batch(np.array([xy]))[0])
        *hess, err = phi.slab_hessian(np.array(xy), depth)
        assert err.shape == (6,) and np.all(err >= 0.0)
        if kind == "DiskPhi":
            assert np.allclose(hess, _stencil(phi, xy, 1e-3), rtol=1e-5, atol=1e-8)
        else:
            h = min(max(1e-3, 2.0 * phi.spacing), 0.45 * depth)
            assert [float(v) for v in _stencil(phi, xy, h)] == hess


# -- the mirror memo: a point and its reflection cost one integral -------------------


def _bits(result):
    """Every byte of an evaluation's result, samples included."""
    if isinstance(result, extension.HessianSample):
        return (result.hess.tobytes(), result.entry_err.tobytes(), result.det, result.det_err,
                result.trace, result.signature, result.converged)
    return np.asarray(result).tobytes()


def _counting_integrate(monkeypatch):
    calls = [0]
    real_integrate = extension.integrate

    def counting(dom_, f, spec, peak):
        calls[0] += 1
        return real_integrate(dom_, f, spec, peak)

    monkeypatch.setattr(extension, "integrate", counting)
    return calls


@pytest.mark.parametrize("evaluate", [eval_u, eval_u_grad, eval_hessian])
@pytest.mark.parametrize("first_sign", [-1.0, 1.0], ids=["lower_first", "upper_first"])
@pytest.mark.parametrize("phi", ["disk", "noisy ellipse"])
def test_mirror_twin_matches_a_fresh_context(phi, first_sign, evaluate, noisy_ellipse_field,
                                             monkeypatch):
    if phi == "disk":
        make = lambda: ExtensionContext(SupportDomain.disk(1.0), DiskPhi())  # noqa: E731
        x = np.array([0.3, -0.2, 0.4])
    else:
        field = noisy_ellipse_field
        make = lambda: ExtensionContext(field.dom, field)  # noqa: E731
        x = np.array([0.1, 0.05, 0.3])
        assert field.typical_stderr() > 0.0
    first, second = x * [1, 1, first_sign], x * [1, 1, -first_sign]
    shared = make()
    calls = _counting_integrate(monkeypatch)
    got_first, got_second = evaluate(shared, first), evaluate(shared, second)
    assert calls[0] == 1  # the second side read its twin's integral
    assert not shared._memo
    # the in-place gradient flip of a lower point must not reach its twin
    assert _bits(got_first) == _bits(evaluate(make(), first))
    assert _bits(got_second) == _bits(evaluate(make(), second))


def test_mirror_twin_replays_non_convergence(ctx, monkeypatch):
    def starved():
        return ExtensionContext(ctx.dom, ctx.phi, QuadSpec(rel_tol=1e-14, abs_tol=1e-14,
                                                           max_cells=64))

    x, mirror = np.array([0.2, -0.1, 0.01]), np.array([0.2, -0.1, -0.01])
    shared = starved()
    calls = _counting_integrate(monkeypatch)
    up, lo = eval_hessian(shared, x), eval_hessian(shared, mirror)
    assert calls[0] == 1
    assert not up.converged and not lo.converged
    assert _bits(lo) == _bits(eval_hessian(starved(), mirror))
    with pytest.raises(NonConvergedError) as fresh:
        eval_u(starved(), mirror)
    with pytest.raises(NonConvergedError):
        eval_u(shared, x)
    with pytest.raises(NonConvergedError) as twin:
        eval_u(shared, mirror)
    assert twin.value.value == fresh.value.value
    assert twin.value.err_estimate == fresh.value.err_estimate


def test_scan_with_reflections_integrates_each_pair_once(ctx, monkeypatch):
    pts = cylinder_points(3.0, 12)
    both = np.concatenate([pts, pts * np.array([1.0, 1.0, -1.0])])
    fresh = ExtensionContext(ctx.dom, ctx.phi)
    calls = _counting_integrate(monkeypatch)
    hessian_scan(fresh, both)
    assert calls[0] == len(pts)
    assert not fresh._memo
    # only a twin reads the memo: points seen before on the same side are
    # integrated again, and keep their integrals for a twin still to come
    hessian_scan(fresh, pts)
    hessian_scan(fresh, pts)
    assert calls[0] == 3 * len(pts)
    assert len(fresh._memo) == len(pts)


def test_memo_keeps_at_most_its_cap(ctx, monkeypatch):
    assert extension._MEMO_CAP >= 1024  # room for a 500-point scan's twins in a later call
    monkeypatch.setattr(extension, "_MEMO_CAP", 8)
    fresh = ExtensionContext(ctx.dom, ctx.phi)
    pts = cylinder_points(3.0, 20)
    for x in pts:
        eval_u(fresh, x)
    assert len(fresh._memo) == 8
    calls = _counting_integrate(monkeypatch)
    eval_u(fresh, pts[-1] * [1, 1, -1])  # its twin is among the newest eight
    assert calls[0] == 0
    eval_u(fresh, pts[0] * [1, 1, -1])  # the oldest twins were dropped
    assert calls[0] == 1
    assert len(fresh._memo) <= 8


def test_a_scan_pairs_its_twins_past_the_memo_cap(ctx, monkeypatch):
    # more pairs than the memo holds: each point's twin runs right after it,
    # so no twin is dropped before its pair arrives, and the rows keep their order
    pts = cylinder_points(3.0, 10)
    both = np.concatenate([pts, pts * np.array([1.0, 1.0, -1.0])])
    want = hessian_scan(ExtensionContext(ctx.dom, ctx.phi), both)
    monkeypatch.setattr(extension, "_MEMO_CAP", 8)
    calls = _counting_integrate(monkeypatch)
    got = hessian_scan(ExtensionContext(ctx.dom, ctx.phi), both)
    assert calls[0] == len(pts)
    assert got.points.tobytes() == both.tobytes()
    assert got.values.tobytes() == want.values.tobytes()
    assert got.json_text() == want.json_text()


def test_memo_under_many_threads(ctx):
    # more workers than cores, switching often: twins read and write the memo
    # at once, and every result must still be a fresh context's
    pts = cylinder_points(3.0, 24)
    both = np.concatenate([pts, pts * np.array([1.0, 1.0, -1.0])])
    expected = [_bits(eval_hessian(ExtensionContext(ctx.dom, ctx.phi), x)) for x in both]
    shared = ExtensionContext(ctx.dom, ctx.phi)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(eval_hessian, shared, x)
                       for x in np.concatenate([both, both[::-1]])]
            got = [_bits(f.result(timeout=120)) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == expected + expected[::-1]


def test_context_is_immutable(ctx):
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctx.quad = QuadSpec(rel_tol=1e-3)
