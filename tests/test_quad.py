import math

import numpy as np
import pytest

from stabletau import geom, quad
from stabletau.errors import NewtonError, NonConvergedError
from stabletau.geom import SupportDomain
from stabletau.quad import QuadSpec, integrate

SQUARE = [[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]]


@pytest.fixture(scope="module")
def disk():
    return SupportDomain.disk(1.0)


def _r2(pts):
    return np.sum(pts * pts, axis=1)


def test_area(disk):
    val, err = integrate(disk, lambda p: np.ones(len(p)))
    assert val == pytest.approx(math.pi, abs=1e-10)
    assert abs(val - math.pi) <= max(err, 1e-12)


def test_ellipse_area():
    ell = SupportDomain.ellipse(0.8, 0.5)
    val, _ = integrate(ell, lambda p: np.ones(len(p)), QuadSpec(rel_tol=1e-10))
    assert val == pytest.approx(math.pi * 0.4, abs=1e-9)


def test_dome(disk):
    val, err = integrate(disk, lambda p: np.sqrt(np.maximum(1 - _r2(p), 0.0)),
                         QuadSpec(rel_tol=1e-9))
    assert val == pytest.approx(2 * math.pi / 3, abs=1e-8)
    assert abs(val - 2 * math.pi / 3) <= err


def test_boundary_singular(disk):
    # integrable inverse-square-root edge singularity
    val, err = integrate(
        disk, lambda p: 1.0 / np.sqrt(np.maximum(1 - _r2(p), 1e-300)),
        QuadSpec(rel_tol=2e-7, max_cells=16384))
    assert val == pytest.approx(2 * math.pi, abs=1e-6)


def test_linearity(disk):
    f = lambda p: np.exp(-_r2(p))
    g = lambda p: p[:, 0] ** 2 + 0.3
    spec = QuadSpec(rel_tol=1e-9)
    vf, ef = integrate(disk, f, spec)
    vg, eg = integrate(disk, g, spec)
    vc, ec = integrate(disk, lambda p: 2.0 * f(p) - 0.5 * g(p), spec)
    assert vc == pytest.approx(2 * vf - 0.5 * vg, abs=2 * ef + 0.5 * eg + ec + 1e-12)


def test_polar_anchor_consistency(disk):
    # anchoring a smooth integrand off-centre must not change the answer
    f = lambda p: np.cos(p[:, 0]) * (1 + p[:, 1])
    spec = QuadSpec(rel_tol=1e-9)
    v0, e0 = integrate(disk, f, spec)
    v1, e1 = integrate(disk, f, spec, peak=(0.4, -0.2))
    assert v1 == pytest.approx(v0, abs=e0 + e1 + 1e-12)
    # anchors outside the domain are projected to the nearest boundary point
    v2, e2 = integrate(disk, f, spec, peak=(2.0, 0.0))
    assert v2 == pytest.approx(v0, abs=e0 + e2 + 1e-10)


def test_budget_doubling_never_worse(disk):
    integrands = [
        lambda p: 1.0 / np.sqrt(np.maximum(1 - _r2(p), 1e-300)),
        lambda p: 1.0 / (0.01 + _r2(p)),
        lambda p: np.abs(p[:, 0]),
    ]
    for f in integrands:
        errs = []
        for cells in (128, 256, 512, 1024):
            try:
                _, err = integrate(disk, f, QuadSpec(rel_tol=1e-14, abs_tol=1e-14,
                                                     max_cells=cells))
            except NonConvergedError as exc:
                err = exc.err_estimate
            errs.append(float(np.max(err)))
        # monotone up to estimator noise: once refinement floors out, extra
        # budget reshuffles sub-dominant cells by a fraction of the estimate
        assert all(b <= a * (1 + 1e-3) for a, b in zip(errs, errs[1:]))


def test_inverse_sqrt_edge_converges(disk):
    # the graded radial map makes 1 / sqrt(d) at the rim smooth in the chart
    val, err = integrate(disk, lambda p: 1.0 / np.sqrt(np.maximum(1 - _r2(p), 1e-300)),
                         QuadSpec(rel_tol=1e-12, abs_tol=1e-14, max_cells=64))
    assert abs(val - 2 * math.pi) <= 1e-10
    assert abs(val - 2 * math.pi) <= max(err, 1e-12)


def test_nonconverged_carries_value(disk):
    # d^(-3/4) at the rim stays singular under the map; its integral is 4 pi
    with pytest.raises(NonConvergedError) as info:
        integrate(disk, lambda p: np.maximum(1 - _r2(p), 1e-300) ** -0.75,
                  QuadSpec(rel_tol=1e-12, abs_tol=1e-14, max_cells=64))
    assert info.value.value == pytest.approx(4 * math.pi, rel=0.05)
    assert info.value.err_estimate > 0


def _one_inf(p):
    out = np.ones(len(p))
    out[0] = np.inf
    return out


@pytest.mark.filterwarnings("ignore:invalid value encountered")  # inf times a zero weight
@pytest.mark.parametrize("f", [lambda p: np.full(len(p), np.nan), _one_inf],
                         ids=["nan", "one-inf"])
def test_non_finite_total_is_non_convergence(disk, monkeypatch, f):
    # a NaN or inf total is never returned as a value, and nothing is refined
    evaluated = []
    real = quad._eval_cell

    def counting(chart, g, cells):
        evaluated.append(len(cells))
        return real(chart, g, cells)

    monkeypatch.setattr(quad, "_eval_cell", counting)
    with pytest.raises(NonConvergedError, match="not finite") as info:
        integrate(disk, f)
    assert not math.isfinite(info.value.value) or not math.isfinite(info.value.err_estimate)
    assert evaluated == [32]  # the first cells only


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadSpec(max_cells=32)


@pytest.mark.parametrize("height", [-1e-3, -1e-300, math.nan, math.inf, -math.inf])
def test_spec_rejects_bad_height(disk, monkeypatch, height):
    # the peak's height is checked before any integrand evaluation
    calls = []
    monkeypatch.setattr(quad, "_eval_cell", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="peak height"):
        integrate(disk, lambda p: np.ones(len(p)), QuadSpec(), peak=(0.1, 0.2, height))
    assert calls == []


@pytest.mark.parametrize("seed", range(6))
def test_largest_matches_stable_argsort(seed):
    # integrate's pick of the cells to bisect: the stable argsort's first k,
    # ties in index order, found without sorting every key
    rng = np.random.default_rng(seed)
    for n in (1, 2, 7, 31, 32, 33, 200, 3000):
        key = rng.integers(0, max(2, n // 8), n).astype(float) * 0.25
        key[rng.random(n) < 0.1] = 0.0
        key[rng.random(n) < 0.02] = np.inf
        if seed % 2:
            key += rng.random(n) * (rng.random(n) < 0.5)
        for k in (1, 2, 5, 32, n - 1, n, n + 3):
            if k < 1:
                continue
            want = np.argsort(-key, kind="stable")[:k]
            got = quad._largest(key, k)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (n, k)


def test_vector_integrand(disk):
    def f(p):
        return np.stack([np.ones(len(p)), p[:, 0] ** 2, np.abs(p[:, 1]) ** 3], axis=1)

    vals, errs = integrate(disk, f, QuadSpec(rel_tol=1e-9))
    assert vals.shape == (3,) and errs.shape == (3,)
    assert vals[0] == pytest.approx(math.pi, abs=1e-9)
    assert vals[1] == pytest.approx(math.pi / 4, abs=1e-8)
    assert vals[2] == pytest.approx(8.0 / 15.0, abs=1e-6)  # r^4 radial x |sin|^3 angular
    # component-wise agreement with scalar runs
    v0, _ = integrate(disk, lambda p: p[:, 0] ** 2, QuadSpec(rel_tol=1e-9))
    assert vals[1] == pytest.approx(v0, abs=1e-10)


def test_pointwise_integrand(disk):
    # integrands are vectorised; a pointwise one is rejected, not looped over
    with pytest.raises(ValueError, match="225 nodes"):
        integrate(disk, lambda p: 1.0 + p[0] * p[1], QuadSpec(max_cells=256))


def _radial_extent_bisection(dom, c, psi, start=None):
    """R(psi) about c by bisection on the boundary parametrisation.

    The boundary point with outer normal theta, b = h u + h' u_perp, turns
    monotonically about an interior c as theta grows, so the normal angle of
    the boundary point on the ray psi is bracketed on a grid and bisected;
    no distance query and no Newton step is involved.  For c = b(start) on
    the boundary the grid runs over (start, start + 2 pi), where b - c does
    not vanish, and psi must point into the domain.
    """
    def polar(theta):
        h, hp = dom.support(theta), dom.support(theta, 1)
        bx = h * np.cos(theta) - hp * np.sin(theta) - c[0]
        by = h * np.sin(theta) + hp * np.cos(theta) - c[1]
        return np.arctan2(by, bx), np.hypot(bx, by)

    grid = np.linspace(0.0, 2 * np.pi, 4097)
    if start is not None:
        grid = start + grid[1:-1]
    turn = np.unwrap(polar(grid)[0])
    target = turn[0] + np.mod(psi - turn[0], 2 * np.pi)
    k = np.clip(np.searchsorted(turn, target) - 1, 0, grid.size - 2)
    lo, hi = grid[k], grid[k + 1]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        before = np.mod(polar(mid)[0] - target + np.pi, 2 * np.pi) < np.pi
        lo, hi = np.where(before, mid, lo), np.where(before, hi, mid)
    return polar(0.5 * (lo + hi))[1]


@pytest.mark.parametrize("dom, anchor", [
    (SupportDomain.from_polygon(SQUARE), (0.1, -0.2)),
    (SupportDomain.from_polygon(SQUARE), (0.45, 0.4)),
    (SupportDomain.ellipse(0.9, 0.15), (0.0, 0.0)),
    (SupportDomain.ellipse(0.9, 0.15), (0.7, -0.05)),
    (SupportDomain.ellipse(0.8, 0.5), (0.0, 0.0)),
    (SupportDomain.ellipse(0.8, 0.5), (0.5, 0.3)),
    (SupportDomain.ellipse(0.8, 0.5), (0.799, 0.0)),  # 1e-3 deep at the sharp end
    # boundary anchors, given by their normal angle
    (SupportDomain.ellipse(0.8, 0.5), 0.7),
    (SupportDomain.ellipse(0.8, 0.5), math.pi),
    (SupportDomain.ellipse(0.9, 0.15), 0.05),
    (SupportDomain.from_polygon(SQUARE), 2.0),
])
def test_radial_extent_matches_bisection(dom, anchor):
    psi = np.linspace(0.0, 2 * np.pi, 2000, endpoint=False)
    if isinstance(anchor, tuple):
        R = quad._PolarChart(dom, anchor).radial_extent(psi)
        oracle = _radial_extent_bisection(dom, np.asarray(anchor), psi)
        assert np.max(np.abs(R - oracle)) < 1e-11
        return
    # a boundary anchor's chart holds the inward rays, tangent ends included
    psi = anchor + np.pi * np.linspace(0.5, 1.5, 1001)
    c = dom.boundary_point(anchor)
    R = quad._PolarChart(dom, c, anchor).radial_extent(psi)
    assert np.all(np.isfinite(R[[0, -1]])) and np.all(R[[0, -1]] >= 0.0)
    # the reference's grid does not bracket rays within 0.6 degrees of the tangent
    inward = np.cos(psi - anchor) < -0.01
    oracle = _radial_extent_bisection(dom, c, psi[inward], start=anchor)
    assert np.max(np.abs(R[inward] - oracle)) < 1e-11


@pytest.mark.parametrize("dom", [SupportDomain.ellipse(0.9, 0.15), SupportDomain.ellipse(0.8, 0.5),
                                 SupportDomain.from_polygon(SQUARE)],
                         ids=["ellipse-0.9-0.15", "ellipse-0.8-0.5", "square"])
def test_radial_extent_next_to_a_boundary_anchors_tangents(dom):
    # rays 1e-9 to 6e-4 rad inside either tangent, where N is at rounding
    # level and Newton stalls: each ray's end lies on the boundary
    offsets = np.geomspace(1e-9, 6e-4, 30)
    for n in np.linspace(0.0, 2 * np.pi, 12, endpoint=False):
        c = dom.boundary_point(n)
        chart = quad._PolarChart(dom, c, n)
        psi = np.concatenate([n + 0.5 * np.pi + offsets, n + 1.5 * np.pi - offsets])
        R = chart.radial_extent(psi)
        end = c + R[:, None] * np.stack([np.cos(psi), np.sin(psi)], axis=1)
        assert np.max(np.abs(dom.boundary_distance_batch(end))) < 1e-11, n


def test_radial_extent_raises_when_newton_stalls(monkeypatch):
    chart = quad._PolarChart(SupportDomain.from_polygon(SQUARE), (0.1, -0.2))
    monkeypatch.setattr(geom, "_NEWTON_STEPS", 1)
    with pytest.raises(NewtonError):
        chart.radial_extent(np.linspace(0.0, 2 * np.pi, 200, endpoint=False))


def _eval_cell_reference(chart, f, cells):
    """_eval_cell with np.unique spans and the nodes as one 4-D broadcast.

    Chart coordinates (psi, s) map to y = c + rho(s) R(psi) u(psi) with
    rho = s + s^2 - s^3, written in Horner form, and Jacobian
    rho R^2 rho'(s), rho' = (1 - s)(1 + 3 s).  The split axis follows the
    rule on its own: psi may be split on cells at least 1e-12 wide, s where
    both halves' outermost Kronrod nodes clear their ends in rho by more than
    the chart's margin (relative); psi is taken if it may be split and loses
    at least as much as s or s may not be split, else s if it may be, else -1.
    """
    p0, p1, s0, s1 = cells.T
    ph, sh = 0.5 * (p1 - p0), 0.5 * (s1 - s0)
    s = 0.5 * (s0 + s1)[:, None] + sh[:, None] * quad._XGK
    rho = s * (1.0 + s * (1.0 - s))
    drho = (1.0 - s) * (1.0 + 3.0 * s)
    spans, span_of = np.unique(cells[:, :2], axis=0, return_inverse=True)
    a0, a1 = spans.T
    psi = 0.5 * (a0 + a1)[:, None] + 0.5 * (a1 - a0)[:, None] * quad._XGK
    R = chart.radial_extent(psi.ravel()).reshape(psi.shape)[span_of]
    u = np.stack([np.cos(psi), np.sin(psi)], axis=-1)[span_of]
    rad = rho[:, None, :] * R[:, :, None]
    nodes = (chart.center + rad[..., None] * u[:, :, None, :]).reshape(-1, 2)
    vals = np.asarray(f(nodes), dtype=float)
    area = (ph * sh)[:, None] * drho  # per s node
    jac = rad * R[:, :, None] * area[:, None, :]
    wv = jac.reshape(len(cells), -1, 1) * vals.reshape(len(cells), jac[0].size, -1)
    vk, vg, v_gpsi, v_gs = np.moveaxis(quad._W @ wv, 1, 0)
    err_psi = np.abs(vk - v_gpsi)
    err_s = np.abs(vk - v_gs)
    err = np.maximum(np.abs(vk - vg), np.maximum(err_psi, err_s))
    margin = 0.0 if chart.scale is None else quad._MAPPED_MARGIN
    can_psi, can_s, mid = p1 - p0 >= 1e-12, np.ones(len(cells), dtype=bool), 0.5 * (s0 + s1)
    for a, b in ((s0, mid), (mid, s1)):
        c, h = 0.5 * (a + b), 0.5 * (b - a)
        r0, r1, r2, r3 = (x * (1.0 + x * (1.0 - x))
                          for x in (a, c + h * quad._XGK[0], c + h * quad._XGK[-1], b))
        can_s &= (r1 - r0 > margin * r1) & (r3 - r2 > margin * r3)
    axis = np.full(len(cells), -1)
    axis[can_s] = 1
    axis[can_psi & ((np.max(err_psi, axis=1) >= np.max(err_s, axis=1)) | ~can_s)] = 0
    return vk, err, axis


def _cell_sets(normal=None):
    """Cell sets over the whole turn, or over the inward half-plane of a boundary anchor."""
    sectors, start = (8, 0.0) if normal is None else (4, normal + 0.5 * np.pi)
    i, j = np.divmod(np.arange(4 * sectors), 4)  # integrate's first cells: shared psi spans
    first = np.stack([start + np.pi / 4 * i, start + np.pi / 4 * (i + 1), j / 4, (j + 1) / 4],
                     axis=1)
    # spans that share one edge only: [a, b], [b, c] and [a, c]
    a, b, c = 0.4, 0.9, 1.7
    edges = np.array([[a, b, 0.0, 0.5], [b, c, 0.0, 0.5], [a, c, 0.5, 1.0],
                      [a, b, 0.5, 1.0], [b, c, 0.25, 0.5]])
    rng = np.random.default_rng(4)
    lo = rng.integers(0, 40, 64) * (2 * np.pi / 40)
    wide = rng.integers(1, 3, 64) * (2 * np.pi / 80)
    r0 = rng.integers(0, 8, 64) / 8
    many = np.stack([lo, lo + wide, r0, r0 + rng.integers(1, 3, 64) / 16], axis=1)
    # cells that may not be split in psi (narrower than 1e-12, or of no width,
    # where the losses tie at 0 and psi is preferred), in s (at the rim, where
    # the children's outermost nodes round onto their ends), or either
    psi0 = rng.uniform(0.0, 2 * np.pi, 12)
    narrow = np.choose(np.arange(12) % 3, [2 * np.pi / 40, 0.0, 10.0 ** rng.uniform(-16, -12.5, 12)])
    rim = 1.0 - 0.5 ** rng.integers(30, 52, 12)
    s0 = np.where(np.arange(12) % 2 == 0, rim, rng.integers(0, 8, 12) / 8)
    stuck = np.stack([psi0, psi0 + narrow, s0, np.where(s0 == rim, 1.0, s0 + 1 / 8)], axis=1)
    if normal is not None:  # squeeze psi in [0, 2 pi] onto the inward half
        for cells in (edges, many, stuck):
            cells[:, :2] = start + 0.5 * cells[:, :2]
    return {"first": first, "one edge": edges, "one cell": first[5:6], "64 cells": many,
            "unsplittable": stuck}


def _boundary_anchor():
    ell = SupportDomain.ellipse(0.8, 0.5)
    (foot,), (theta,), _ = ell.nearest_boundary(np.array([[0.9, 0.6]]))
    return ell, foot, theta


def _charts():
    disk, ell = SupportDomain.disk(1.0), SupportDomain.ellipse(0.8, 0.5)
    _, foot, theta = _boundary_anchor()
    return {"disk": quad._PolarChart(disk, (0.3, -0.2)),
            "ellipse": quad._PolarChart(ell, (0.2, -0.1)),
            "ellipse boundary": quad._PolarChart(ell, foot, theta)}


def _integrands():
    from stabletau.closedform import kernel_K_hess_components

    def hess(p):
        rel = np.empty((len(p), 3))
        rel[:, :2] = [0.25, 0.1] - p
        rel[:, 2] = 0.05
        return kernel_K_hess_components(rel) * np.exp(-_r2(p))[:, None]

    return {1: lambda p: np.sqrt(np.maximum(1.2 - _r2(p), 0.0)),
            6: hess,
            12: lambda p: np.concatenate([hess(p), np.abs(hess(p)) * p[:, :1]], axis=1)}


@pytest.mark.parametrize("cells", list(_cell_sets()))
@pytest.mark.parametrize("chart", list(_charts()))
@pytest.mark.parametrize("m", [1, 6, 12])
def test_eval_cell_bitwise(cells, chart, m):
    normal = _boundary_anchor()[2] if chart == "ellipse boundary" else None
    cells, chart, f = _cell_sets(normal)[cells], _charts()[chart], _integrands()[m]
    got, want = quad._eval_cell(chart, f, cells), _eval_cell_reference(chart, f, cells)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.ascontiguousarray(g).tobytes() == np.ascontiguousarray(w).tobytes()
    # integrate sums the values over cells: the same layout gives the same sums
    assert got[0].sum(axis=0).tobytes() == want[0].sum(axis=0).tobytes()


def _scales(monkeypatch):
    """Record the chart scale and the first cells of every integrate call."""
    seen = []
    real = quad._eval_cell

    def recording(chart, f, cells):
        if not seen or seen[-1][0] is not chart:
            seen.append((chart, cells.copy()))
        return real(chart, f, cells)

    monkeypatch.setattr(quad, "_eval_cell", recording)
    return seen


# kernel peaks over an interior anchor and over a boundary anchor (height 0,
# the scale is the distance to the foot)
_PEAKS = {"interior": lambda eps: (0.3, -0.2, eps), "boundary": lambda eps: (1.0 + eps, 0.0, 0.0)}


@pytest.mark.parametrize("eps", [1e-3, 1e-2, 0.1])
@pytest.mark.parametrize("peak", list(_PEAKS))
def test_mapped_chart_area_and_dome(disk, monkeypatch, eps, peak):
    seen = _scales(monkeypatch)
    val, err = integrate(disk, lambda p: np.ones(len(p)), peak=_PEAKS[peak](eps))
    assert val == pytest.approx(math.pi, abs=1e-10)
    assert abs(val - math.pi) <= max(err, 1e-12)
    val, err = integrate(disk, lambda p: np.sqrt(np.maximum(1 - _r2(p), 0.0)),
                         QuadSpec(rel_tol=1e-9), _PEAKS[peak](eps))
    assert val == pytest.approx(2 * math.pi / 3, abs=1e-8)
    assert abs(val - 2 * math.pi / 3) <= err
    assert [chart.scale for chart, _ in seen] == [pytest.approx(eps, rel=1e-12)] * 2


def test_chart_maps_only_below_the_threshold(disk, monkeypatch):
    seen = _scales(monkeypatch)
    f = lambda p: np.ones(len(p))
    for c in [(0.3, -0.2), (0.3, -0.2, 0.125), (0.3, -0.2, 1e-5), (1.05, 0.0, 0.05),
              (1.2, 0.0, 0.0)]:
        integrate(disk, f, peak=c)
    # no height, the threshold (1/8 of the disk's radius), a floored scale,
    # an exterior peak at hypot(0.05, 0.05) from its foot, one 0.2 from it
    scales = [chart.scale for chart, _ in seen]
    assert scales[0] is None and scales[1] is None and scales[4] is None
    assert scales[2] == quad._SCALE_FLOOR
    assert scales[3] == pytest.approx(math.hypot(0.05, 0.05), rel=1e-12)


def test_boundary_chart_starts_resolved_at_the_kernel_scale(disk, monkeypatch):
    seen = _scales(monkeypatch)
    f = lambda p: np.ones(len(p))
    integrate(disk, f, peak=(1.01, 0.0, 0.0))
    integrate(disk, f, peak=(1.01, 0.0))
    (mapped, first), (plain, plain_first) = seen
    assert plain.scale is None and len(plain_first) == 16
    # sectors from each tangent ray at 0.01, 0.04 and 0.16 (0.64 > pi/4 is not added)
    start, end = 0.5 * np.pi, 1.5 * np.pi
    near = np.array([0.01, 0.04, 0.16])
    want = np.concatenate([[start], start + near, start + np.pi / 4 * np.arange(1, 4),
                           end - near[::-1], [end]])
    edges = np.unique(first[:, :2])
    assert len(first) == 4 * (len(want) - 1)
    np.testing.assert_allclose(edges, want, rtol=0, atol=1e-12)
    assert np.all(first[:, 1] > first[:, 0])


@pytest.mark.parametrize("chart", ["disk interior", "ellipse boundary"])
def test_mapped_s_split_keeps_nodes_off_edges(chart):
    # near the anchor and near the rim, every s-split that _splittable allows
    # on a mapped chart puts each child's nodes strictly inside its mapped ends
    if chart == "disk interior":
        chart = quad._PolarChart(SupportDomain.disk(1.0), (0.3, -0.2), scale=1e-3)
        psi0, psi1 = 0.0, 2 * np.pi
    else:
        ell, foot, theta = _boundary_anchor()
        chart = quad._PolarChart(ell, foot, theta, scale=2e-3)
        psi0, psi1 = theta + 0.5 * np.pi, theta + 1.5 * np.pi
    k = np.arange(1, 64)
    near_anchor = np.stack([np.zeros_like(k, dtype=float), 0.5 ** k], axis=1)
    near_rim = np.stack([1.0 - 0.5 ** k, np.ones_like(k, dtype=float)], axis=1)
    inner = np.stack([0.3 - 0.5 ** k, 0.3 + 0.5 ** k], axis=1)
    s = np.concatenate([near_anchor, near_rim, inner])
    # rays across the chart, and rays within 1e-9..1e-3 rad of a tangent
    psi = np.concatenate([np.linspace(psi0, psi1, 301)[1:-1], psi0 + np.geomspace(1e-9, 1e-3, 20),
                          psi1 - np.geomspace(1e-9, 1e-3, 20)])
    R = chart.radial_extent(psi)
    cells = np.concatenate([np.full((len(s), 1), psi0), np.full((len(s), 1), psi1), s], axis=1)
    can = quad._splittable(cells, quad._MAPPED_MARGIN)[:, 1]
    assert can.any() and not can.all()
    # with no psi width, where the losses tie at 0, _eval_cell splits these
    # cells in s exactly where the chart's margin allows; 0 would allow more
    flat = cells.copy()
    flat[:, 1] = psi0
    axes = quad._eval_cell(chart, lambda p: np.ones(len(p)), flat)[2]
    assert np.array_equal(axes, np.where(can, 1, -1))
    assert np.any(quad._splittable(cells, 0.0)[:, 1] & ~can)
    for s0, s1 in s[can]:
        mid = 0.5 * (s0 + s1)
        for lo, hi in ((s0, mid), (mid, s1)):
            c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
            g = quad._graded(np.array([lo, c + h * quad._XGK[0], c + h * quad._XGK[-1], hi]))[0]
            r = chart.radii(g[None, :], R[None, :])[0][0]  # (ray, 4)
            assert np.all(r[:, 1] > r[:, 0]) and np.all(r[:, 2] < r[:, 3]), (lo, hi)
            if hi == 1.0:  # the outermost node stays inside the boundary itself
                assert np.all(r[:, 2] < R), (lo, hi)


def test_cell_undone_as_rounding_noise_is_not_split_again(disk, monkeypatch):
    # the dome's estimates reach rounding level, where bisections are undone;
    # a cell is bisected at most once, so an undone one is never picked again
    # (checked as each round's children come, since picking it again may loop)
    errs, parents, undone = {}, set(), []
    real = quad._eval_cell

    def recording(chart, f, cells):
        vals, err, axes = real(chart, f, cells)
        if errs:  # children: each parent's first halves, then its second halves
            k = len(cells) // 2
            a, b = cells[:k], cells[k:]
            cut = np.stack([a[:, 0], b[:, 1], a[:, 2], b[:, 3]], axis=1)
            was = np.array([errs[c.tobytes()] for c in cut])
            pair_val, pair_err = vals[:k] + vals[k:], err[:k] + err[k:]
            undone.extend(np.all((pair_err >= was)
                                 & (pair_err <= quad._ROUNDING * np.abs(pair_val)), axis=1))
            for c in cut:
                assert c.tobytes() not in parents, c
                parents.add(c.tobytes())
        errs.update((c.tobytes(), e) for c, e in zip(cells, err))
        return vals, err, axes

    monkeypatch.setattr(quad, "_eval_cell", recording)
    with pytest.raises(NonConvergedError):
        integrate(disk, lambda p: np.sqrt(np.maximum(1 - _r2(p), 0.0)),
                  QuadSpec(rel_tol=1e-15, abs_tol=1e-300))
    assert sum(undone) > 0
