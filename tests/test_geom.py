import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabletau import geom
from stabletau.errors import DomainFileError, NonConvexError, NotInUnitBallError, PointOutsideError
from stabletau.geom import (
    ConeDomain,
    SupportDomain,
    deform,
    domain_gap,
    load_domain,
    save_domain,
)


@pytest.fixture(scope="module")
def ellipse():
    return SupportDomain.ellipse(0.8, 0.5)


def test_contains_disk():
    disk = SupportDomain.disk(1.0)
    assert disk.contains([0.0, 0.0])
    assert not disk.contains([2.0, 0.0])
    assert not disk.contains([1.0, 0.0])  # boundary reports outside


def test_contains_ellipse(ellipse):
    # semi-axes 0.8/0.5: x1 = 0.79 < 0.8 is interior
    assert ellipse.contains([0.79, 0.0])
    assert not ellipse.contains([0.81, 0.0])
    assert ellipse.contains([0.0, 0.49])
    assert not ellipse.contains([0.0, 0.51])


def test_boundary_distance_disk():
    disk = SupportDomain.disk(1.0)
    assert disk.boundary_distance([0.3, 0.0]) == pytest.approx(0.7, abs=1e-12)
    assert disk.boundary_distance([0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)


def test_boundary_distance_ellipse(ellipse):
    # min semi-axis; cross-checked by dense-grid minimisation
    assert ellipse.boundary_distance([0.0, 0.0]) == pytest.approx(0.5, abs=1e-9)
    tg = np.linspace(0, 2 * np.pi, 20000, endpoint=False)
    dense = float(np.min(ellipse.support(tg)))
    assert ellipse.boundary_distance([0.0, 0.0]) == pytest.approx(dense, abs=1e-7)


def test_boundary_distance_outside_raises(ellipse):
    with pytest.raises(PointOutsideError):
        ellipse.boundary_distance([2.0, 0.0])


def test_curvature_disks():
    assert SupportDomain.disk(0.5).curvature(1.234) == pytest.approx(2.0, abs=1e-12)
    assert SupportDomain.disk(1.0).curvature(0.0) == pytest.approx(1.0, abs=1e-12)


def test_curvature_ellipse(ellipse):
    # a/b^2 at the major vertex (outer normal angle 0)
    assert ellipse.curvature(0.0) == pytest.approx(3.2, rel=1e-9)
    # cross-check by finite differences of the boundary parameterisation
    h = 1e-4
    pts = ellipse.boundary_point(np.array([-h, 0.0, h]))
    d1 = (pts[2] - pts[0]) / (2 * h)
    d2 = (pts[2] - 2 * pts[1] + pts[0]) / h**2
    kappa_fd = abs(d1[0] * d2[1] - d1[1] * d2[0]) / np.linalg.norm(d1) ** 3
    assert ellipse.curvature(0.0) == pytest.approx(kappa_fd, rel=1e-5)


def test_nonconvex_rejected():
    with pytest.raises(NonConvexError):
        SupportDomain(np.array([[1.0, 0.0], [0.0, 0.0], [0.5, 0.0]]))


def test_nonpositive_support_rejected():
    with pytest.raises(NonConvexError):
        SupportDomain(np.array([[0.1, 0.0], [0.5, 0.0]]))


def test_classify_disks():
    cl = SupportDomain.disk(0.5).classify()
    assert cl.R1 == pytest.approx(0.5, abs=1e-12)
    assert cl.kappa1 == pytest.approx(2.0, abs=1e-9)
    assert cl.kappa2 == pytest.approx(2.0, abs=1e-9)
    assert cl.C1 < 1e-9
    cl1 = SupportDomain.disk(1.0).classify()
    assert cl1.R1 == pytest.approx(1.0, abs=1e-12)
    assert cl1.kappa1 == pytest.approx(1.0, abs=1e-9)


def test_classify_ellipse(ellipse):
    cl = ellipse.classify()
    # curvature extrema b/a^2 and a/b^2
    assert cl.kappa1 == pytest.approx(0.5 / 0.64, rel=1e-9)
    assert cl.kappa2 == pytest.approx(0.8 / 0.25, rel=1e-9)
    assert cl.R1 == pytest.approx(0.5, abs=1e-9)
    assert cl.C1 > 0


def test_classify_requires_unit_ball():
    with pytest.raises(NotInUnitBallError):
        SupportDomain.disk(1.5).classify()


def test_deform_disk():
    d = deform(SupportDomain.disk(0.5), 0.5)
    # radius (1-t) 0.5 + t = 0.75; curvature 4/3 matches 1/((1-t) R + t)
    assert d.support(0.3) == pytest.approx(0.75, abs=1e-15)
    assert d.curvature(2.0) == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_deform_endpoints(ellipse):
    d1 = deform(ellipse, 1.0)
    tg = np.linspace(0, 2 * np.pi, 64)
    assert np.allclose(d1.support(tg), 1.0, atol=1e-15)
    d0 = deform(ellipse, 0.0)
    assert np.allclose(d0.coeffs, ellipse.coeffs)


def test_deform_support_is_affine(ellipse):
    # (1-t) h + t, exactly, at every angle
    tg = np.linspace(0, 2 * np.pi, 257)
    for t in (0.125, 0.5, 0.875):
        got = deform(ellipse, t).support(tg)
        want = (1 - t) * ellipse.support(tg) + t
        assert np.allclose(got, want, atol=1e-14)


def test_deform_curvature_pinching(ellipse):
    # curvature of D(t) stays between kappa1 ^ 1 and kappa2 v 1
    cl = ellipse.classify()
    lo, hi = min(cl.kappa1, 1.0) - 1e-6, max(cl.kappa2, 1.0) + 1e-6
    tg = np.linspace(0, 2 * np.pi, 512, endpoint=False)
    for t in np.linspace(0, 1, 11):
        kappa = deform(ellipse, t).curvature(tg)
        assert np.min(kappa) >= lo and np.max(kappa) <= hi


def test_domain_gap(ellipse):
    disk = SupportDomain.disk(1.0)
    assert domain_gap(ellipse, ellipse) == pytest.approx(0.0, abs=1e-12)
    assert domain_gap(SupportDomain.disk(1.0), SupportDomain.disk(0.9)) == \
        pytest.approx(0.1, abs=1e-6)
    assert domain_gap(ellipse, disk) <= 0.5 + 1e-9


def test_domain_gap_deformation_bound(ellipse):
    bound_scale = 1.0 + ellipse.max_support()
    for t, s in [(0.0, 0.1), (0.4, 0.5), (0.9, 1.0), (0.3, 0.35)]:
        gap = domain_gap(deform(ellipse, t), deform(ellipse, s))
        assert gap <= abs(t - s) * bound_scale + 1e-9


@settings(max_examples=25, deadline=None)
@given(st.floats(-0.7, 0.7), st.floats(-0.4, 0.4),
       st.floats(-0.7, 0.7), st.floats(-0.4, 0.4))
def test_boundary_distance_lipschitz(x1, y1, x2, y2):
    ell = SupportDomain.ellipse(0.8, 0.5)
    a, b = np.array([x1, y1]), np.array([x2, y2])
    if not (ell.contains(a) and ell.contains(b)):
        return
    da, db = ell.boundary_distance(a), ell.boundary_distance(b)
    assert abs(da - db) <= np.linalg.norm(a - b) + 1e-10


def test_nearest_boundary(ellipse):
    foot, theta, d = ellipse.nearest_boundary(np.array([0.0, 0.2]))
    assert d == pytest.approx(0.3, abs=1e-9)
    assert abs(ellipse.signed_distance(foot)) < 1e-8
    # outside: signed distance is minus the euclidean distance to the set
    foot, theta, d = SupportDomain.disk(1.0).nearest_boundary(np.array([2.0, 0.0]))
    assert d == pytest.approx(-1.0, abs=1e-12)
    assert np.allclose(foot, [1.0, 0.0], atol=1e-12)


def test_cone_domain():
    cone = ConeDomain(0.3, 2)
    assert cone.contains([0.5, 0.0])
    assert not cone.contains([-0.1, 0.0])
    assert not cone.contains([0.5, 0.5])
    # axis point: lateral distance x1 sin(theta), sphere distance 1 - x1
    assert cone.boundary_distance([0.5, 0.0]) == pytest.approx(0.5 * math.sin(0.3))
    assert cone.boundary_distance([0.99, 0.0]) == pytest.approx(0.01, abs=1e-12)
    cone3 = ConeDomain(0.3, 3)
    assert cone3.contains([0.5, 0.0, 0.0])
    assert cone3.boundary_distance([0.5, 0.05, 0.05]) == pytest.approx(
        0.5 * math.sin(0.3) - math.hypot(0.05, 0.05) * math.cos(0.3))
    with pytest.raises(ValueError):
        ConeDomain(2.0, 2)


def test_from_polygon():
    square = [[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]]
    dom = SupportDomain.from_polygon(square)
    assert dom.contains([0.0, 0.0])
    assert dom.contains([0.35, 0.35])
    assert not dom.contains([0.6, 0.0])
    dom.classify()  # finite curvature pinching after rounding


def test_domain_file_roundtrip(tmp_path, ellipse):
    path = tmp_path / "ellipse.sf"
    save_domain(ellipse, path)
    back = load_domain(path)
    assert np.array_equal(back.coeffs, ellipse.coeffs)
    first = path.read_text()
    save_domain(back, path)
    assert path.read_text() == first

    cpath = tmp_path / "cone.dom"
    save_domain(ConeDomain(0.05, 3), cpath)
    cone = load_domain(cpath)
    assert cone.theta == 0.05 and cone.dim == 3
    assert cpath.read_text().splitlines()[0] == "cone v1"


def test_domain_file_errors(tmp_path):
    bad = tmp_path / "bad.sf"
    bad.write_text("support-fourier v1\nnonsense\n")
    with pytest.raises(DomainFileError):
        load_domain(bad)
    with pytest.raises(DomainFileError):
        load_domain(tmp_path / "missing.sf")
    bad.write_text("wrong-header v9\n")
    with pytest.raises(DomainFileError):
        load_domain(bad)


# -- the distance oracle against a dense brute-force minimiser -------------------------

SQUARE = [[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]]
ECCENTRIC = SupportDomain.ellipse(0.9, 0.15)
SMOOTH_SQUARE = SupportDomain.from_polygon(SQUARE)


def _dense_signed_distance(dom, pts, n_grid=1 << 14):
    """min over theta of h(theta) - x.u(theta) from the exact Fourier series.

    A dense grid brackets the minimum and golden-section search on the series
    refines it; no seed grid, Hermite table or Newton step is involved.
    """
    tg = np.linspace(0.0, 2 * np.pi, n_grid, endpoint=False)
    h = dom.support(tg)
    k = np.argmin(h[None, :] - pts @ np.stack([np.cos(tg), np.sin(tg)]), axis=1)
    lo, hi = tg[k] - 2 * np.pi / n_grid, tg[k] + 2 * np.pi / n_grid

    def g(t):
        return dom.support(t) - pts[:, 0] * np.cos(t) - pts[:, 1] * np.sin(t)

    r = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = hi - r * (hi - lo), lo + r * (hi - lo)
    ga, gb = g(a), g(b)
    for _ in range(80):
        left = ga < gb
        lo, hi = np.where(left, lo, a), np.where(left, b, hi)
        a, b = hi - r * (hi - lo), lo + r * (hi - lo)
        ga, gb = g(a), g(b)
    return np.minimum(ga, gb)


def _points(x_max, y_max):
    coord = st.tuples(st.floats(-x_max, x_max), st.floats(-y_max, y_max))
    return st.lists(coord, min_size=1, max_size=40).map(np.array)


@settings(max_examples=60, deadline=None)
@given(_points(1.5, 1.5))
def test_distance_matches_dense_oracle_disk(pts):
    dom = SupportDomain.disk(1.0)
    d, _ = dom._signed_distance_foot(pts)
    assert np.max(np.abs(d - _dense_signed_distance(dom, pts))) <= 1e-11


@settings(max_examples=60, deadline=None)
@given(_points(1.1, 0.35))
def test_distance_matches_dense_oracle_eccentric_ellipse(pts):
    d, _ = ECCENTRIC._signed_distance_foot(pts)
    assert np.max(np.abs(d - _dense_signed_distance(ECCENTRIC, pts))) <= 1e-11


@settings(max_examples=60, deadline=None)
@given(_points(0.5, 0.5))
def test_distance_matches_dense_oracle_smoothed_square(pts):
    oracle = _dense_signed_distance(SMOOTH_SQUARE, pts)
    inside = oracle > 0
    d, _ = SMOOTH_SQUARE._signed_distance_foot(pts[inside])
    err = d - oracle[inside]
    assert np.all(err <= 1e-9), np.max(err)   # no interior overestimate
    assert np.all(err >= -1e-9), np.min(err)


def test_distance_smoothed_square_seeded_points():
    # three capped Newton steps overestimated about 7% of these by more
    # than 1e-9, up to 7e-6
    pts = np.random.default_rng(0).uniform(-0.5, 0.5, size=(4000, 2))
    d, _ = SMOOTH_SQUARE._signed_distance_foot(pts)
    assert np.max(np.abs(d - _dense_signed_distance(SMOOTH_SQUARE, pts))) <= 1e-9


def test_distance_smoothed_square_corner_patch():
    # near a corner g = h - x.u has a shallow minimum per Fejer ripple; Newton
    # cycles on some points and the seed grid picks the wrong ripple on others
    xs = np.linspace(0.35, 0.5, 70)
    pts = np.stack(np.meshgrid(xs, xs), axis=-1).reshape(-1, 2)
    oracle = _dense_signed_distance(SMOOTH_SQUARE, pts)
    inside = oracle > 0
    d, _ = SMOOTH_SQUARE._signed_distance_foot(pts[inside])
    assert np.max(np.abs(d - oracle[inside])) <= 1e-9


# -- bitwise equality of the blocked seed and the packed table ---------------------------

def _matrix_product(a, b):
    """a @ b on the matrix-matrix path even for one row of a: numpy hands a
    one-row product to matrix-vector BLAS, whose last bits differ."""
    return (np.concatenate([a, a]) @ b)[:len(a)]


def _one_matrix_signed_distance_foot(dom, pts):
    """The distance query with its seed built as one (n, 256) matrix and
    exactly three capped Newton steps, as before the seed was blocked."""
    g = dom._seed_h[None, :] - _matrix_product(pts, dom._seed_u.T)
    k = np.argmin(g, axis=1)
    theta = dom._seed_theta[k]
    step_cap = 2 * np.pi / geom._SEED_GRID
    x1, x2 = pts[:, 0], pts[:, 1]
    val = None
    for it in range(3):
        h, h1, h2 = dom._support_012(theta)
        ct, st_ = np.cos(theta), np.sin(theta)
        xu = x1 * ct + x2 * st_
        if it == 2:
            val = h - xu
        gp = h1 - (-x1 * st_ + x2 * ct)
        gpp = h2 + xu
        gpp = np.where(np.abs(gpp) < 1e-14, 1e-14, gpp)
        theta = theta - np.clip(gp / gpp, -step_cap, step_cap)
    grid_val = g[np.arange(len(pts)), k]
    better = grid_val < val
    val = np.where(better, grid_val, val)
    theta = np.where(better, dom._seed_theta[k], theta)
    return val, np.mod(theta, 2 * np.pi)


_B = geom._SEED_BLOCK


@pytest.mark.parametrize("n", [1, _B - 1, _B, _B + 1, 3 * _B + 7])
def test_blocked_seed_bitwise(ellipse, n):
    pts = np.random.default_rng(n).uniform(-1.0, 1.0, size=(n, 2))
    for dom in (ellipse, SMOOTH_SQUARE):
        g = dom._seed_h[None, :] - _matrix_product(pts, dom._seed_u.T)
        k, val = dom._seed(pts)
        assert np.array_equal(k, np.argmin(g, axis=1))
        assert val.tobytes() == g[np.arange(n), k].tobytes()
    # on the ellipse no row needs more than three Newton steps
    got = ellipse._signed_distance_foot(pts)
    want = _one_matrix_signed_distance_foot(ellipse, pts)
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()


def test_packed_hermite_table_bitwise(ellipse):
    theta = np.random.default_rng(7).uniform(-7.0, 7.0, size=5000)
    theta[:3] = [0.0, 2 * np.pi, 2 * np.pi - 1e-17]
    tab = ellipse._tab.T  # (4, K+1): one row per derivative
    pos = np.mod(theta, 2 * np.pi) / ellipse._tab_step
    i = np.minimum(pos.astype(np.int64), geom._TABLE_GRID - 1)
    t = pos - i
    t2 = t * t
    t3 = t2 * t
    b00 = 2 * t3 - 3 * t2 + 1
    b10 = (t3 - 2 * t2 + t) * ellipse._tab_step
    b01 = 3 * t2 - 2 * t3
    b11 = (t3 - t2) * ellipse._tab_step
    for k, got in enumerate(ellipse._support_012(theta)):
        want = b00 * tab[k, i] + b10 * tab[k + 1, i] + b01 * tab[k, i + 1] + b11 * tab[k + 1, i + 1]
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["square", "eccentric ellipse"])
def test_single_row_query_matches_batch_bitwise(name):
    # half the points lie on axes of symmetry (the square's diagonals, the
    # ellipse's axes), where two seed angles tie and the seed's last bits
    # pick the foot angle; on the diagonals the one-row matrix-vector seed
    # disagreed with the batch query
    rng = np.random.default_rng(2000)
    if name == "square":
        dom, box = SMOOTH_SQUARE, np.array([0.6, 0.6])
        a = rng.uniform(-0.6, 0.6, 1000)
        axes = np.stack([a, rng.choice([-1.0, 1.0], 1000) * a], axis=1)
    else:
        dom, box = ECCENTRIC, np.array([1.0, 0.2])
        axes = rng.uniform(-box, box, size=(1000, 2))
        axes[rng.uniform(size=1000) < 0.5, 0] = 0.0
        axes[axes[:, 0] != 0.0, 1] = 0.0
    pts = np.concatenate([rng.uniform(-box, box, size=(1000, 2)), axes])
    d, theta = dom._signed_distance_foot(pts)
    for i in range(len(pts)):
        d1, theta1 = dom._signed_distance_foot(pts[i:i + 1])
        assert d1.tobytes() == d[i:i + 1].tobytes(), pts[i]
        assert theta1.tobytes() == theta[i:i + 1].tobytes(), pts[i]
