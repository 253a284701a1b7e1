import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabletau import geom
from stabletau.closedform import StableParams
from stabletau.errors import (
    DomainFileError,
    NewtonError,
    NonConvexError,
    NotInUnitBallError,
    PointOutsideError,
)
from stabletau.geom import (
    ConeDomain,
    SupportDomain,
    deform,
    domain_gap,
    load_domain,
    save_domain,
)
from stabletau.wos import WalkConfig, estimate_phi


@pytest.fixture(scope="module")
def ellipse():
    return SupportDomain.ellipse(0.8, 0.5)


def _inside(dom, pts):
    return list(dom.boundary_distance_batch(np.array(pts, dtype=float)) > geom._BOUNDARY_TOL)


def test_contains_disk():
    # the boundary point reports outside
    assert _inside(SupportDomain.disk(1.0), [[0.0, 0.0], [2.0, 0.0], [1.0, 0.0]]) == \
        [True, False, False]


def test_contains_ellipse(ellipse):
    # semi-axes 0.8/0.5: x1 = 0.79 < 0.8 is interior
    assert _inside(ellipse, [[0.79, 0.0], [0.81, 0.0], [0.0, 0.49], [0.0, 0.51]]) == \
        [True, False, True, False]


def test_boundary_distance_disk():
    d = SupportDomain.disk(1.0).boundary_distance_batch(np.array([[0.3, 0.0], [0.0, 0.0]]))
    assert d == pytest.approx([0.7, 1.0], abs=1e-12)


def test_boundary_distance_ellipse(ellipse):
    # min semi-axis; cross-checked by dense-grid minimisation
    d = ellipse.boundary_distance_batch(np.zeros((1, 2)))[0]
    assert d == pytest.approx(0.5, abs=1e-9)
    tg = np.linspace(0, 2 * np.pi, 20000, endpoint=False)
    assert d == pytest.approx(float(np.min(ellipse.support(tg))), abs=1e-7)


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
    # the signed distance is 1-Lipschitz inside the domain and out
    ell = SupportDomain.ellipse(0.8, 0.5)
    da, db = ell.boundary_distance_batch(np.array([[x1, y1], [x2, y2]]))
    assert abs(da - db) <= math.hypot(x1 - x2, y1 - y2) + 1e-10


def test_nearest_boundary(ellipse):
    foot, theta, d = ellipse.nearest_boundary(np.array([[0.0, 0.2]]))
    assert foot.shape == (1, 2) and theta.shape == d.shape == (1,)
    assert d[0] == pytest.approx(0.3, abs=1e-9)
    assert abs(ellipse.boundary_distance_batch(foot)[0]) < 1e-8
    # outside: signed distance is minus the euclidean distance to the set
    foot, theta, d = SupportDomain.disk(1.0).nearest_boundary(np.array([[2.0, 0.0]]))
    assert d[0] == pytest.approx(-1.0, abs=1e-12)
    assert np.allclose(foot, [[1.0, 0.0]], atol=1e-12)


def test_cone_domain():
    cone = ConeDomain(0.3, 2)
    assert _inside(cone, [[0.5, 0.0], [-0.1, 0.0], [0.5, 0.5]]) == [True, False, False]
    # axis point: lateral distance x1 sin(theta), sphere distance 1 - x1
    d = cone.boundary_distance_batch(np.array([[0.5, 0.0], [0.99, 0.0]]))
    assert d[0] == pytest.approx(0.5 * math.sin(0.3))
    assert d[1] == pytest.approx(0.01, abs=1e-12)
    cone3 = ConeDomain(0.3, 3)
    d = cone3.boundary_distance_batch(np.array([[0.5, 0.0, 0.0], [0.5, 0.05, 0.05]]))
    assert d[0] > geom._BOUNDARY_TOL
    assert d[1] == pytest.approx(0.5 * math.sin(0.3) - math.hypot(0.05, 0.05) * math.cos(0.3))
    with pytest.raises(ValueError):
        ConeDomain(2.0, 2)


def test_from_polygon():
    square = [[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]]
    dom = SupportDomain.from_polygon(square)
    assert _inside(dom, [[0.0, 0.0], [0.35, 0.35], [0.6, 0.0]]) == [True, True, False]
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
TRIANGLE_VERTICES = np.array([[0.6, -0.3], [-0.3, 0.5], [-0.35, -0.4]])
SMOOTH_TRIANGLE = SupportDomain.from_polygon(TRIANGLE_VERTICES)  # r0 = 8e-4


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
    ref = _dense_signed_distance(ECCENTRIC, pts)
    for query in (ECCENTRIC._search_foot, ECCENTRIC._signed_distance_foot):
        d, _ = query(pts)
        assert np.max(np.abs(d - ref)) <= 1e-11, query.__name__


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


# -- the Fourier series against its dense sum ----------------------------------------------

def _dense_series(coeffs, theta, deriv):
    """d^k/dtheta^k of sum_j a_j cos(j theta) + b_j sin(j theta), summed mode by mode
    over the (angles, modes) tables of cos and sin."""
    j = np.arange(coeffs.shape[0], dtype=float)
    jt = np.multiply.outer(theta, j)
    c, s = np.cos(jt), np.sin(jt)
    basis_a, basis_b = [(c, s), (-s, c), (-c, -s), (s, -c)][deriv % 4]
    scale = j ** deriv
    return basis_a @ (coeffs[:, 0] * scale) + basis_b @ (coeffs[:, 1] * scale)


@pytest.mark.parametrize("name", ["disk", "ellipse", "eccentric ellipse", "square"])
@pytest.mark.parametrize("deriv", range(5))
def test_series_matches_dense_sum(name, deriv):
    dom = {"disk": SupportDomain.disk(1.0), "ellipse": SupportDomain.ellipse(0.8, 0.5),
           "eccentric ellipse": ECCENTRIC, "square": SMOOTH_SQUARE}[name]
    theta = np.concatenate([np.linspace(0.0, 2 * np.pi, geom._TABLE_GRID + 1),
                            np.random.default_rng(3).uniform(-7.0, 7.0, 3000)])
    got, want = geom._series(dom.coeffs, theta, deriv), _dense_series(dom.coeffs, theta, deriv)
    if name == "disk":
        assert got.tobytes() == want.tobytes()
    else:
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    one = dom.support(0.3, deriv)  # a scalar angle gives a scalar, the array's bits
    assert np.ndim(one) == 0 and one == geom._series(dom.coeffs, np.array([0.3]), deriv)[0]


# -- bitwise equality of the packed table, and of one-row and batch queries ----------------

def test_packed_hermite_table_bitwise(ellipse):
    theta = np.random.default_rng(7).uniform(-7.0, 7.0, size=5000)
    theta[:3] = [0.0, 2 * np.pi, 2 * np.pi - 1e-17]
    tab = ellipse._tab_cols  # (4, K+1): one row per derivative
    pos = np.mod(theta, 2 * np.pi) / geom._KNOT_STEP
    i = np.minimum(pos.astype(np.int64), geom._TABLE_GRID - 1)
    t = pos - i
    t2 = t * t
    t3 = t2 * t
    b00 = 2 * t3 - 3 * t2 + 1
    b10 = (t3 - 2 * t2 + t) * geom._KNOT_STEP
    b01 = 3 * t2 - 2 * t3
    b11 = (t3 - t2) * geom._KNOT_STEP
    for k, got in enumerate(ellipse._hermite(theta, 3)):
        want = b00 * tab[k, i] + b10 * tab[k + 1, i] + b01 * tab[k, i + 1] + b11 * tab[k + 1, i + 1]
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["square", "eccentric ellipse", "triangle"])
def test_single_row_query_matches_batch_bitwise(name):
    # half the points lie on axes of symmetry (the square's diagonals, the
    # ellipse's axes) or on the triangle's medians, where two minima of g can
    # tie and the last bits pick the foot angle
    rng = np.random.default_rng(2000)
    if name == "square":
        dom, box = SMOOTH_SQUARE, np.array([0.6, 0.6])
        a = rng.uniform(-0.6, 0.6, 1000)
        axes = np.stack([a, rng.choice([-1.0, 1.0], 1000) * a], axis=1)
    elif name == "triangle":
        dom, box = SMOOTH_TRIANGLE, np.array([0.7, 0.7])
        v = rng.integers(0, 3, 1000)
        mid = (TRIANGLE_VERTICES.sum(axis=0) - TRIANGLE_VERTICES[v]) / 2
        axes = TRIANGLE_VERTICES[v] + rng.uniform(-0.2, 1.2, (1000, 1)) * (mid - TRIANGLE_VERTICES[v])
    else:
        dom, box = ECCENTRIC, np.array([1.0, 0.2])
        axes = rng.uniform(-box, box, size=(1000, 2))
        axes[rng.uniform(size=1000) < 0.5, 0] = 0.0
        axes[axes[:, 0] != 0.0, 1] = 0.0
    pts = np.concatenate([rng.uniform(-box, box, size=(1000, 2)), axes])
    d, theta = dom._search_foot(pts)
    for i in range(len(pts)):
        d1, theta1 = dom._search_foot(pts[i:i + 1])
        assert d1.tobytes() == d[i:i + 1].tobytes(), pts[i]
        assert theta1.tobytes() == theta[i:i + 1].tobytes(), pts[i]


# -- the oracle on row subsets, and the distance lattice's bounds ------------------------

@pytest.mark.parametrize("name", ["ellipse", "eccentric ellipse", "square", "triangle"])
def test_oracle_rows_independent_of_subset(name):
    # the walks query the exact oracle on the rows no bound decides, and the
    # field reads on the rows near the boundary: each row's bits must not
    # depend on which other rows share the query, on the search and on the
    # rolling-disk path, whose rejected rows run the search as a subset
    dom = {"ellipse": ELLIPSE, "eccentric ellipse": ECCENTRIC, "square": SMOOTH_SQUARE,
           "triangle": SMOOTH_TRIANGLE}[name]
    rng = np.random.default_rng(77)
    pts = rng.uniform(-1.0, 1.0, size=(3000, 2))
    subsets = [np.sort(rng.choice(len(pts), n, replace=False))
               for n in (0, 1, 2, 511, 512, 513, 1025)]
    subsets += [np.nonzero(rng.uniform(size=len(pts)) < q)[0] for q in (0.01, 0.3, 0.9)]
    for query in (dom._search_foot, dom._signed_distance_foot):
        d, theta = query(pts)
        for idx in subsets:
            d1, theta1 = query(pts[idx])
            assert d1.tobytes() == d[idx].tobytes(), (query.__name__, len(idx))
            assert theta1.tobytes() == theta[idx].tobytes(), (query.__name__, len(idx))


def _rotated_ellipse(a, b, phi=0.3):
    return SupportDomain.from_function(
        lambda t: np.sqrt(a * a * np.cos(t - phi) ** 2 + b * b * np.sin(t - phi) ** 2))


ELLIPSE = SupportDomain.ellipse(0.8, 0.5)
ROTATED = {(0.8, 0.5): _rotated_ellipse(0.8, 0.5), (0.9, 0.15): _rotated_ellipse(0.9, 0.15)}


@functools.lru_cache(maxsize=8)
def _series_grid(dom, n_grid):
    tg = np.linspace(0.0, 2 * np.pi, n_grid, endpoint=False)
    return tg, dom.support(tg), np.cos(tg), np.sin(tg)


def _all_minima_signed_distance(dom, pts, n_grid=1 << 16, block=4):
    """min over theta of h(theta) - x.u(theta), refining every local minimum of
    a dense grid of the exact series (within 1e-6 of the grid's least value)
    by golden section.  _dense_signed_distance refines only the least sample,
    so it misses a lower minimum in another basin."""
    tg, h, c, s = _series_grid(dom, n_grid)
    rows, ks = [], []
    for lo in range(0, len(pts), block):
        g = h - pts[lo:lo + block, :1] * c - pts[lo:lo + block, 1:] * s
        # the samples within the window, then those of them that are local minima
        r, k = np.divmod(np.flatnonzero(g <= g.min(axis=1, keepdims=True) + 1e-6), n_grid)
        gk = g[r, k]
        low = (gk <= g[r, k - 1]) & (gk <= g[r, (k + 1) % n_grid])
        rows.append(r[low] + lo)
        ks.append(k[low])
    row, k = np.concatenate(rows), np.concatenate(ks)
    x1, x2 = pts[row, 0], pts[row, 1]
    # h by Horner's rule in exp(i theta): sum_j (a_j - i b_j) exp(i j theta)
    coeffs = dom.coeffs[:, 0] - 1j * dom.coeffs[:, 1]

    def g(t):
        return (np.polynomial.polynomial.polyval(np.exp(1j * t), coeffs).real
                - x1 * np.cos(t) - x2 * np.sin(t))

    lo, hi = tg[k] - 2 * np.pi / n_grid, tg[k] + 2 * np.pi / n_grid
    r = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = hi - r * (hi - lo), lo + r * (hi - lo)
    ga, gb = g(a), g(b)
    for _ in range(60):
        left = ga < gb
        lo, hi = np.where(left, lo, a), np.where(left, b, hi)
        a, b = hi - r * (hi - lo), lo + r * (hi - lo)
        ga, gb = g(a), g(b)
    out = np.full(len(pts), np.inf)
    np.minimum.at(out, row, np.minimum(ga, gb))
    return out


@st.composite
def _bound_points(draw, dom, axis=None):
    """Points in and around the lattice box, on its edges, or (given the
    semi-axis a of an ellipse rotated by 0.3) within 1e-9..1e-3 of its major axis."""
    lat = dom._lattice()
    lo, hi = lat.lo, lat.hi
    kinds = ["box", "edge"] + (["axis"] if axis else [])
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(1, 30))
    unit = st.floats(0.0, 1.0)
    u = np.array(draw(st.lists(st.tuples(unit, unit), min_size=n, max_size=n)))
    if kind == "box":
        return lo - 0.1 * (hi - lo) + 1.2 * (hi - lo) * u
    if kind == "edge":
        side = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        pts = lo + (hi - lo) * u
        for r, sd in enumerate(side):
            pts[r, sd % 2] = (lo, hi)[sd // 2][sd % 2]
        return pts
    along = axis * (2 * u[:, 0] - 1)
    offset = 10.0 ** (-9 + 6 * u[:, 1]) * np.array(
        draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    return np.stack([along * math.cos(0.3) - offset * math.sin(0.3),
                     along * math.sin(0.3) + offset * math.cos(0.3)], axis=1)


def _check_bounds(dom, pts):
    ref = _all_minima_signed_distance(dom, pts)
    lb, ub = dom.lower_distance(pts), dom._lattice().upper_foot(pts)[0]
    assert np.all(lb <= ref), np.max(lb - ref)
    # at a node the upper bound is the series at the search's converged foot
    # angle, the reference's own minimum: the two sums differ by rounding
    assert np.all(ub >= ref - 1e-14), np.min(ub - ref)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_lattice_bounds_enclose_distance_ellipses(data):
    for dom in (ELLIPSE, ECCENTRIC):
        _check_bounds(dom, data.draw(_bound_points(dom)))


@settings(max_examples=40, deadline=None)
@given(_bound_points(SMOOTH_SQUARE))
def test_lattice_bounds_enclose_distance_square(pts):
    _check_bounds(SMOOTH_SQUARE, pts)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_lattice_bounds_enclose_distance_rotated_ellipses(data):
    for (a, _), dom in ROTATED.items():
        _check_bounds(dom, data.draw(_bound_points(dom, axis=a)))


def _near_rotated_axis(a, n=3000):
    """n seeded points within 1e-9..1e-3 of the major axis of an ellipse rotated
    by 0.3, where g has two far-apart, nearly tied minima."""
    rng = np.random.default_rng(5)
    along = rng.uniform(-a, a, n)
    offset = 10.0 ** rng.uniform(-9, -3, n) * rng.choice([-1.0, 1.0], n)
    return np.stack([along * math.cos(0.3) - offset * math.sin(0.3),
                     along * math.sin(0.3) + offset * math.cos(0.3)], axis=1)


@pytest.mark.parametrize("axes", list(ROTATED))
def test_lattice_bounds_near_rotated_major_axis(axes):
    # where the oracle can pick the wrong one of two nearly tied basins
    # (a lattice node value read too high would break the lower bound)
    _check_bounds(ROTATED[axes], _near_rotated_axis(axes[0]))


@pytest.mark.parametrize("axes", list(ROTATED))
def test_search_finds_the_lower_of_two_far_basins(axes):
    # the best seed sample can lie in the wrong basin; every sample within the
    # slack of it, anywhere on the circle, is rescanned (20% and 36% of these
    # points read more than 1e-10 too far when only +-4 steps were checked)
    dom = ROTATED[axes]
    pts = _near_rotated_axis(axes[0])
    ref = _all_minima_signed_distance(dom, pts)
    for query in (dom._search_foot, dom._signed_distance_foot):
        d, _ = query(pts)
        assert np.max(np.abs(d - ref)) <= 1e-10, (query.__name__, np.max(np.abs(d - ref)))


# the distance bounds of the dense-oracle tests above
BOUNDS = {"ellipse": (ELLIPSE, 1e-11), "eccentric ellipse": (ECCENTRIC, 1e-11),
          "square": (SMOOTH_SQUARE, 1e-9), "triangle": (SMOOTH_TRIANGLE, 1e-9)}


@pytest.mark.parametrize("name", list(BOUNDS))
def test_foot_angle_is_consistent(name):
    # g = h - x.u attains the distance d at the foot angle theta: x + d u(theta)
    # is the boundary point with normal theta (the gap is |g'(theta)|, so it
    # checks how well theta is pinned), and the series at theta gives d back
    dom, bound = BOUNDS[name]
    pts = _ring_points(dom, np.random.default_rng(12), 3000, 0.0, 1.5)
    for query in (dom._search_foot, dom._signed_distance_foot):
        d, theta = query(pts)
        u = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        gap = np.linalg.norm(pts + d[:, None] * u - dom.boundary_point(theta), axis=1)
        assert np.max(gap) <= 2e-8, (query.__name__, np.max(gap))
        series = dom.support(theta) - np.sum(pts * u, axis=1)
        assert np.max(np.abs(series - d)) <= bound, (query.__name__, np.max(np.abs(series - d)))


def _near_evolute(dom, rng, n):
    """n points b(theta) - (rc(theta) +- s) u(theta) with s log-uniform in
    [1e-9, 1e-3]: theta is a critical point of g = h - x.u with g'' = -+s, so
    g'' nearly vanishes there."""
    theta = rng.uniform(0.0, 2 * np.pi, n)
    rc = dom.support(theta) + dom.support(theta, 2)
    s = 10.0 ** rng.uniform(-9, -3, n) * rng.choice([-1.0, 1.0], n)
    return dom.boundary_point(theta) - (rc + s)[:, None] * np.stack(
        [np.cos(theta), np.sin(theta)], axis=1)


# the cusps of the ellipses' evolutes, where the minimum of g is quartic
CUSPS = {"ellipse": [(0.4875, 0.0), (-0.4875, 0.0), (0.0, 0.78), (0.0, -0.78)],
         "eccentric ellipse": [(0.875, 0.0), (-0.875, 0.0)]}


def _near_cusps(cusps):
    """Each cusp, and the points 1e-12..1e-6 off it along each axis."""
    off = np.concatenate([10.0 ** np.arange(-12, -5), -(10.0 ** np.arange(-12, -5))])
    steps = np.concatenate([np.zeros((1, 2)), np.stack([off, 0 * off], axis=1),
                            np.stack([0 * off, off], axis=1)])
    return (np.asarray(cusps)[:, None, :] + steps).reshape(-1, 2)


@pytest.mark.parametrize("name", ["ellipse", "eccentric ellipse", "triangle"])
def test_distance_near_degenerate_minima(name):
    # near the evolute the certificate g'' > 0 fails on the cells around the
    # critical point, which the search then bisects; the smoothed triangle's
    # r0 is 8e-4, so almost no row has the rolling-disk certificate
    dom, bound = BOUNDS[name]
    rng = np.random.default_rng(13)
    pts = _near_evolute(dom, rng, 2000)
    if name == "triangle":
        pts = np.concatenate([pts, _ring_points(dom, rng, 2000, 0.0, 1.5)])
    else:
        pts = np.concatenate([pts, _near_cusps(CUSPS[name])])
    ref = _all_minima_signed_distance(dom, pts)
    assert np.count_nonzero(ref > 0) > 100 and np.count_nonzero(ref < 0) > 100
    for query in (dom._search_foot, dom._signed_distance_foot):
        d, _ = query(pts)
        assert np.max(np.abs(d - ref)) <= bound, (query.__name__, np.max(np.abs(d - ref)))


def test_search_raises_when_newton_stalls(monkeypatch):
    # rows deeper than r0 end in the search's knot-interval Newton, which
    # does not converge in one step
    rng = np.random.default_rng(14)
    pts = _ring_points(ELLIPSE, rng, 200, 0.0, 0.3)
    assert np.all(ELLIPSE.lower_distance(pts) > ELLIPSE._r0)
    monkeypatch.setattr(geom, "_NEWTON_STEPS", 1)
    with pytest.raises(NewtonError, match="distance search"):
        ELLIPSE._search_foot(pts)


def test_lattice_node_values_match_dense_reference():
    # the lower bound interpolates the node distances: on every domain here,
    # no node reads more than 1e-9 above the all-minima reference
    for dom in (ROTATED[(0.8, 0.5)], ROTATED[(0.9, 0.15)]):
        lat = dom._lattice()
        n = geom._LATTICE_CELLS + 1
        ax = [np.linspace(lat.lo[c], lat.hi[c], n) for c in range(2)]
        nodes = np.stack(np.meshgrid(*ax, indexing="ij"), axis=-1).reshape(-1, 2)
        near = np.abs(-nodes[:, 0] * math.sin(0.3) + nodes[:, 1] * math.cos(0.3)) < 0.02
        ref = _all_minima_signed_distance(dom, nodes[near])
        assert np.all(lat.delta[near] - ref <= 1e-10), np.max(lat.delta[near] - ref)


# -- the rolling-disk certificate ----------------------------------------------------------

def test_certificate_radius_bounds_curvature_radius():
    # r0 <= min(h + h'') on a dense grid of the exact series; the smoothed
    # square's bound cannot be made positive, so it has no certificate
    tg = np.linspace(0.0, 2 * np.pi, 1 << 16, endpoint=False)
    doms = {"disk": SupportDomain.disk(0.7), "ellipse": ELLIPSE, "eccentric": ECCENTRIC,
            "rotated": ROTATED[(0.8, 0.5)], "rotated eccentric": ROTATED[(0.9, 0.15)],
            "square": SMOOTH_SQUARE}
    for name, dom in doms.items():
        rc = dom.support(tg) + dom.support(tg, 2)
        assert dom._r0 <= rc.min(), name
        if name == "square":
            assert dom._r0 == 0.0
        else:
            assert dom._r0 > 0.99 * rc.min(), name


def _counting_search(dom, monkeypatch):
    """Record the number of rows each search query gets."""
    rows = []
    search = dom._search_foot

    def counting(pts):
        rows.append(len(pts))
        return search(pts)

    monkeypatch.setattr(dom, "_search_foot", counting)
    return rows


def test_far_side_seed_is_rejected(monkeypatch):
    # at the minor-axis ends of the ellipse (0.8, 0.5), g has a local minimum
    # on the far side with g near 1 > r0 = 0.31: Newton converges there, the
    # certificate fails, and the row gets the search's global answer
    dom = SupportDomain.ellipse(0.8, 0.5)
    dom._lattice()
    pts = np.array([[0.0, 0.49], [0.02, 0.45], [-0.01, -0.48], [0.03, -0.4]])
    far_side = np.where(pts[:, 1] > 0, 1.5 * np.pi, 0.5 * np.pi)
    searched = _counting_search(dom, monkeypatch)
    d, theta = dom._signed_distance_foot(pts, far_side)
    assert searched == [len(pts)]
    assert np.max(np.abs(d - _all_minima_signed_distance(dom, pts))) <= 1e-11
    assert np.all(np.cos(theta - far_side) < -0.9)  # the near side
    # from the lattice's own seeds every row is certified
    searched.clear()
    assert np.max(np.abs(dom._signed_distance_foot(pts)[0] - d)) <= 1e-14
    assert searched == []


def test_deep_rows_go_straight_to_the_search(monkeypatch):
    # on the ellipse (0.8, 0.5), the points s b(theta) with s <= 0.3 lie in
    # deep lattice cells, whose lower bounds are at or above r0 and where the
    # certificate must fail: alone they skip Newton, mixed with collar rows
    # they stop after its first step, and either way they read as the search
    dom = SupportDomain.ellipse(0.8, 0.5)
    lattice = dom._lattice()
    anywhere = np.random.default_rng(14).uniform(-0.8, 0.8, (20000, 2))
    in_deep = lattice.deep.take(lattice._cell(anywhere)[0])
    assert 0 < np.count_nonzero(in_deep) < len(anywhere)
    assert np.all(dom.lower_distance(anywhere[in_deep]) >= dom._r0 - geom._ROLL_MARGIN)
    theta = np.linspace(0.0, 2 * np.pi, 225, endpoint=False)
    deep = dom.boundary_point(theta) * np.linspace(0.0, 0.3, 225)[:, None]
    assert np.all(lattice.deep.take(lattice._cell(deep)[0]))
    collar = dom.boundary_point(theta) * 0.97
    alone = [dom._signed_distance_foot(pts) for pts in (deep, collar)]
    newton_rows = []
    newton = dom._newton_step

    def counting(theta, x1, x2):
        newton_rows.append(len(x1))
        return newton(theta, x1, x2)

    monkeypatch.setattr(dom, "_newton_step", counting)
    d, theta_foot = dom._signed_distance_foot(deep)
    assert newton_rows == []
    want_d, want_theta = dom._search_foot(deep)
    assert d.tobytes() == want_d.tobytes()
    assert theta_foot.tobytes() == np.mod(want_theta, 2 * np.pi).tobytes()
    mixed = dom._signed_distance_foot(np.concatenate([deep, collar]))
    assert newton_rows[0] == len(deep) + len(collar)  # deep rows stop after one step
    assert max(newton_rows[1:]) <= len(collar)
    for k in range(2):
        assert mixed[k].tobytes() == np.concatenate([alone[0][k], alone[1][k]]).tobytes()


def _ring_points(dom, rng, n, lo, hi):
    """n points s * b(theta) for uniform theta and s uniform in [lo, hi]."""
    b = dom.boundary_point(rng.uniform(0.0, 2 * np.pi, n))
    return b * rng.uniform(lo, hi, (n, 1))


@pytest.mark.parametrize("name", ["ellipse", "eccentric ellipse", "rotated", "rotated eccentric"])
def test_certified_rows_match_dense_reference(name, monkeypatch):
    dom = {"ellipse": ELLIPSE, "eccentric ellipse": ECCENTRIC, "rotated": ROTATED[(0.8, 0.5)],
           "rotated eccentric": ROTATED[(0.9, 0.15)]}[name]
    rng = np.random.default_rng(8)
    kinds = {"interior": _ring_points(dom, rng, 1000, 0.0, 1.0),
             "collar": _ring_points(dom, rng, 1000, 0.8, 1.0),
             "exterior": _ring_points(dom, rng, 1000, 1.0, 1.5),
             "off the box": _ring_points(dom, rng, 500, 2.0, 6.0)}
    dom._lattice()
    searched = _counting_search(dom, monkeypatch)
    for kind, pts in kinds.items():
        searched.clear()
        d, _ = dom._signed_distance_foot(pts)
        ref = _all_minima_signed_distance(dom, pts)
        assert np.max(np.abs(d - ref)) <= 1e-11, (kind, np.max(np.abs(d - ref)))
        # the rows the search got are, but for a few, the ones no certificate covers
        assert sum(searched) <= np.count_nonzero(ref >= 0.99 * dom._r0) + 0.01 * len(pts), kind


def test_disk_bounds_are_the_closed_form():
    disk = SupportDomain.disk(0.7)
    pts = np.random.default_rng(3).uniform(-1.0, 1.0, size=(500, 2))
    d, _ = disk._signed_distance_foot(pts)
    x1, x2 = pts[:, 0], pts[:, 1]
    for got in (0.7 - np.sqrt(x1 * x1 + x2 * x2), disk.lower_distance(pts),
                disk.step_distance(pts, 1e-12)):
        assert got.tobytes() == d.tobytes()
    # the centre, signed zeros included, takes the foot angle 0
    d, theta = disk._signed_distance_foot(np.array([[0.0, 0.0], [-0.0, 0.0], [-0.0, -0.0]]))
    assert np.all(d == 0.7) and np.all(theta == 0.0)
    assert disk._lattice_cache is None  # the disk never builds a lattice


# -- the domain protocol: the walk's two distance reads ----------------------------------

PROTOCOL_DOMAINS = {"disk": SupportDomain.disk(1.0), "ellipse": ELLIPSE, "square": SMOOTH_SQUARE,
                    "cone 2-D": ConeDomain(0.3, 2), "cone 3-D": ConeDomain(0.3, 3)}


def _outside(dom, pts):
    """Rows at least 1e-9 outside dom, from its definition and not its distance query."""
    if isinstance(dom, ConeDomain):
        perp = np.linalg.norm(pts[:, 1:], axis=1)
        return ((perp > pts[:, 0] * math.tan(dom.theta) + 1e-9)
                | (np.linalg.norm(pts, axis=1) > 1.0 + 1e-9))
    tg = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
    gap = dom.support(tg) - pts @ np.stack([np.cos(tg), np.sin(tg)])  # h - x.u >= distance
    return gap.min(axis=1) < -1e-9


@pytest.mark.parametrize("name", PROTOCOL_DOMAINS)
def test_domain_protocol(name):
    dom = PROTOCOL_DOMAINS[name]
    pts = np.random.default_rng(17).uniform(-1.2, 1.2, size=(2000, dom.dim))
    if isinstance(dom, ConeDomain):  # narrow: most of the box would lie outside
        pts[:, 1:] *= 0.3
    d = dom.boundary_distance_batch(pts)
    assert d.shape == (len(pts),) and d.dtype == float
    outside = _outside(dom, pts)
    assert np.count_nonzero(outside) > 200 and np.all(d[outside] < 0.0)
    for cut in (1e-12, 1e-8, 0.05):
        r = dom.step_distance(pts, cut)
        assert r.shape == (len(pts),) and r.dtype == float
        deep = d > cut
        assert np.count_nonzero(deep) > 20 and np.all(r[deep] <= d[deep])
        assert np.array_equal(r <= cut, ~deep)  # the walk has left D iff r <= cut
        if name == "disk" or isinstance(dom, ConeDomain):
            assert r.tobytes() == d.tobytes()
    on_boundary = np.eye(dom.dim)[0] if isinstance(dom, ConeDomain) else dom.boundary_point(0.7)
    with pytest.raises(PointOutsideError, match="outside"):
        estimate_phi(dom, StableParams(1.0, dom.dim), on_boundary, WalkConfig(n_walks=10))
