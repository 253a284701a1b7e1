import math
import re

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy.integrate import quad as quad1d
from scipy.interpolate import PchipInterpolator
from scipy.special import betaincinv

from stabletau import geom
from stabletau import wos
from stabletau.closedform import StableParams, ball_exit_constant, ball_phi
from stabletau.errors import DomainFileError, GridTooCoarseError, PointOutsideError
from stabletau.geom import ConeDomain, SupportDomain
from stabletau.wos import (
    ExitRadiusLaw,
    WalkConfig,
    WalkEstimate,
    build_field,
    estimate_phi,
    load_field,
    save_field,
)

DISK = SupportDomain.disk(1.0)
CAUCHY = StableParams(1.0, 2)


def ks_distance(samples, cdf):
    s = np.sort(samples)
    n = s.size
    grid = cdf(s)
    upper = np.max(np.arange(1, n + 1) / n - grid)
    lower = np.max(grid - np.arange(0, n) / n)
    return max(upper, lower)


def test_walk_config_validation():
    with pytest.raises(ValueError):
        WalkConfig(n_walks=0)
    with pytest.raises(ValueError):
        WalkConfig(n_walks=10, max_steps=0)
    for seed in (-1, 1 << 64):  # Philox keys are 64 bits: these would alias 2**64 - 1 and 0
        with pytest.raises(ValueError, match="seed"):
            WalkConfig(n_walks=10, seed=seed)


def test_exit_law_cauchy_quantiles():
    law = ExitRadiusLaw(1.0)
    u = Generator(Philox(key=1)).random(200000)
    f = law.factor(u)
    # median sqrt(2): invert (2/pi) arccos(1/q) at 1/2
    assert np.median(f) == pytest.approx(math.sqrt(2), abs=0.01)
    # P(rho <= 2 s) = (2/pi) arccos(1/2) = 2/3
    assert np.mean(f <= 2.0) == pytest.approx(2.0 / 3.0, abs=0.005)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_exit_law_matches_cdf(alpha):
    law = ExitRadiusLaw(alpha)
    u = Generator(Philox(key=2)).random(100000)
    f = law.factor(u)
    assert ks_distance(f, lambda q: law.cdf(q)) < 0.01


@pytest.mark.parametrize("alpha", [0.4, 0.8, 1.3, 1.7])
def test_exit_law_cdf_against_quadrature(alpha):
    # independent oracle: the radial density is (q^2-1)^{-a} q^{-1} on (1, inf)
    # with a = alpha/2; substituting t = q^2 - 1 gives t^{-a}/(2(1+t)) whose
    # total mass is pi / (2 sin(pi a))
    law = ExitRadiusLaw(alpha)
    a = alpha / 2.0
    norm = math.pi / math.sin(math.pi * a)
    for q in (1.3, 2.0, 4.0):
        val, err = quad1d(lambda t: t**(-a) / (1.0 + t), 0.0, q * q - 1.0,
                          epsabs=1e-13)
        want = float(law.cdf(np.array([q]))[0])
        assert val / norm == pytest.approx(want, abs=1e-8 + 10 * err)


def test_exit_law_table_matches_exact():
    law = ExitRadiusLaw(1.5)
    u = Generator(Philox(key=3)).random(50000)
    rel = np.abs(law.factor(u) - law.factor_exact(u)) / law.factor_exact(u)
    assert np.max(rel) < 1e-6


def test_estimate_disk_center():
    est = estimate_phi(DISK, CAUCHY, [0.0, 0.0], WalkConfig(n_walks=200000, seed=7))
    assert abs(est.mean - 2 / math.pi) < 3 * est.std_error
    assert est.truncated == 0


def test_estimate_disk_offcenter():
    est = estimate_phi(DISK, CAUCHY, [0.6, 0.0], WalkConfig(n_walks=200000, seed=8))
    want = (2 / math.pi) * 0.8
    assert abs(est.mean - want) < 3 * est.std_error


def test_estimate_brownian():
    est = estimate_phi(DISK, StableParams(2.0, 2), [0.0, 0.0],
                       WalkConfig(n_walks=30000, seed=9))
    assert abs(est.mean - 0.25) < 3.5 * est.std_error


def test_estimate_outside_raises():
    with pytest.raises(PointOutsideError):
        estimate_phi(DISK, CAUCHY, [2.0, 0.0], WalkConfig(n_walks=10, seed=1))


def test_determinism_across_threads_and_reruns():
    cfg = WalkConfig(n_walks=40000, seed=3)
    a = estimate_phi(DISK, CAUCHY, [0.3, 0.2], cfg)
    b = estimate_phi(DISK, CAUCHY, [0.3, 0.2], cfg)
    c = estimate_phi(DISK, CAUCHY, [0.3, 0.2], cfg, n_threads=8)
    assert a == b == c  # bitwise-identical dataclasses


def test_exit_points_independent_of_threads():
    cfg = WalkConfig(n_walks=40000, seed=12)  # three batches
    a, fa = estimate_phi(DISK, CAUCHY, [0.3, 0.2], cfg, return_final_points=True)
    b, fb = estimate_phi(DISK, CAUCHY, [0.3, 0.2], cfg, n_threads=2, return_final_points=True)
    assert a == b
    assert fa.shape == (40000, 2) and fa.tobytes() == fb.tobytes()


class _RecordingDomain(SupportDomain):
    """A SupportDomain that records the rows and step distances of every walk step."""

    def __init__(self, coeffs):
        super().__init__(coeffs)
        self.steps = []

    def step_distance(self, pts, cut):
        r = super().step_distance(pts, cut)
        self.steps.append((pts.copy(), r.copy(), cut))
        return r


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
def test_every_ball_stays_inside_the_ellipse(alpha):
    dom = _RecordingDomain(SupportDomain.ellipse(0.8, 0.5).coeffs)
    p = StableParams(alpha, 2)
    estimate_phi(dom, p, [0.5, 0.3], WalkConfig(n_walks=3000, seed=21))
    build_field(dom, p, 0.1, WalkConfig(n_walks=20, seed=22))
    pts = np.concatenate([q for q, _, _ in dom.steps])
    r = np.concatenate([r for _, r, _ in dom.steps])
    cut = np.concatenate([np.full(len(q), c) for q, _, c in dom.steps])
    # the exact distance, the one query step_distance's exact rows make
    exact, _ = dom._signed_distance_foot(pts)
    step = r > cut
    # a step's ball has radius kappa r: r is at most the exact distance, and
    # a row exits exactly when its exact distance is at most the cut
    assert np.all(r[step] <= exact[step])
    assert np.array_equal(step, exact > cut)
    # many rows step on the lattice bound (exact rows return the oracle's
    # bits); at alpha = 2 walks creep to the shell, so only 47% do
    assert np.count_nonzero(r[step] < exact[step]) > 0.4 * np.count_nonzero(step)


def test_ellipse_walks_independent_of_threads(monkeypatch):
    # n_threads has no effect: at full size the 40 000 walks are three batches
    # of one run, and with 128-walk batches the calls span several runs
    p = StableParams(1.5, 2)
    for batch, n_walks, node_walks, n_runs in ((wos._BATCH, 40000, 120, 1), (128, 1500, 25, 2)):
        monkeypatch.setattr(wos, "_BATCH", batch)
        assert -(-n_walks // (batch * wos._RUN)) == n_runs
        runs = []
        for n_threads in (1, 2):
            dom = SupportDomain.ellipse(0.8, 0.5)  # each run builds its own lattice
            est, fin = estimate_phi(dom, p, [0.2, -0.1], WalkConfig(n_walks=n_walks, seed=13),
                                    n_threads=n_threads, return_final_points=True)
            field = build_field(dom, CAUCHY, 0.1, WalkConfig(n_walks=node_walks, seed=14),
                                n_threads=n_threads)
            runs.append((est, fin.tobytes(), field.values.tobytes(), field.stderr.tobytes()))
        assert runs[0] == runs[1]


@pytest.mark.parametrize("dom, p, x", [
    (DISK, StableParams(1.0, 3), [0.1, 0.2, 0.3]),
    (SupportDomain.ellipse(0.8, 0.5), StableParams(1.0, 3), [0.1, 0.2, 0.3]),
    (DISK, StableParams(1.0, 3), [0.1, 0.2]),
    (ConeDomain(0.4, 3), StableParams(1.0, 2), [0.5, 0.05, -0.05]),
    (ConeDomain(0.4, 3), StableParams(1.0, 3), [0.5, 0.05]),
])
def test_start_dimension_must_match_domain_and_process(dom, p, x):
    with pytest.raises(PointOutsideError, match="coordinates"):
        estimate_phi(dom, p, x, WalkConfig(n_walks=10, seed=1))


def test_termination_is_exact_for_jumps():
    # alpha < 2: every finished walk ends strictly outside the domain
    est, finals = estimate_phi(DISK, CAUCHY, [0.2, 0.1],
                               WalkConfig(n_walks=5000, seed=11),
                               return_final_points=True)
    assert est.truncated == 0
    assert len(finals) == 5000
    assert np.all(DISK.boundary_distance_batch(finals) <= geom._BOUNDARY_TOL)


def test_truncation_reported():
    est = estimate_phi(DISK, CAUCHY, [0.0, 0.0],
                       WalkConfig(n_walks=2000, max_steps=1, seed=2))
    assert est.truncated > 0
    assert est.biased_low
    assert est.mean_steps == 1.0


def test_truncation_negligible_at_default_depth():
    est = estimate_phi(DISK, CAUCHY, [0.0, 0.0],
                       WalkConfig(n_walks=100000, max_steps=10000, seed=4))
    assert est.truncated / est.n_walks < 1e-4


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
def test_scaling_law(alpha):
    # estimates on a D at a x equal a^alpha estimates on D at x
    p = StableParams(alpha, 2)
    n = 60000 if alpha < 2 else 20000
    e1 = estimate_phi(SupportDomain.disk(1.0), p, [0.3, 0.1],
                      WalkConfig(n_walks=n, seed=21))
    e2 = estimate_phi(SupportDomain.disk(2.0), p, [0.6, 0.2],
                      WalkConfig(n_walks=n, seed=22))
    sigma = math.hypot(e2.std_error, 2**alpha * e1.std_error)
    assert abs(e2.mean - 2**alpha * e1.mean) < 3 * sigma


def test_monotone_in_domain():
    # exit times grow with the domain
    ell = SupportDomain.ellipse(0.8, 0.5)
    x = [0.2, 0.1]
    small = estimate_phi(ell, CAUCHY, x, WalkConfig(n_walks=60000, seed=31))
    big = estimate_phi(DISK, CAUCHY, x, WalkConfig(n_walks=60000, seed=32))
    sigma = math.hypot(small.std_error, big.std_error)
    assert small.mean <= big.mean + 3 * sigma


def test_cone_walks_run_in_2d_and_3d():
    cfg = WalkConfig(n_walks=10000, seed=41)
    est2 = estimate_phi(ConeDomain(0.3, 2), StableParams(1.5, 2), [0.5, 0.0], cfg)
    est3 = estimate_phi(ConeDomain(0.3, 3), StableParams(1.5, 3), [0.5, 0.0, 0.0], cfg)
    assert est2.mean > est3.mean > 0  # extra dimension only removes mass


@pytest.mark.parametrize("dim", [4, 5])
def test_directions_in_four_and_five_dimensions(dim):
    # from dim 4 on, directions are normalised Box-Muller Gaussians
    width = wos._uniform_width(dim)
    assert width == 1 + 2 * ((dim + 1) // 2)
    uni = Generator(Philox(key=dim)).random((width - 1, 200_000))
    v = wos._directions(uni, dim)
    assert v.shape == (dim, 200_000)
    assert np.max(np.abs(np.linalg.norm(v, axis=0) - 1.0)) < 1e-15
    # isotropic: E[v v^T] = I / dim
    second = dim * (v @ v.T) / v.shape[1]
    assert np.max(np.abs(second - np.eye(dim))) < 0.01


_EDGE_UNIFORMS = [0.0, 2.0 ** -53, 0.25, 0.5, 0.75, 1.0 - 2.0 ** -53]


def test_table_directions_match_libm():
    u = np.concatenate([_EDGE_UNIFORMS, Generator(Philox(key=18)).random(10 ** 6)])
    c, s = wos._cos_sin_turns(u, np.empty((2, u.size)))
    assert np.max(np.abs(c - np.cos(2.0 * np.pi * u))) <= 1e-15
    assert np.max(np.abs(s - np.sin(2.0 * np.pi * u))) <= 1e-15
    assert np.max(np.abs(c * c + s * s - 1.0)) <= 1e-15


def test_table_direction_rows_do_not_depend_on_batch_size():
    u = np.concatenate([_EDGE_UNIFORMS, Generator(Philox(key=19)).random(16384 - 6)])
    full = wos._cos_sin_turns(u, np.empty((2, u.size)))
    for n in (1, 64):
        assert wos._cos_sin_turns(u[:n], np.empty((2, n))).tobytes() == full[:, :n].tobytes()
    # and through _directions, one column at a time, as the per-walk reference reads it
    for dim in (2, 3, 5):
        uni = Generator(Philox(key=dim)).random((wos._uniform_width(dim) - 1, 64))
        rows = wos._directions(uni, dim)
        for j in (0, 37, 63):
            assert wos._directions(uni[:, j:j + 1], dim).tobytes() == rows[:, j:j + 1].tobytes()


@pytest.mark.parametrize("alpha", [1.0, 1.5])
def test_cone_walks_in_four_dimensions(alpha):
    # the cone lies inside the unit ball, so its exit time is below the ball's
    p = StableParams(alpha, 4)
    x = [0.5, 0.0, 0.0, 0.0]
    cfg = WalkConfig(n_walks=20_000, seed=43)  # two batches
    est = estimate_phi(ConeDomain(0.3, 4), p, x, cfg)
    assert 0 < est.mean + 3 * est.std_error < ball_phi(p, 1.0, x)
    two = estimate_phi(ConeDomain(0.3, 4), p, x, cfg, n_threads=2)
    assert two == est  # every field bitwise


@pytest.fixture(scope="module")
def disk_field():
    return build_field(DISK, CAUCHY, 0.08, WalkConfig(n_walks=8000, seed=3),
                       domain_ref="builtin:disk")


def test_field_interpolation_accuracy(disk_field):
    pts = np.array([[0.3, 0.4], [0.0, 0.0], [-0.5, 0.1]])
    want = (2 / math.pi) * np.sqrt(1 - np.sum(pts * pts, axis=1))
    got = disk_field.values_at(pts)
    err = disk_field.stderr_at(pts)
    assert np.all(np.abs(got - want) <= 3 * (err + 0.002))


def test_field_zero_outside_and_vanishing_at_boundary(disk_field):
    assert np.all(disk_field.values_at([[1.5, 0.0], [0.0, -2.0]]) == 0.0)
    near = disk_field.values_at([[1 - 1e-7, 0.0]])
    assert 0 <= near[0] < 1e-3


def test_field_seam_continuity(disk_field):
    # crossing the collar boundary changes the value within noise allowance
    c = disk_field.collar
    for ang in np.linspace(0, 2 * np.pi, 17):
        u = np.array([math.cos(ang), math.sin(ang)])
        inside = (1 - c * 1.001) * u
        outside = (1 - c * 0.999) * u
        gap = abs(float(disk_field.values_at([inside])[0])
                  - float(disk_field.values_at([outside])[0]))
        tol = 2 * (float(disk_field.stderr_at([inside])[0]) + 0.002)
        assert gap <= tol + 1e-4


def test_field_concavity_statistical(disk_field):
    rng = np.random.default_rng(6)
    xs, ys = [], []
    while len(xs) < 800:
        cand = rng.uniform(-1, 1, size=2)
        if np.hypot(*cand) < 0.97:
            (xs if len(xs) <= len(ys) else ys).append(cand)
    xs, ys = np.array(xs[:400]), np.array(ys[:400])
    lam = rng.uniform(0, 1, len(xs))
    mid = lam[:, None] * xs + (1 - lam[:, None]) * ys
    margin = (disk_field.values_at(mid)
              - lam * disk_field.values_at(xs)
              - (1 - lam) * disk_field.values_at(ys))
    tol = 3 * (disk_field.stderr_at(mid) + 0.003)
    assert np.all(margin >= -tol)


def test_field_file_roundtrip(tmp_path, disk_field):
    path = tmp_path / "disk.pf"
    save_field(disk_field, path)
    text = path.read_text()
    assert text.splitlines()[0] == "phifield v2"
    back = load_field(path)
    save_field(back, path)
    assert path.read_text() == text
    rng = np.random.default_rng(8)
    r = np.concatenate([rng.uniform(0.0, 0.8, 200),
                        rng.uniform(1.0 - disk_field.collar, 1.0, 200)])
    ang = rng.uniform(0.0, 2 * np.pi, r.size)
    pts = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)
    assert np.array_equal(back.values_at(pts), disk_field.values_at(pts))
    assert np.array_equal(back.stderr_at(pts), disk_field.stderr_at(pts))
    assert np.all(back.stderr_at(pts[200:]) > 0.0)  # collar error bars survive


@pytest.fixture(scope="module")
def ellipse_field():
    return build_field(SupportDomain.ellipse(0.8, 0.5), CAUCHY, 0.1,
                       WalkConfig(n_walks=200, seed=4))


def test_deep_field_reads_skip_the_oracle_bitwise(ellipse_field, monkeypatch):
    f = ellipse_field
    rng = np.random.default_rng(31)
    pts = rng.uniform([-0.95, -0.65], [0.95, 0.65], size=(10_000, 2))
    pts[:2000] = f.dom.boundary_point(rng.uniform(0, 2 * np.pi, 2000)) * rng.uniform(
        0.8, 1.02, (2000, 1))  # the collar and just outside
    foot = f.dom._signed_distance_foot(pts)
    d = foot[0]
    for where in (d > f.collar, (d > 0) & (d <= f.collar), d <= 0):
        assert np.count_nonzero(where) > 500  # deep, collar and exterior points
    want = f.values_at(pts, foot), f.stderr_at(pts, foot)  # every row queried
    queried = []
    query = f.dom._signed_distance_foot

    def counting(q):
        queried.append(len(q))
        return query(q)

    monkeypatch.setattr(f.dom, "_signed_distance_foot", counting)
    values, errs = f.values_and_stderr_at(pts)
    assert values.tobytes() == want[0].tobytes()
    assert errs.tobytes() == want[1].tobytes()
    deep = np.count_nonzero(f.dom.lower_distance(pts) > f.collar)
    assert deep > 0.3 * np.count_nonzero(d > f.collar)
    assert queried == [len(pts) - deep]
    # the separate reads make the same one query each
    assert f.values_at(pts).tobytes() == want[0].tobytes()
    assert f.stderr_at(pts).tobytes() == want[1].tobytes()
    assert queried == [len(pts) - deep] * 3


def test_estimate_phi_queries_start_once(monkeypatch):
    dom = SupportDomain.ellipse(0.8, 0.5)
    queried = []
    query = dom._signed_distance_foot

    def counting(pts, *lattice_reads):
        queried.append(pts.copy())
        return query(pts, *lattice_reads)

    monkeypatch.setattr(dom, "_signed_distance_foot", counting)
    est = estimate_phi(dom, CAUCHY, [0.3, 0.1], WalkConfig(n_walks=20000, seed=2))
    rows = np.concatenate(queried)
    # one start query for both batches; walk steps query the exact distance
    # only on rows near the boundary, about 1.5% of them at alpha = 1
    assert len(queried[0]) == 1
    assert np.count_nonzero(np.all(rows == [0.3, 0.1], axis=1)) == 1
    assert 0 < sum(map(len, queried[1:])) < 0.05 * round(est.mean_steps * est.n_walks)


def _rotated_ellipse(a, b, phi=0.3):
    return SupportDomain.from_function(
        lambda t: np.sqrt(a * a * np.cos(t - phi) ** 2 + b * b * np.sin(t - phi) ** 2))


@pytest.mark.parametrize("name", ["ellipse", "rotated eccentric"])
def test_every_exact_distance_is_the_one_query(name):
    # the public distances, the walks' exact rows, the field's nodes and its
    # reads return _signed_distance_foot's bits on the same rows, on points
    # across the domain and within 1e-9..1e-3 of its boundary
    dom, spacing = {"ellipse": (SupportDomain.ellipse(0.8, 0.5), 0.1),
                    "rotated eccentric": (_rotated_ellipse(0.9, 0.15), 0.05)}[name]
    rng = np.random.default_rng(41)
    theta = rng.uniform(0.0, 2 * np.pi, 2000)
    b = dom.boundary_point(theta)
    normal = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    pts = np.concatenate([b[:1000] * rng.uniform(0.0, 1.2, (1000, 1)),
                          b[1000:] - (10.0 ** rng.uniform(-9, -3, (1000, 1))
                                      * rng.choice([-1.0, 1.0], (1000, 1))) * normal[1000:]])
    d, foot = dom._signed_distance_foot(pts)
    assert dom.boundary_distance_batch(pts).tobytes() == d.tobytes()
    near, angle, dist = dom.nearest_boundary(pts)
    assert dist.tobytes() == d.tobytes() and angle.tobytes() == foot.tobytes()
    assert near.tobytes() == (pts + d[:, None] * np.stack([np.cos(foot), np.sin(foot)],
                                                          axis=1)).tobytes()
    # step_distance's exact rows: no bound decides them
    cut = 1e-12
    exact = ((dom.lower_distance(pts) <= max(geom._EXACT_BELOW, cut))
             & (dom._lattice().upper_foot(pts)[0] > cut))
    assert np.count_nonzero(exact) > 300
    assert dom.step_distance(pts, cut)[exact].tobytes() == d[exact].tobytes()
    field = build_field(dom, CAUCHY, spacing, WalkConfig(n_walks=10, seed=3))
    nx, ny = field.values.shape
    xs = field.origin[0] + field.spacing * np.arange(nx)
    ys = field.origin[1] + field.spacing * np.arange(ny)
    grid = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    assert field.node_delta.tobytes() == dom._signed_distance_foot(grid)[0].tobytes()
    collar = (d > 0) & (d <= field.collar)
    assert np.count_nonzero(collar) > 200
    assert field.values_at(pts).tobytes() == field.values_at(pts, (d, foot)).tobytes()
    assert field.stderr_at(pts).tobytes() == field.stderr_at(pts, (d, foot)).tobytes()


def test_field_file_rejects_v1_and_bad_domain(tmp_path, disk_field):
    path = tmp_path / "disk.pf"
    save_field(disk_field, path)
    text = path.read_text()
    path.write_text(text.replace("phifield v2", "phifield v1", 1))
    with pytest.raises(DomainFileError, match="rebuild"):
        load_field(path)
    path.write_text(text.replace("domain=builtin:disk", "domain=builtin:bogus", 1))
    with pytest.raises(DomainFileError, match="unknown builtin domain"):
        load_field(path)


def _field_lines(tmp_path, disk_field):
    path = tmp_path / "disk.pf"
    save_field(disk_field, path)
    return path, path.read_text().splitlines(keepends=True)


def test_field_file_domain_path_is_relative_to_the_field_file(tmp_path, disk_field,
                                                               monkeypatch):
    folder = tmp_path / "fields"
    folder.mkdir()
    path = folder / "disk.pf"
    save_field(disk_field, path)
    path.write_text(path.read_text().replace("domain=builtin:disk", "domain=unit.sf", 1))
    geom.save_domain(DISK, folder / "unit.sf")
    monkeypatch.chdir(tmp_path)  # the domain file is not in the working directory
    back = load_field(path)
    assert back.domain_ref == "unit.sf"
    assert np.array_equal(back.dom.coeffs, DISK.coeffs)
    pts = np.array([[0.3, 0.4], [0.0, 0.0], [-0.5, 0.1], [0.9, 0.3]])
    assert np.array_equal(back.values_at(pts), disk_field.values_at(pts))


@pytest.mark.parametrize("line, new, says", [
    (r"phifield v2", "phifield v3", "not a phifield v2 file"),
    (r"alpha=.*", "alfa=1", "expected alpha= on line 3"),
    (r"origin=.*", "origin=-1.08", "origin needs two coordinates"),
    (r"blend=\d+", "blend=0", "at least one sector"),
    # the numbers are checked too: a node value, a node stderr, a blend row
    (r"(nodes=\d+\n\d+ \d+) \S+( \S+)", r"\1 nan\2", "node value is not finite"),
    (r"(nodes=\d+\n\d+ \d+ \S+) \S+", r"\1 -0.1", "node stderr is not finite"),
    (r"(nodes=\d+\n\d+ \d+ \S+) \S+", r"\1 inf", "node stderr is not finite"),
    (r"(blend=\d+\n\S+) \S+( .*)", r"\1 nan\2", "blend row is not finite"),
    (r"spacing=.*", "spacing=0", "spacing=0 is not finite and > 0"),
    (r"spacing=.*", "spacing=-0.1", "spacing=-0.1 is not finite and > 0"),
    (r"spacing=.*", "spacing=inf", "spacing=inf is not finite and > 0"),
    (r"alpha=.*", "alpha=7", r"alpha=7 lies outside \(0, 2\]"),
    (r"alpha=.*", "alpha=0", r"alpha=0 lies outside \(0, 2\]"),
])
def test_malformed_field_file_is_a_domain_file_error(tmp_path, disk_field, line, new, says):
    from stabletau.cli import EXIT_IO, main

    path = tmp_path / "disk.pf"
    save_field(disk_field, path)
    text, n = re.subn(f"^{line}$", new, path.read_text(), flags=re.M)
    assert n == 1
    path.write_text(text)
    with pytest.raises(DomainFileError, match=says):
        load_field(path)
    assert main(["hessian-scan", "--field", str(path), "--points", "halton:2"]) == EXIT_IO


def test_field_file_rejects_truncation(tmp_path, disk_field):
    path, lines = _field_lines(tmp_path, disk_field)
    for keep in (3, 20, len(lines) - 5):  # in the header, the nodes and the blend
        path.write_text("".join(lines[:keep]))
        with pytest.raises(DomainFileError, match="truncated"):
            load_field(path)


def test_field_file_rejects_bad_numbers(tmp_path, disk_field):
    path, lines = _field_lines(tmp_path, disk_field)
    i, j, v, s = lines[10].split()
    for bad in (f"{i} {j} 0.1x {s}\n", f"{i} {j} {v}\n", f"{i}.5 {j} {v} {s}\n"):
        path.write_text("".join(lines[:10] + [bad] + lines[11:]))
        with pytest.raises(DomainFileError):
            load_field(path)
    path.write_text("".join(lines).replace("alpha=1\n", "alpha=one\n", 1))
    with pytest.raises(DomainFileError):
        load_field(path)


def test_field_file_rejects_nodes_outside_shape(tmp_path, disk_field):
    path, lines = _field_lines(tmp_path, disk_field)
    nx, ny = disk_field.values.shape
    _, _, v, s = lines[10].split()
    for i, j in ((-1, 5), (5, -1), (nx, 5), (5, ny)):
        path.write_text("".join(lines[:10] + [f"{i} {j} {v} {s}\n"] + lines[11:]))
        with pytest.raises(DomainFileError, match="outside shape"):
            load_field(path)


def test_field_file_rejects_duplicate_and_missing_nodes(tmp_path, disk_field):
    path, lines = _field_lines(tmp_path, disk_field)
    n = int(lines[6].split("=")[1])
    where = {tuple(map(int, lines[k].split()[:2])): k for k in range(7, 7 + n)}
    a, b = where[(4, 10)], where[(4, 11)]
    # the line for (4, 11) replaced by a copy of the line for (4, 10): it used
    # to load, and the reloaded field read 0 at the interior node (4, 11)
    path.write_text("".join(lines[:b] + [lines[a]] + lines[b + 1:]))
    with pytest.raises(DomainFileError, match=r"\(4, 10\) .* listed twice"):
        load_field(path)
    dropped = lines[:b] + lines[b + 1:]
    dropped[6] = f"nodes={n - 1}\n"
    path.write_text("".join(dropped))
    with pytest.raises(DomainFileError, match=r"\(4, 11\) is reliable and not listed"):
        load_field(path)
    extra = lines[:7] + ["0 0 0.5 0.01\n"] + lines[7:]
    extra[6] = f"nodes={n + 1}\n"
    path.write_text("".join(extra))
    with pytest.raises(DomainFileError, match=r"\(0, 0\) is listed and not reliable"):
        load_field(path)


def test_field_grid_too_coarse():
    with pytest.raises(GridTooCoarseError):
        build_field(DISK, CAUCHY, 0.5, WalkConfig(n_walks=100, seed=1))
    # 130 interior nodes, none of them deep enough to fit the boundary blend
    strip = SupportDomain.from_polygon([[1, .03], [-1, .03], [-1, -.03], [1, -.03]])
    with pytest.raises(GridTooCoarseError, match="boundary blend"):
        build_field(strip, CAUCHY, 0.045, WalkConfig(n_walks=100, seed=1))
    for spacing in (0.0, -0.1, float("nan")):  # 0 divided by zero, -0.1 built no nodes
        with pytest.raises(ValueError, match="spacing must be positive"):
            build_field(DISK, CAUCHY, spacing, WalkConfig(n_walks=100, seed=1))


def test_walk_estimate_is_frozen():
    est = WalkEstimate(1.0, 0.1, 10, 0, 2.0)
    with pytest.raises(Exception):
        est.mean = 2.0


# -- the walk loop's random stream ---------------------------------------------------------

def _reference_walks(dom, p, pos0, delta0, cfg, stream, batch_start):
    """Per-walk reference for wos._run_batch: walks advance one at a time, and
    at step k the j-th live walk (in walk order) reads column j of the step's
    (width, n_live) uniform block.  Each walk's arithmetic runs on one-element
    arrays, so it takes the same numpy loops as the batch.  Returns per-walk
    times, steps and exit points, and the walks still live at the cut.  Each
    step's distance is the domain's step_distance of its one row."""
    law = ExitRadiusLaw(p.alpha)
    width = wos._uniform_width(p.dim)
    cb = ball_exit_constant(p)
    exit_cut = wos._SHELL if p.alpha == 2.0 else 1e-12
    n = len(pos0)
    pos = np.array(pos0, dtype=float)
    delta = np.array(delta0, dtype=float)
    tacc = np.zeros(n)
    steps = np.zeros(n, dtype=np.int64)
    finals = np.full(pos.shape, np.nan)
    live = list(range(n))
    for k in range(cfg.max_steps):
        if not live:
            break
        uni = wos._uniform_block(cfg.seed, stream, batch_start, k, width, len(live))
        survivors = []
        for j, w in enumerate(live):
            u = uni[:, j:j + 1]
            s = wos._BALL_FRACTION * delta[w:w + 1]
            tacc[w:w + 1] += cb * s ** p.alpha
            step = wos._directions(u[1:], p.dim).T  # (dim, 1) rows as one (1, dim) point
            new = pos[w:w + 1] + (s * law.factor(u[0]))[:, None] * step
            delta[w:w + 1] = dom.step_distance(new, exit_cut)
            pos[w] = new[0]
            steps[w] += 1
            if delta[w] <= exit_cut:
                finals[w] = new[0]
            else:
                survivors.append(w)
        live = survivors
    return tacc, steps, finals, live


def _reference_run(dom, p, pos0, delta0, cfg, stream, batch_start):
    """_reference_walks batch by batch: walks b _BATCH onwards form batch b, whose
    counters start at batch_start + b _BATCH."""
    parts = [(lo, _reference_walks(dom, p, pos0[lo:lo + wos._BATCH], delta0[lo:lo + wos._BATCH],
                                   cfg, stream, batch_start + lo))
             for lo in range(0, len(pos0), wos._BATCH)]
    return (np.concatenate([ref[0] for _, ref in parts]),
            np.concatenate([ref[1] for _, ref in parts]),
            np.concatenate([ref[2] for _, ref in parts]),
            [w + lo for lo, ref in parts for w in ref[3]])


def _check_batch_against_reference(dom, p, pos0, cfg, stream, batch_start, group_of=None):
    """_run_batch on pos0 against _reference_run: per walk, and in its per-batch sums."""
    delta0 = dom.boundary_distance_batch(pos0)
    tacc, steps, finals, live = _reference_run(dom, p, pos0, delta0, cfg, stream, batch_start)
    n = len(pos0)
    batches = [slice(lo, lo + wos._BATCH) for lo in range(0, n, wos._BATCH)]
    args = (dom, p, pos0, delta0, cfg, stream, batch_start, wos._exit_law(p.alpha),
            wos._uniform_width(p.dim))
    # one group per walk gives the per-walk times, truncation flags and steps
    sums, fin = wos._run_batch(*args, True, np.arange(n), n)
    t1, t2, tr, st = np.concatenate([sums[:, b, rows] for b, rows in enumerate(batches)], axis=1)
    assert t1.tobytes() == tacc.tobytes()
    assert t2.tobytes() == (tacc * tacc).tobytes()
    assert np.array_equal(np.nonzero(tr)[0], live)
    assert np.array_equal(st, steps)
    assert fin.tobytes() == finals.tobytes()
    g = 1 if group_of is None else group_of.max() + 1
    want = np.empty((4, len(batches), g))
    cut = np.isin(np.arange(n), live)
    for b, rows in enumerate(batches):
        t = tacc[rows]
        if group_of is None:
            want[:, b, 0] = t.sum(), np.dot(t, t), np.count_nonzero(cut[rows]), steps[rows].sum()
        else:
            gb = group_of[rows]
            want[:, b] = (np.bincount(gb, weights=t, minlength=g),
                          np.bincount(gb, weights=t * t, minlength=g),
                          np.bincount(gb[cut[rows]], minlength=g),
                          np.bincount(gb, weights=steps[rows], minlength=g))
    sums, _ = wos._run_batch(*args, False, group_of, g)
    assert sums.tobytes() == want.tobytes()
    return tacc, steps, finals, live, want


def test_run_batch_matches_per_walk_reference_disk():
    p = StableParams(1.5, 2)
    x = np.array([0.3, 0.2])
    cfg = WalkConfig(n_walks=400, seed=17)
    tacc, steps, finals, live, _ = _check_batch_against_reference(
        DISK, p, np.tile(x, (400, 1)), cfg, stream=0, batch_start=0)
    assert not live and steps.max() > 20  # the heavy step tail is covered
    est, fin = estimate_phi(DISK, p, x, cfg, return_final_points=True)
    assert fin.tobytes() == finals.tobytes()
    assert est.mean == tacc.sum() / 400 and est.mean_steps == steps.sum() / 400
    assert est.truncated == 0


def test_run_batch_matches_per_walk_reference_truncated():
    cfg = WalkConfig(n_walks=400, max_steps=3, seed=5)
    _, steps, _, live, _ = _check_batch_against_reference(
        DISK, StableParams(1.5, 2), np.zeros((400, 2)), cfg, stream=0, batch_start=0)
    assert 0 < len(live) < 400
    assert np.all(steps[live] == 3)
    est = estimate_phi(DISK, StableParams(1.5, 2), [0.0, 0.0], cfg)
    assert est.truncated == len(live) and est.mean_steps == steps.sum() / 400


def test_run_batch_matches_per_walk_reference_grouped_ellipse():
    dom = SupportDomain.ellipse(0.8, 0.5)
    starts = np.array([[0.0, 0.0], [0.5, 0.1], [-0.3, -0.3], [0.1, 0.4]])
    group_of = np.repeat(np.arange(4), 60)
    _check_batch_against_reference(dom, CAUCHY, starts[group_of], WalkConfig(n_walks=60, seed=9),
                                   stream=1, batch_start=16384, group_of=group_of)


@pytest.mark.parametrize("dom, p, x, n", [
    (ConeDomain(0.4, 3), StableParams(1.5, 3), [0.5, 0.05, -0.05], 200),  # dim != 2
    (DISK, StableParams(2.0, 2), [0.3, 0.2], 60),  # the absorption shell
    (DISK, StableParams(0.5, 2), [0.3, 0.2], 400)])
def test_run_batch_matches_per_walk_reference_other_paths(dom, p, x, n):
    cfg = WalkConfig(n_walks=n, seed=23)
    _, steps, _, live, _ = _check_batch_against_reference(dom, p, np.tile(x, (n, 1)), cfg,
                                                       stream=2, batch_start=0)
    assert not live and steps.max() > 1


# -- shared walk tails: the batches of a run advance their parked tails together ------------

@pytest.fixture
def block_log(monkeypatch):
    """Batches of 128 walks, so that small calls span several batches and runs,
    and the (batch_start, step) of every uniform block drawn, in draw order."""
    monkeypatch.setattr(wos, "_BATCH", 128)
    block, log = wos._uniform_block, []

    def logging(seed, stream, batch_start, step, *args):
        log.append((batch_start, step))
        return block(seed, stream, batch_start, step, *args)

    monkeypatch.setattr(wos, "_uniform_block", logging)
    return log


def _shared_rounds(log):
    """Each batch's steps taken alone, and the shared rounds as lists of (batch_start, step).

    A batch's lone steps draw consecutively; the shared rounds start at the first
    draw whose batch precedes the previous draw's, and a round starts again at
    each draw whose batch does not follow the previous draw's."""
    first = next(i for i in range(1, len(log)) if log[i][0] < log[i - 1][0])
    alone = {}
    for batch_start, _ in log[:first]:
        alone[batch_start] = alone.get(batch_start, 0) + 1
    rounds = []
    for i in range(first, len(log)):
        if i == first or log[i][0] <= log[i - 1][0]:
            rounds.append([])
        rounds[-1].append(log[i])
    return alone, rounds


def _moments(want, nw):
    """_walk_starts' per-start mean, std_error, truncated and mean_steps from the
    per-batch sums added in batch order."""
    sums = np.zeros((4, want.shape[2]))
    for b in range(want.shape[1]):
        sums += want[:, b]
    tsum, t2sum, truncated, steps = sums
    mean = tsum / nw
    var = np.maximum(t2sum - nw * mean * mean, 0.0) / max(nw - 1, 1)
    return mean, np.sqrt(var / nw), truncated, steps / nw


def test_shared_tails_match_per_walk_reference_disk(block_log):
    p, x = StableParams(1.5, 2), [0.3, 0.2]
    cfg = WalkConfig(n_walks=400, seed=17)
    tacc, steps, finals, live, want = _check_batch_against_reference(
        DISK, p, np.tile(x, (400, 1)), cfg, stream=0, batch_start=0)
    assert want.shape[1] == 4 and not live
    block_log.clear()
    est, fin = estimate_phi(DISK, p, x, cfg, return_final_points=True)
    alone, rounds = _shared_rounds(block_log)
    # the last batch, 16 walks, is parked at once; all four tails share rounds
    assert sorted(alone) == [0, 128, 256] and max(len(r) for r in rounds) == 4
    assert fin.tobytes() == finals.tobytes()
    mean, err, truncated, mean_steps = _moments(want, 400)
    assert (est.mean, est.std_error, est.truncated, est.mean_steps) == \
        (mean[0], err[0], truncated[0], mean_steps[0])


def test_shared_tails_match_per_walk_reference_grouped_ellipse(block_log):
    # 250 walks per start: groups straddle the batch edges, and the 1 250 walks
    # are ten batches in two runs
    dom = SupportDomain.ellipse(0.8, 0.5)
    starts = np.array([[0.0, 0.0], [0.5, 0.1], [-0.3, -0.3], [0.1, 0.4], [-0.6, 0.05]])
    cfg = WalkConfig(n_walks=250, seed=9)
    group_of = np.repeat(np.arange(5), 250)
    *_, want = _check_batch_against_reference(dom, CAUCHY, starts[group_of], cfg, stream=1,
                                              batch_start=0, group_of=group_of)
    assert want.shape[1] == 10 > wos._RUN
    got = wos._walk_starts(dom, CAUCHY, starts, cfg, 1)
    for g, w in zip(got, _moments(want, 250)):
        assert g.tobytes() == w.tobytes()


def test_shared_tails_truncate_each_batch_at_its_own_cap(block_log):
    p, x = StableParams(0.5, 2), [0.3, 0.2]
    cfg = WalkConfig(n_walks=512, max_steps=4, seed=1)
    _, steps, _, live, want = _check_batch_against_reference(
        DISK, p, np.tile(x, (512, 1)), cfg, stream=0, batch_start=0)
    assert len(np.unique(np.array(live) // 128)) == 4 and np.all(steps[live] == 4)
    block_log.clear()
    est = estimate_phi(DISK, p, x, cfg)
    alone, rounds = _shared_rounds(block_log)
    # the batches were parked after different numbers of steps, so their last
    # steps fall in different shared rounds
    assert len(set(alone.values())) > 1
    last = {batch_start: i for i, r in enumerate(rounds) for batch_start, step in r if step == 3}
    assert sorted(last) == [0, 128, 256, 384] and len(set(last.values())) > 1
    mean, err, truncated, mean_steps = _moments(want, 512)
    assert est.truncated == len(live) == truncated[0]
    assert (est.mean, est.std_error, est.mean_steps) == (mean[0], err[0], mean_steps[0])


@pytest.mark.parametrize("alpha", [1.5, 2.0])
def test_every_uniform_drawn_is_used(monkeypatch, alpha):
    block = wos._uniform_block
    columns = []

    def counting(*args):
        out = block(*args)
        columns.append(out.shape[1])
        return out

    monkeypatch.setattr(wos, "_uniform_block", counting)
    n = 20000 if alpha < 2 else 3000
    est = estimate_phi(DISK, StableParams(alpha, 2), [0.3, 0.2], WalkConfig(n_walks=n, seed=6))
    assert sum(columns) == round(est.mean_steps * est.n_walks)


@pytest.mark.parametrize("seed, stream, batch_start, step",
                         [(0, 0, 0, 0), (3, 1, 16384, 7), (2 ** 62 + 5, 0, 49152, 9999),
                          (2 ** 64 - 1, 2, 0, 1)])
def test_uniform_block_reuses_generator_bitwise(seed, stream, batch_start, step):
    gen = Generator(Philox(0))
    gen.random(11)  # a used generator, mid-buffer
    key = np.array([seed, stream], dtype=np.uint64)
    fresh = Generator(Philox(key=key, counter=(step << 128) | (batch_start << 64)))
    want = fresh.random((3, 1001))
    assert wos._uniform_block(seed, stream, batch_start, step, 3, 1001, gen).tobytes() \
        == want.tobytes()
    assert wos._uniform_block(seed, stream, batch_start, step, 3, 1001).tobytes() \
        == want.tobytes()


def test_exit_law_cached_per_alpha():
    assert wos._exit_law(1.5) is wos._exit_law(1.5)
    u = Generator(Philox(key=4)).random(1000)
    assert wos._exit_law(0.7).factor(u).tobytes() == ExitRadiusLaw(0.7).factor(u).tobytes()


def _pchip_table(alpha):
    """The exit-law quantile table as the SciPy interpolator it is built from."""
    law = ExitRadiusLaw
    logit = np.linspace(math.log(law._V_MIN), -math.log1p(-law._V_MAX), law._TABLE_KNOTS)
    v = 1.0 / (1.0 + np.exp(-logit))
    t = betaincinv(0.5 * alpha, 1.0 - 0.5 * alpha, v)
    q = 1.0 / np.sqrt(np.clip(t, 1e-300, 1.0))
    return PchipInterpolator(logit, np.log(np.maximum(q - 1.0, 1e-300)), extrapolate=True)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 1.5, 1.9])
def test_exit_law_table_is_pchip_bitwise(alpha):
    law, table = ExitRadiusLaw(alpha), _pchip_table(alpha)
    u = np.concatenate([Generator(Philox(key=14)).random(1 << 20),
                        [0.0, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53]])
    v = np.clip(1.0 - u, law._V_MIN, law._V_MAX)
    want = 1.0 + np.exp(table(np.log(v) - np.log1p(-v)))
    assert law.factor(u).tobytes() == want.tobytes()
    # on the knots and next to them, at the midpoints, and beyond both ends
    x = table.x
    z = np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf),
                        0.5 * (x[:-1] + x[1:]),
                        [x[0] - 50.0, x[0] - 1.0, x[-1] + 1.0, x[-1] + 50.0]])
    assert law._log_excess(z).tobytes() == table(z).tobytes()
    assert np.isnan(law.factor(np.array([np.nan, 0.5]))[0])
