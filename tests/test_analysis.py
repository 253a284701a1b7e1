import csv
import json
import math

import numpy as np
import pytest

from stabletau import analysis as an
from stabletau.closedform import StableParams, ball_phi
from stabletau.errors import InsufficientRangeError
from stabletau.extension import DiskPhi, ExtensionContext
from stabletau.geom import ConeDomain, SupportDomain, deform
from stabletau.quad import QuadSpec
from stabletau.wos import WalkConfig, build_field, estimate_phi

DISK = SupportDomain.disk(1.0)


@pytest.fixture(scope="module")
def ctx():
    return ExtensionContext(DISK, DiskPhi())


def phi_alpha(alpha):
    p = StableParams(alpha, 2)

    def ev(pts):
        pts = np.atleast_2d(pts)
        gap = np.maximum(1.0 - np.sum(pts * pts, axis=1), 0.0)
        from stabletau.closedform import ball_exit_constant

        return ball_exit_constant(p) * gap ** (alpha / 2.0)

    return ev


def test_halton_deterministic_and_in_range():
    a = an.halton(50, 3)
    b = an.halton(50, 3)
    assert np.array_equal(a, b)
    assert np.all((a >= 0) & (a < 1))
    c = an.halton(10, 2, skip=50)
    assert not np.array_equal(c, a[:10, :2])


def _halton_scalar(n, dim, skip=0):
    # digit-by-digit radical inverse, one index at a time
    out = np.empty((n, dim))
    for d, b in enumerate([2, 3, 5, 7, 11, 13][:dim]):
        for i in range(n):
            k, f, x = i + 1 + skip, 1.0, 0.0
            while k > 0:
                f /= b
                x += f * (k % b)
                k //= b
            out[i, d] = x
    return out


@pytest.mark.parametrize("skip", [0, 1, 37, 4000])
def test_halton_matches_scalar_reference(skip):
    for dim in range(1, 7):
        fast = an.halton(1000, dim, skip=skip)
        assert fast.tobytes() == _halton_scalar(1000, dim, skip).tobytes(), (dim, skip)


def test_cylinder_and_slab_points():
    pts = an.cylinder_points(3.0, 100)
    assert np.all(np.hypot(pts[:, 0], pts[:, 1]) < 3.0)
    assert np.all((pts[:, 2] > 0) & (pts[:, 2] < 3.0))
    sp = an.slab_points(DISK, 50, margin=0.05)
    assert np.all(sp[:, 2] == 0)
    assert np.all(DISK.boundary_distance_batch(sp[:, :2]) > 0.05)


@pytest.mark.parametrize("dom, margin", [(DISK, 1.0), (DISK, 2.0),
                                         (SupportDomain.ellipse(0.8, 0.5), 0.6)])
def test_slab_points_reject_margin_beyond_certified_depth(dom, margin):
    # no point lies margin deep (the ellipse's inradius is its minor semi-axis),
    # so the Halton draw would never end
    with pytest.raises(ValueError, match="certified depth"):
        an.slab_points(dom, 3, margin=margin)


def test_hessian_scan_disk(ctx):
    rep = an.hessian_scan(ctx, an.cylinder_points(3.0, 25), descriptor="small")
    assert rep.n_fail == 0 and rep.n_indeterminate == 0
    assert rep.min_value > 0
    assert not rep.witnesses


def test_scan_report_serialisation(tmp_path, ctx):
    rep = an.hessian_scan(ctx, an.cylinder_points(3.0, 8))
    jpath, cpath = tmp_path / "r.json", tmp_path / "r.csv"
    rep.to_json(jpath)
    rep.to_csv(cpath)
    parsed = json.loads(jpath.read_text())
    assert parsed["experiment"] == "hessian_scan[u]"
    assert len(parsed["points"]) == 8
    with open(cpath) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][-1] == "verdict"
    assert len(rows) == 9
    # json and csv encode the same values
    det_col = parsed["columns"].index("det")
    for i, row in enumerate(rows[1:]):
        assert float(row[3 + det_col]) == parsed["values"][i][det_col]
    # reruns are byte-identical
    rep2 = an.hessian_scan(ctx, an.cylinder_points(3.0, 8))
    assert rep2.json_text() == rep.json_text()


def test_scan_report_witnesses():
    rep = an.ScanReport(
        experiment="demo", descriptor="d", config={},
        point_columns=["x"], points=np.array([[0.0], [1.0]]),
        columns=["v"], values=np.array([[1.0], [-2.0]]),
        verdicts=["pass", "fail"], scan_column="v")
    assert len(rep.witnesses) == 1
    assert rep.witnesses[0]["value"] == -2.0


def test_concavity_closed_form_disk():
    rep = an.concavity_check(DiskPhi().values_at, DISK, 2000, 1e-12, seed=5)
    assert rep.n_fail == 0
    # spec example triple: phi(0) vs mean of phi(+-0.8, 0)
    phi = DiskPhi().values_at
    mid = float(phi(np.array([[0.0, 0.0]]))[0])
    chord = float(phi(np.array([[0.8, 0.0]]))[0])
    assert mid == pytest.approx(2 / math.pi)
    assert chord == pytest.approx((2 / math.pi) * 0.6)
    assert mid >= chord
    assert chord == pytest.approx(0.38197, abs=1e-5)


def test_concavity_degenerate_triple():
    phi = DiskPhi().values_at
    x = np.array([[0.3, 0.2]])
    assert float(phi(x)[0]) == pytest.approx(
        0.5 * float(phi(x)[0]) + 0.5 * float(phi(x)[0]))


def test_sqrt_phi_concave_brownian():
    # alpha = 2: sqrt(phi) = sqrt(1 - r^2)/2 is concave
    rep = an.concavity_check(phi_alpha(2.0), DISK, 2000, 1e-12, seed=8,
                             transform=np.sqrt)
    assert rep.n_fail == 0


def test_scaling_inequality_closed_form():
    rep = an.scaling_inequality_check(DISK, StableParams(1.0, 2),
                                   DiskPhi().values_at, 1000, 1e-12, seed=6)
    assert rep.n_fail == 0
    # spec example: phi(0.75, 0) >= 0.25 phi(0)
    phi = DiskPhi().values_at
    lhs = float(phi(np.array([[0.75, 0.0]]))[0])
    assert lhs == pytest.approx(0.42109, abs=1e-5)
    assert lhs >= 0.25 * (2 / math.pi)


def test_scaling_inequality_lambda_to_one():
    # as lambda -> 1 part a approaches equality
    phi = phi_alpha(1.5)
    x = np.array([0.4, 0.1])
    x0 = np.array([math.cos(0.3), math.sin(0.3)])
    for lam in (0.999, 0.9999):
        lhs = float(phi(lam * x + (1 - lam) * x0)[0])
        rhs = lam**1.5 * float(phi(x)[0])
        assert lhs >= rhs - 1e-12
        assert lhs - rhs < 2e-3


def test_exponent_fit_phi_n(ctx):
    h = 0.0005 * 2.0 ** np.arange(6)
    fit = an.boundary_exponent_fit(ctx, "normal-slab", "phi_n", h)
    assert fit.slope == pytest.approx(-0.5, abs=0.05)
    assert np.all(fit.signs == fit.signs[0]) and fit.signs[0] > 0
    assert not fit.low_confidence


def test_exponent_fit_insufficient_range(ctx):
    with pytest.raises(InsufficientRangeError):
        an.boundary_exponent_fit(ctx, "normal-slab", "phi_n", [0.01, 0.02, 0.03])
    with pytest.raises(InsufficientRangeError):
        an.boundary_exponent_fit(ctx, "normal-slab", "phi_n",
                                 [0.01, 0.02, 0.03, 0.04, 0.045])


def test_exponent_fit_s1_u13(ctx):
    h = 0.01 * 2.0 ** np.arange(6)
    fit = an.boundary_exponent_fit(ctx, "S1", "u13", h)
    assert fit.slope == pytest.approx(-1.5, abs=0.25)
    assert np.all(fit.signs > 0)


def test_target_slopes_table():
    assert an.target_slope("S1", "u13") == -1.5
    assert an.target_slope("S4", "u22") == -0.5
    assert an.target_slope("S4", "u23") is None


def test_deformation_sweep_ellipse():
    ell = SupportDomain.ellipse(0.8, 0.5)
    rep = an.deformation_sweep(ell, np.linspace(0, 1, 11))
    assert rep.n_fail == 0
    # t = 1 is the unit disk
    last = rep.values[-1]
    assert last[0] == pytest.approx(1.0, abs=1e-9)   # R1
    assert last[1] == pytest.approx(1.0, abs=1e-9)   # kappa1
    assert last[2] == pytest.approx(1.0, abs=1e-9)   # kappa2
    # gap bound column dominates the measured gap
    assert np.all(rep.values[:-1, 4] <= rep.values[:-1, 5] + 1e-9)


def test_deform_disk_curvature_formula():
    # kappa_{D(t)} = 1 / ((1-t) R1 + t) for the disk, to 1e-10
    r1 = 0.5
    for t in np.linspace(0, 1, 11):
        cl = deform(SupportDomain.disk(r1), float(t)).classify()
        want = 1.0 / ((1 - t) * r1 + t)
        assert cl.kappa1 == pytest.approx(want, abs=1e-10)
        assert cl.kappa2 == pytest.approx(want, abs=1e-10)


def test_cone_hunt_finds_witness_in_narrow_cone():
    rep = an.cone_nonconcavity_hunt(
        ConeDomain(0.1, 2), StableParams(1.5, 2),
        WalkConfig(n_walks=20000, seed=5), scales=[0.3, 0.15])
    assert rep.experiment == "cone_nonconcavity_hunt"
    assert len(rep.verdicts) == 2
    assert rep.witnesses  # theta = 0.1 is already narrow enough at alpha = 1.5


def test_cone_hunt_requires_midrange_alpha():
    with pytest.raises(ValueError, match=r"alpha in \(1, 2\), got 1"):
        an.cone_nonconcavity_hunt(ConeDomain(0.1, 2), StableParams(1.0, 2),
                                  WalkConfig(n_walks=10, seed=1))


def test_cone_alpha_one_concave_on_axis():
    # Cauchy case: concavity holds on convex cones, so midpoint deficits stay
    # within noise
    cone = ConeDomain(0.2, 2)
    cfg = WalkConfig(n_walks=40000, seed=9)
    p = StableParams(1.0, 2)
    for s, streams in [(0.5, (1, 2, 3)), (0.25, (4, 5, 6))]:
        f1 = estimate_phi(cone, p, [s, 0.0], cfg, stream=streams[0])
        f2 = estimate_phi(cone, p, [s / 4, 0.0], cfg, stream=streams[1])
        fm = estimate_phi(cone, p, [5 * s / 8, 0.0], cfg, stream=streams[2])
        deficit = 0.5 * (f1.mean + f2.mean) - fm.mean
        sigma = math.sqrt(fm.std_error**2 + 0.25 * (f1.std_error**2 + f2.std_error**2))
        assert deficit < 5 * sigma


def test_psi_b_scan_near_boundary_circle(ctx):
    # blend family stays determinant-positive near the slab edge
    rng = np.random.default_rng(3)
    r = rng.uniform(0.85, 1.15, 50)
    ang = rng.uniform(0, 2 * np.pi, 50)
    x3 = rng.uniform(0.01, 0.2, 50)
    pts = np.stack([r * np.cos(ang), r * np.sin(ang), x3], axis=1)
    rep = an.psi_b_scan(ctx, np.linspace(0, 1, 11), pts)
    assert rep.n_fail == 0
    assert rep.min_value > 0
    # b = 1 is the closed-form companion determinant; b = 0 is the plain scan
    one = an.psi_b_scan(ctx, [1.0], pts[:3])
    from stabletau.closedform import aux_w_hess_det

    for i in range(3):
        assert one.values[i, 0] == pytest.approx(float(aux_w_hess_det(pts[i])),
                                                 rel=1e-12)
    zero = an.psi_b_scan(ctx, [0.0], pts[:3])
    plain = an.hessian_scan(ctx, pts[:3])
    det_col = plain.columns.index("det")
    for i in range(3):
        assert zero.values[i, 0] == pytest.approx(plain.values[i, det_col],
                                                  rel=1e-12)


def test_psi_b_scan_blend_family_near_the_slab_edge():
    # every blend b = 0, 0.1, ..., 1 has det > 0 on the 200 Halton points of the
    # M = 1.3 cylinder with x3 scaled by 0.05 (r < 1.3, x3 < 0.065), under the
    # criterion-5 quadrature spec
    ctx5 = ExtensionContext(DISK, DiskPhi(), QuadSpec(rel_tol=1e-6, abs_tol=3e-8,
                                                      max_cells=30000))
    ring = an.cylinder_points(1.3, 200)
    ring[:, 2] *= 0.15 / 3.0
    rep = an.psi_b_scan(ctx5, np.linspace(0, 1, 11), ring,
                        descriptor="blend family near the slab edge")
    assert rep.n_pass == 200, rep.summary()


def test_psi_b_scan_scores_the_worst_blend_by_its_own_error(ctx):
    pts = np.array([[0.2, 0.1, 0.3], [-0.4, 0.2, 0.6], [0.9, -0.3, 0.15]])
    rep = an.psi_b_scan(ctx, np.linspace(0, 1, 5), pts)
    det, b, err = (rep.columns.index(c) for c in ("min_det", "argmin_b", "det_err"))
    for x, row in zip(pts, rep.values):
        blend = an.psi_blend(an.eval_hessian(ctx, x), row[b])
        assert (row[det], row[err]) == (blend.det, blend.det_err)


@pytest.mark.parametrize("points", [np.empty((0, 3)), np.array([0.2, 0.1, 0.3]),
                                    np.zeros((4, 2))])
def test_scans_reject_points_not_of_shape_n_by_3(ctx, points):
    with pytest.raises(ValueError, match=r"\(n, 3\)"):
        an.hessian_scan(ctx, points)
    with pytest.raises(ValueError, match=r"\(n, 3\)"):
        an.psi_b_scan(ctx, [0.0, 0.5], points)


def test_ellipse_field_hessian_scan_no_hard_failures():
    # Monte Carlo-backed scan: no hard failures; indeterminates are counted
    field = build_field(SupportDomain.ellipse(0.8, 0.5), StableParams(1.0, 2),
                        0.1, WalkConfig(n_walks=3000, seed=77),
                        domain_ref="builtin:ellipse:0.8,0.5")
    fctx = ExtensionContext(field.dom, field)
    pts = an.cylinder_points(2.5, 20)
    rep = an.hessian_scan(fctx, pts, descriptor="ellipse field, 20 points")
    assert rep.n_fail == 0
    assert rep.n_pass + rep.n_indeterminate == 20


def test_exterior_slope_preasymptotic_range(ctx):
    # at delta in {0.02..0.2} the power law has not set in yet: the measured
    # slope undershoots -0.5 well beyond +-0.15 (the asymptotic band is only
    # reached around delta ~ 1e-3; the acceptance suite probes there)
    fit = an.boundary_exponent_fit(ctx, "exterior", "ext_half_lap",
                                   np.geomspace(0.02, 0.2, 6))
    assert np.all(fit.signs < 0)
    assert -1.0 < fit.slope < -0.6


def test_json_17_digits(tmp_path, ctx):
    rep = an.hessian_scan(ctx, an.cylinder_points(3.0, 3))
    text = rep.json_text()
    val = rep.values[0][rep.columns.index("det")]
    assert f"{val:.17g}" in text
