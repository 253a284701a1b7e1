"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The Monte Carlo criteria
use fixed seeds, so the whole suite is reproducible.
"""

import csv
import filecmp
import functools
import json
import math
import time

import numpy as np
import pytest
from numpy.random import Generator, Philox

from stabletau import analysis as an
from stabletau.cli import main as cli_main
from stabletau.closedform import (
    StableParams,
    aux_w,
    aux_w_hess_det,
    ball_exit_constant,
    kernel_K,
    kernel_K_grad,
    kernel_K_hess,
)
from stabletau.extension import DiskPhi, ExtensionContext, eval_hessian, eval_u
from stabletau.geom import ConeDomain, SupportDomain, deform
from stabletau.quad import QuadSpec
from stabletau.wos import ExitRadiusLaw, WalkConfig, build_field, estimate_phi

DISK = SupportDomain.disk(1.0)
ELLIPSE = SupportDomain.ellipse(0.8, 0.5)
TWO_OVER_PI = 2.0 / math.pi


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} FAIL: {title}")
                raise
            print(f"ACCEPTANCE {number:2d} PASS: {title}")

        return run

    return wrap


@pytest.fixture(scope="module")
def disk_ctx():
    return ExtensionContext(DISK, DiskPhi(),
                            QuadSpec(rel_tol=1e-6, abs_tol=3e-8, max_cells=30000))


@pytest.fixture(scope="module")
def ellipse_fields():
    fields = {}
    for alpha, seed in ((0.5, 13), (1.0, 12), (1.5, 11)):
        fields[alpha] = build_field(
            ELLIPSE, StableParams(alpha, 2), 0.07,
            WalkConfig(n_walks=6000, seed=seed),
            domain_ref="builtin:ellipse:0.8,0.5")
    return fields


def closed_form_phi(alpha, radius=1.0):
    cb = ball_exit_constant(StableParams(alpha, 2))

    def ev(pts):
        pts = np.atleast_2d(pts)
        gap = np.maximum(radius**2 - np.sum(pts * pts, axis=1), 0.0)
        return cb * gap ** (alpha / 2.0)

    return ev


def _solve_via_cli(tmp_path, name, at, walks, seed):
    out = tmp_path / f"{name}.json"
    code = cli_main(["solve", "--builtin", "disk", "--alpha", "1",
                     "--at", at, "--walks", str(walks), "--seed", str(seed),
                     "--out", str(out), "--format", "json"])
    assert code == 0
    return json.loads(out.read_text())[0]


@criterion(1, "Monte Carlo ball exit time matches 2/pi within 1% and 3 sigma, < 60 s")
def test_criterion_01_ball_exit_time(tmp_path):
    t0 = time.time()
    centre = _solve_via_cli(tmp_path, "c", "0,0", 1_000_000, 1)
    off = _solve_via_cli(tmp_path, "o", "0.6,0", 1_000_000, 2)
    elapsed = time.time() - t0
    for est, want in ((centre, TWO_OVER_PI), (off, TWO_OVER_PI * 0.8)):
        assert abs(est["mean"] - want) < 0.01 * want
        assert abs(est["mean"] - want) < 3 * est["std_error"]
        assert est["truncated"] == 0
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"


@criterion(2, "scaling: estimates on 2D at 2x equal 2^alpha estimates on D at x")
def test_criterion_02_scaling():
    x = np.array([0.3, 0.1])
    for alpha in (0.5, 1.0, 1.5, 2.0):
        p = StableParams(alpha, 2)
        n = 100_000 if alpha == 2.0 else 200_000
        e1 = estimate_phi(SupportDomain.disk(1.0), p, x,
                          WalkConfig(n_walks=n, seed=21))
        e2 = estimate_phi(SupportDomain.disk(2.0), p, 2 * x,
                          WalkConfig(n_walks=n, seed=22))
        sigma = math.hypot(e2.std_error, 2**alpha * e1.std_error)
        z = abs(e2.mean - 2**alpha * e1.mean) / sigma
        assert z < 3.0, f"alpha={alpha}: z={z:.2f}"


@criterion(3, "jump sampler reproduces the arccos exit law (KS < 0.01 at 1e5)")
def test_criterion_03_sampler_law():
    law = ExitRadiusLaw(1.0)
    u = Generator(Philox(key=33)).random(100_000)
    radii = np.sort(law.factor(u))
    n = radii.size
    cdf = law.cdf(radii)
    ks = max(float(np.max(np.arange(1, n + 1) / n - cdf)),
             float(np.max(cdf - np.arange(0, n) / n)))
    assert ks < 0.01, f"KS distance {ks:.4f}"
    p2 = float(np.mean(radii <= 2.0))
    assert abs(p2 - 2.0 / 3.0) < 0.005


@criterion(4, "kernel derivative table: symmetry, zero trace, finite differences")
def test_criterion_04_kernel_identities():
    t0 = time.time()
    rng = np.random.default_rng(44)
    x = rng.normal(size=(100, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x *= rng.uniform(0.5, 5.0, size=(100, 1))
    h = kernel_K_hess(x)
    assert np.array_equal(h, np.swapaxes(h, -1, -2))
    trace = h[..., 0, 0] + h[..., 1, 1] + h[..., 2, 2]
    assert np.max(np.abs(trace) / np.max(np.abs(h), axis=(-1, -2))) < 1e-14
    e = 2e-6
    for axis in range(3):
        step = np.zeros(3)
        step[axis] = e
        fd = (kernel_K_grad(x + step) - kernel_K_grad(x - step)) / (2 * e)
        scale = np.maximum(np.abs(h[:, axis, :]), 1e-3)
        assert np.max(np.abs(fd - h[:, axis, :]) / scale) < 1e-6
    assert time.time() - t0 < 1.0


@criterion(5, "Hessian determinant positive with signature (1,2,0) on the disk scans")
def test_criterion_05_disk_hessian_positivity(disk_ctx):
    t0 = time.time()
    pts = an.cylinder_points(3.0, 500)
    both = np.concatenate([pts, pts * np.array([1.0, 1.0, -1.0])])
    rep = an.hessian_scan(disk_ctx, both, descriptor="cylinder M=3 + reflected")
    assert rep.n_pass == len(both), rep.summary()
    slab = an.slab_points(DISK, 200, margin=0.005)
    rep2 = an.hessian_scan(disk_ctx, slab, descriptor="open slab over D")
    assert rep2.n_pass == len(slab), rep2.summary()
    elapsed = time.time() - t0
    assert elapsed < 600.0, f"runtime {elapsed:.0f}s exceeds 10 min"


@criterion(6, "slab concavity certificate: u11, u22 < 0, planar minor > 0, u33 > 0")
def test_criterion_06_slab_certificate(disk_ctx):
    pts = an.slab_points(DISK, 200, margin=0.01)
    for xy in pts[:, :2]:
        s = eval_hessian(disk_ctx, [xy[0], xy[1], 0.0])
        h = s.hess
        assert h[0, 0] < 0 and h[1, 1] < 0
        assert h[0, 0] * h[1, 1] - h[0, 1] ** 2 > 0
        assert abs(h[0, 2]) < 1e-9 and abs(h[1, 2]) < 1e-9
        assert h[2, 2] > 0


@criterion(7, "reflection symmetry of the determinant, plus independent quadrature")
def test_criterion_07_reflection(disk_ctx):
    rng = Generator(Philox(key=77))
    for _ in range(50):
        x = rng.uniform([-1.5, -1.5, 0.4], [1.5, 1.5, 1.2])
        up = eval_hessian(disk_ctx, x)
        mirror = x * np.array([1.0, 1.0, -1.0])
        lo = eval_hessian(disk_ctx, mirror)
        assert lo.det == up.det  # identical by construction
        assert lo.signature == up.signature

    # independent second-difference quadrature through the lower-half formula
    for _ in range(6):
        x = rng.uniform([-1.2, -1.2, 0.5], [1.2, 1.2, 1.1])
        lo = eval_hessian(disk_ctx, x * np.array([1.0, 1.0, -1.0]))
        det_fd, det_fd_err = _fd_det(disk_ctx, x * np.array([1.0, 1.0, -1.0]))
        combined = lo.det_err + det_fd_err
        assert abs(det_fd - lo.det) <= 10 * combined


def _fd_det(ctx, x):
    def fd_hess(h):
        out = np.empty((3, 3))
        for i in range(3):
            for j in range(i, 3):
                si, sj = np.zeros(3), np.zeros(3)
                si[i], sj[j] = h, h
                if i == j:
                    out[i, i] = (eval_u(ctx, x + si) - 2 * eval_u(ctx, x)
                                 + eval_u(ctx, x - si)) / h**2
                else:
                    out[i, j] = out[j, i] = (
                        eval_u(ctx, x + si + sj) - eval_u(ctx, x + si - sj)
                        - eval_u(ctx, x - si + sj) + eval_u(ctx, x - si - sj)
                    ) / (4 * h * h)
        return out

    f1, f2 = fd_hess(0.02), fd_hess(0.01)
    fd = (4 * f2 - f1) / 3
    entry_err = np.abs(f2 - f1) / 3 + 1e-9
    det = float(np.linalg.det(fd))
    adj = np.abs(np.linalg.inv(fd) * det)
    return det, float(np.sum(adj * entry_err))


@criterion(8, "closed-form Hessian determinant of the companion kernel")
def test_criterion_08_companion_determinant():
    assert aux_w_hess_det(np.zeros(3)) == pytest.approx(0.0191123, abs=1e-6)
    rng = np.random.default_rng(88)
    pts = rng.uniform(-2, 2, size=(100, 3))
    pts[:, 2] = rng.uniform(-math.sqrt(1.5) + 0.3, 2.5, size=100)

    def richardson(x, e):
        def once(step):
            out = np.empty((3, 3))
            for i in range(3):
                for j in range(3):
                    si, sj = np.zeros(3), np.zeros(3)
                    si[i], sj[j] = step, step
                    out[i, j] = (aux_w(x + si + sj) - aux_w(x + si - sj)
                                 - aux_w(x - si + sj) + aux_w(x - si - sj)) / (4 * step**2)
            return out

        return (4 * once(e / 2) - once(e)) / 3

    for x in pts:
        fd_det = float(np.linalg.det(richardson(x, 1e-3)))
        assert fd_det == pytest.approx(float(aux_w_hess_det(x)), rel=1e-6)


@criterion(9, "boundary blow-up exponents and sign claims on the disk")
def test_criterion_09_boundary_exponents(disk_ctx):
    small = 0.0005 * 2.0 ** np.arange(6)
    mid = 0.01 * 2.0 ** np.arange(6)

    def fit_of(probe, quantity, h):
        # one [info] line per fit: `pytest -s -k criterion_09` prints the table
        fit = an.boundary_exponent_fit(disk_ctx, probe, quantity, h)
        target = an.target_slope(probe, quantity)
        tail = f"target {target:+.2f}" if target is not None else "no target"
        print(f"    [info] {fit.summary()}  [{tail}]")
        return fit

    fit = fit_of("normal-slab", "phi_n", small)
    assert fit.slope == pytest.approx(-0.5, abs=0.05), fit.summary()
    assert np.all(fit.signs > 0)

    fit_of("normal-slab", "phi_nn", small)
    fit_of("normal-slab", "phi_TT", small)

    fit = fit_of("S1", "u13", mid)
    assert fit.slope == pytest.approx(-1.5, abs=0.25), fit.summary()
    assert np.all(fit.signs > 0)

    fit = fit_of("S2", "u11", mid)
    assert fit.slope == pytest.approx(-1.5, abs=0.25), fit.summary()
    assert np.all(fit.signs > 0)

    fit = fit_of("S3", "u13", mid)
    assert np.all(fit.signs < 0)  # sign claim opposite to S1

    fit = fit_of("S4", "u22", mid)
    assert fit.slope == pytest.approx(-0.5, abs=0.25), fit.summary()
    assert np.all(fit.signs < 0)

    # bounded mixed entry on S4: slope reported without a pass/fail target
    # (on the disk the probe sits on a symmetry plane, so it reads as noise)
    fit_of("S4", "u23", mid)

    fit = fit_of("exterior", "ext_half_lap", small)
    assert fit.slope == pytest.approx(-0.5, abs=0.15), fit.summary()
    assert np.all(fit.signs < 0)


@criterion(10, "Minkowski deformation keeps curvature pinched; disk law exact")
def test_criterion_10_deformation():
    rep = an.deformation_sweep(ELLIPSE, np.linspace(0, 1, 11))
    assert rep.n_fail == 0, rep.summary()
    r1 = 0.5
    for t in np.linspace(0, 1, 11):
        cl = deform(SupportDomain.disk(r1), float(t)).classify()
        want = 1.0 / ((1 - t) * r1 + t)
        assert cl.kappa1 == pytest.approx(want, abs=1e-10)
        assert cl.kappa2 == pytest.approx(want, abs=1e-10)


@criterion(11, "general-alpha inequalities on disk (closed form) and ellipse (field)")
def test_criterion_11_scaling_inequalities(ellipse_fields):
    for alpha in (0.5, 1.5):
        rep = an.scaling_inequality_check(DISK, StableParams(alpha, 2),
                                       closed_form_phi(alpha), 1000, 1e-12,
                                       seed=111)
        assert rep.n_fail == 0, rep.summary()
        field = ellipse_fields[alpha]
        rep = an.scaling_inequality_check(ELLIPSE, StableParams(alpha, 2),
                                       field.values_at, 1000, 0.003, seed=112,
                                       stderr_eval=field.stderr_at)
        assert rep.n_fail == 0, rep.summary()


@criterion(12, "concavity of the exit time; sqrt-concavity in the Brownian case")
def test_criterion_12_concavity(ellipse_fields):
    rep = an.concavity_check(DiskPhi().values_at, DISK, 10_000, 1e-12, seed=121)
    assert rep.n_fail == 0, rep.summary()
    field = ellipse_fields[1.0]
    rep = an.concavity_check(field.values_at, ELLIPSE, 10_000, 0.003, seed=122,
                             stderr_eval=field.stderr_at)
    assert rep.n_fail == 0, rep.summary()
    rep = an.concavity_check(closed_form_phi(2.0), DISK, 10_000, 1e-12,
                             seed=123, transform=np.sqrt)
    assert rep.n_fail == 0, rep.summary()


@criterion(13, "narrow-cone non-concavity hunt (exploratory, non-gating)")
def test_criterion_13_cone_experiment():
    found = []
    for theta in (0.4, 0.2, 0.1, 0.05, 0.025):
        rep = an.cone_nonconcavity_hunt(
            ConeDomain(theta, 2), StableParams(1.5, 2),
            WalkConfig(n_walks=25_000, seed=131),
            scales=[0.5, 0.25, 0.12])
        assert len(rep.verdicts) == 3  # a report is always produced
        if rep.witnesses:
            best = max(w["value"] for w in rep.witnesses)
            found.append((theta, best))
    print(f"    [info] witnesses (theta, z): {found or 'none'}")
    if not any(theta <= 0.1 for theta, _ in found):
        print("    [info] no 5-sigma witness at theta <= 0.1; "
              "the narrow-cone prediction is asymptotic, build not failed")


@criterion(14, "byte-identical outputs across reruns and thread counts")
def test_criterion_14_determinism(tmp_path):
    jobs = {
        "solve.csv": ["solve", "--builtin", "disk", "--alpha", "1.5",
                      "--at", "0.2,0.1", "--walks", "30000", "--seed", "9"],
        "solve.json": ["solve", "--builtin", "disk", "--alpha", "1",
                       "--at", "0,0", "--walks", "20000", "--seed", "9",
                       "--format", "json"],
        "field.pf": ["field-build", "--builtin", "disk", "--alpha", "1",
                     "--spacing", "0.16", "--walks-per-node", "1500",
                     "--seed", "5"],
        "scan.csv": ["hessian-scan", "--builtin", "disk", "--points",
                     "halton:12", "--region", "cylinder:M=3"],
        "scan_reflected.csv": ["hessian-scan", "--builtin", "disk", "--points",
                               "halton:12", "--include-reflected"],
        "fit.csv": ["exponent-fit", "--builtin", "disk", "--probe", "S1",
                    "--quantity", "u13", "--h", "0.02:0.2:geometric:6"],
        "sweep.csv": ["deform-sweep", "--builtin", "ellipse:0.8,0.5",
                      "--t", "0:1:6"],
        "hunt.json": ["cone-hunt", "--alpha", "1.5", "--theta", "0.1",
                      "--walks", "6000", "--seed", "3", "--format", "json"],
    }
    for name, argv in jobs.items():
        outs = []
        for tag, threads in (("a", "1"), ("b", "1"), ("c", "8")):
            out = tmp_path / f"{tag}_{name}"
            code = cli_main(argv + ["--out", str(out), "--threads", threads])
            assert code == 0, f"{name}: exit {code}"
            outs.append(out)
        assert filecmp.cmp(outs[0], outs[1], shallow=False), f"{name}: rerun differs"
        assert filecmp.cmp(outs[0], outs[2], shallow=False), f"{name}: threads differ"
