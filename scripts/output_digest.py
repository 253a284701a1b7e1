#!/usr/bin/env python3
"""SHA-256 digest of fixed-seed outputs, for checking that a change is byte-identical.

Hashes the raw float64 bytes of:

- `build_field` on the ellipse (0.8, 0.5) at alpha = 0.5, 1 and 1.5;
- `estimate_phi` (with exit points) on the unit disk, on the ellipse and on
  a three-dimensional cone;
- `PhiField.values_at` and `.stderr_at` of the alpha = 1 field on fixed points,
  and `.values_and_stderr_at` on fixed points in and near its collar;
- `hessian_scan` with `DiskPhi` and with the alpha = 1 ellipse `PhiField`,
  on points above, below and on the slab;
- `hessian_scan` with `DiskPhi` under the criterion-5 `QuadSpec` on the S1-S4
  boundary probes at h = 0.01 and 0.32 and on three exterior cylinder points:
  boundary-anchored charts and deep refinement;
- `_signed_distance_foot` (distance and foot angle) on fixed points for the
  disk, the ellipse and `from_polygon` of the square [-0.5, 0.5]^2, and the
  branch and bound `_search_foot` on the ellipse's points;
- the ellipse's distance lattice (node distances and foot tables);
- `_signed_distance_foot` on fixed points within 1e-9..1e-3 of the major axis
  of the ellipse (0.9, 0.15) rotated by 0.3, where g has two nearly tied minima;
- the ellipse's `step_distance` on fixed points within 1e-3 of its boundary,
  the rows that query the exact distance.

Prints one line per output and their combined digest, `all`.  The lines after
`all` pin the walk loop's bits and are kept out of it, so that `all` compares
with checkouts older than them:

- `ExitRadiusLaw.factor` at alpha = 0.5, 0.7, 1.5 and 1.9 on fixed uniforms,
  the edge values 0, 2^-53, 0.5 and 1 - 2^-53 included;
- the walk directions `_directions` at dim = 2, 3 and 5 on the edge uniforms
  0, 2^-53, 1/4, 1/2, 3/4 and 1 - 2^-53 (each uniform row a rotation of
  them) and on fixed uniforms;
- `estimate_phi` (with exit points) on the unit disk at alpha = 0.5, 1.5 and 2,
  and on the three-dimensional cone at alpha = 1.5.

and, after those, the `json_text()` of the analysis reports:

- `concavity_check` with `DiskPhi`, once with a stand-in error bar and once
  under the square-root transform, and on the saddle x1^2 - x2^2, whose
  triples pass and fail;
- `scaling_inequality_check` with the closed-form disk field at alpha = 1.5
  and a stand-in error bar;
- `psi_b_scan` with `DiskPhi` above the slab, and `hessian_scan` with
  `DiskPhi` on `slab_points` of the disk;
- a small `cone_nonconcavity_hunt` in the planar cone of half-aperture 0.1;
- a 6-step `deformation_sweep` of the ellipse (0.8, 0.5).

and, last, the Poisson integrals of the field:

- `eval_u` and `eval_u_grad` with `DiskPhi` and with the alpha = 1 ellipse
  `PhiField`, on points above and below the slab;
- `eval_u3_slab` with the same two fields on slab points outside their domains.

Run it on two checkouts and compare:

    PYTHONPATH=src python scripts/output_digest.py
"""

import functools
import hashlib
import itertools

import numpy as np

from stabletau.analysis import (
    concavity_check,
    cone_nonconcavity_hunt,
    deformation_sweep,
    hessian_scan,
    psi_b_scan,
    scaling_inequality_check,
    slab_points,
)
from stabletau.closedform import StableParams, ball_exit_constant
from stabletau.extension import DiskPhi, ExtensionContext, eval_u, eval_u3_slab, eval_u_grad
from stabletau.geom import ConeDomain, SupportDomain
from stabletau.quad import QuadSpec
from stabletau.wos import (
    ExitRadiusLaw,
    WalkConfig,
    _directions,
    _uniform_width,
    build_field,
    estimate_phi,
)

SQUARE = [[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]]
SCAN_POINTS = np.array([[0.2, 0.1, 0.3], [-0.4, 0.2, 0.6], [0.9, -0.3, 0.15],
                        [0.2, 0.1, -0.3], [0.1, -0.05, 0.0]])
CRITERION5_QUAD = QuadSpec(rel_tol=1e-6, abs_tol=3e-8, max_cells=30000)
# S1-S4 as (x1, x3) / h in the boundary frame (x1 along the inner normal)
S_PROBES = [(-1.0, 0.125), (-1.0, 0.625), (1.0, 0.625), (1.0, 0.125)]
EXTERIOR_POINTS = [[1.6, 0.7, 0.4], [-0.9, -2.1, 0.05], [2.4, -1.3, -1.1]]
EXTERIOR_SLAB_POINTS = np.array([[-2.0, 0.0], [1.2, 0.5], [0.3, -1.1], [0.7, 0.75]])


@functools.cache
def _ellipse_field(alpha):
    return build_field(SupportDomain.ellipse(0.8, 0.5), StableParams(alpha, 2), 0.1,
                       WalkConfig(n_walks=600, seed=11))


def _probe_points():
    """S1-S4 at h = 0.01 and 0.32 over the unit circle, each at its own angle."""
    pts = []
    for k, ((a1, a3), h) in enumerate(itertools.product(S_PROBES, (0.01, 0.32))):
        psi = 0.4 + 0.77 * k
        r = 1.0 - a1 * h
        pts.append([r * np.cos(psi), r * np.sin(psi), a3 * h])
    return np.array(pts + EXTERIOR_POINTS)


def _rotated_eccentric_near_axis(a=0.9, b=0.15, phi=0.3, n=3000):
    dom = SupportDomain.from_function(
        lambda t: np.sqrt(a * a * np.cos(t - phi) ** 2 + b * b * np.sin(t - phi) ** 2))
    rng = np.random.default_rng(5)
    along = rng.uniform(-a, a, n)
    offset = 10.0 ** rng.uniform(-9, -3, n) * rng.choice([-1.0, 1.0], n)
    pts = np.stack([along * np.cos(phi) - offset * np.sin(phi),
                    along * np.sin(phi) + offset * np.cos(phi)], axis=1)
    return dom._signed_distance_foot(pts)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for a in parts:
        if isinstance(a, str):
            h.update(a.encode())
        else:
            h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _field_arrays(f):
    return (f.values, f.stderr, f.blend_c, f.blend_c2, f.blend_c_err, f.node_delta)


def _estimate_arrays(est, finals):
    return ([est.mean, est.std_error, est.truncated, est.mean_steps], finals)


def _scan_arrays(report):
    return (report.values, " ".join(map(str, report.verdicts)))


def outputs():
    disk = SupportDomain.disk(1.0)
    ellipse = SupportDomain.ellipse(0.8, 0.5)
    square = SupportDomain.from_polygon(SQUARE)
    fields = {}
    for alpha in (0.5, 1.0, 1.5):
        fields[alpha] = _ellipse_field(alpha)
        yield f"build_field ellipse alpha={alpha:g}", _field_arrays(fields[alpha])
    for name, dom, x in (("disk", disk, [0.3, 0.1]), ("ellipse", ellipse, [0.3, 0.1]),
                         ("cone", ConeDomain(0.4, 3), [0.5, 0.05, -0.05])):
        est, finals = estimate_phi(dom, StableParams(1.0, dom.dim), x,
                                   WalkConfig(n_walks=40_000, seed=5),
                                   return_final_points=True)
        yield f"estimate_phi {name}", _estimate_arrays(est, finals)
    for name, ctx in (("DiskPhi", ExtensionContext(disk, DiskPhi())),
                      ("ellipse PhiField", ExtensionContext(ellipse, fields[1.0]))):
        pts = SCAN_POINTS if name == "DiskPhi" else SCAN_POINTS * [0.7, 0.7, 1.0]
        yield f"hessian_scan {name}", _scan_arrays(hessian_scan(ctx, pts))
    probes = ExtensionContext(disk, DiskPhi(), CRITERION5_QUAD)
    yield "hessian_scan DiskPhi probes", _scan_arrays(hessian_scan(probes, _probe_points()))
    rng = np.random.default_rng(20261018)
    pts = rng.uniform(-1.2, 1.2, size=(4000, 2))
    yield "PhiField values_at stderr_at", (fields[1.0].values_at(pts), fields[1.0].stderr_at(pts))
    for name, dom in (("disk", disk), ("ellipse", ellipse), ("square", square)):
        yield f"_signed_distance_foot {name}", dom._signed_distance_foot(pts)
    yield "_search_foot ellipse", ellipse._search_foot(pts)
    yield "lattice ellipse", (ellipse._lattice().delta, ellipse._lattice().foot)
    yield "_signed_distance_foot rotated eccentric near axis", _rotated_eccentric_near_axis()
    theta = rng.uniform(0.0, 2 * np.pi, 4000)
    near = ellipse.boundary_point(theta) - rng.uniform(-1e-3, 1e-3, (4000, 1)) * np.stack(
        [np.cos(theta), np.sin(theta)], axis=1)
    yield "step_distance ellipse near boundary", (ellipse.step_distance(near, 1e-12),)
    collar = ellipse.boundary_point(theta) * rng.uniform(0.6, 1.02, (4000, 1))
    yield "PhiField values_and_stderr_at collar", fields[1.0].values_and_stderr_at(collar)


def walk_outputs():
    u = np.concatenate([np.random.default_rng(20261019).random(100_000),
                        [0.0, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53]])
    for alpha in (0.5, 0.7, 1.5, 1.9):
        yield f"exit_law factor alpha={alpha:g}", (ExitRadiusLaw(alpha).factor(u),)
    edge = np.array([0.0, 2.0 ** -53, 0.25, 0.5, 0.75, 1.0 - 2.0 ** -53])
    uni = np.concatenate([[np.roll(edge, i) for i in range(6)],
                          np.random.default_rng(20261020).random((6, 1000))], axis=1)
    yield "_directions dim=2,3,5", tuple(_directions(uni[:_uniform_width(dim) - 1], dim)
                                         for dim in (2, 3, 5))
    disk = SupportDomain.disk(1.0)
    for name, dom, alpha, x, n in (("disk", disk, 0.5, [0.3, 0.1], 40_000),
                                   ("disk", disk, 1.5, [0.3, 0.1], 40_000),
                                   ("disk", disk, 2.0, [0.3, 0.1], 4_000),
                                   ("cone", ConeDomain(0.4, 3), 1.5, [0.5, 0.05, -0.05], 40_000)):
        est, finals = estimate_phi(dom, StableParams(alpha, dom.dim), x,
                                   WalkConfig(n_walks=n, seed=5), return_final_points=True)
        yield f"estimate_phi {name} alpha={alpha:g}", _estimate_arrays(est, finals)


def _stand_in_stderr(pts):
    # a smooth, nonzero error bar, so the chord checks' allowance is pinned too
    return 1e-3 * (1.0 + pts[:, 0] ** 2) * (1.0 + 0.5 * pts[:, 1])


def analysis_outputs():
    disk = SupportDomain.disk(1.0)
    phi = DiskPhi()
    yield "concavity_check DiskPhi", concavity_check(
        phi.values_at, disk, 400, 1e-12, seed=5, stderr_eval=_stand_in_stderr)
    yield "concavity_check DiskPhi sqrt", concavity_check(
        phi.values_at, disk, 400, 1e-12, seed=8, transform=np.sqrt)
    yield "concavity_check saddle", concavity_check(
        lambda pts: pts[:, 0] ** 2 - pts[:, 1] ** 2, disk, 400, 1e-3, seed=9)
    p = StableParams(1.5, 2)

    def disk_phi_15(pts):
        return ball_exit_constant(p) * np.maximum(1.0 - np.sum(pts * pts, axis=1), 0.0) ** 0.75

    yield "scaling_inequality_check disk alpha=1.5", scaling_inequality_check(
        disk, p, disk_phi_15, 401, 1e-12, seed=6, stderr_eval=_stand_in_stderr)
    ctx = ExtensionContext(disk, phi)
    yield "psi_b_scan DiskPhi", psi_b_scan(ctx, np.linspace(0.0, 1.0, 5), SCAN_POINTS[:3])
    yield "hessian_scan DiskPhi slab_points", hessian_scan(ctx, slab_points(disk, 12, 0.05))
    yield "cone_nonconcavity_hunt", cone_nonconcavity_hunt(
        ConeDomain(0.1, 2), p, WalkConfig(n_walks=20_000, seed=5), scales=[0.3, 0.15])
    yield "deformation_sweep ellipse", deformation_sweep(
        SupportDomain.ellipse(0.8, 0.5), np.linspace(0.0, 1.0, 6))


def poisson_outputs():
    disk, field = SupportDomain.disk(1.0), _ellipse_field(1.0)
    contexts = {"DiskPhi": ExtensionContext(disk, DiskPhi()),
                "ellipse PhiField": ExtensionContext(field.dom, field)}
    for (name, ctx), scale in zip(contexts.items(), (1.0, 0.7)):
        above = SCAN_POINTS[SCAN_POINTS[:, 2] > 0.0] * [scale, scale, 1.0]
        pts = np.concatenate([above, above * [1.0, 1.0, -1.0], EXTERIOR_POINTS])
        yield f"eval_u eval_u_grad {name}", ([eval_u(ctx, x) for x in pts],
                                             [eval_u_grad(ctx, x) for x in pts])
    yield "eval_u3_slab exterior", ([eval_u3_slab(ctx, xy) for ctx in contexts.values()
                                     for xy in EXTERIOR_SLAB_POINTS],)


def main():
    total = hashlib.sha256()
    for label, arrays in outputs():
        d = _digest(*arrays)
        total.update(d.encode())
        print(f"{d}  {label}")
    print(f"{total.hexdigest()}  all")
    for label, arrays in walk_outputs():
        print(f"{_digest(*arrays)}  {label}")
    for label, report in analysis_outputs():
        print(f"{_digest(report.json_text())}  {label}")
    for label, arrays in poisson_outputs():
        print(f"{_digest(*arrays)}  {label}")


if __name__ == "__main__":
    main()
