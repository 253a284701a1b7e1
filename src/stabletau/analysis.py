"""Batch verification experiments over the extension and the Monte Carlo field.

Each experiment returns a ScanReport (point set, per-point verdicts, failure
witnesses) or an ExponentFit (log-log slope with its OLS standard error).
Reports are reproducible bit for bit for a fixed seed and configuration, and
serialise to JSON and CSV with 17 significant digits; they hold no wall-clock
time, so reruns stay byte-identical.

The experiments share their parts: the Hessian scans map one per-point worker
over the points (_scan_rows), the concavity check and both parts of the
general-alpha inequality test one weighted chord (_chord_rows), and interior
and slab points come from one rejection fill (_fill_interior).  Every scan
reads extension's sample of u; the targets built on it, v^eps (veps_shift)
and the blends psi_b (psi_blend), add closed-form Hessians here.  A number
that is not finite is written as null in JSON.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from .closedform import EPS_QUADRATIC_HESS, StableParams, aux_w_hess
from .errors import InsufficientRangeError
from .extension import (
    ExtensionContext,
    HessianSample,
    eval_hessian,
    eval_u3_slab,
    hessian_sample,
    local_frame_hessian,
)
from .geom import ConeDomain, SupportDomain, deform, domain_gap, _unit
from .wos import WalkConfig, estimate_phi

_PASS, _FAIL, _INDET = "pass", "fail", "indeterminate"


def fmt17(x) -> str:
    return f"{float(x):.17g}"


def halton(n: int, dim: int, skip: int = 0) -> np.ndarray:
    """Unscrambled Halton points in [0, 1)^dim (bases 2, 3, 5, 7, ...)."""
    bases = [2, 3, 5, 7, 11, 13][:dim]
    out = np.zeros((n, dim))
    for d, b in enumerate(bases):
        # radical inverse, one digit position at a time across all indices;
        # indices out of digits add 0.0, so every value is the same sum, in the
        # same order, as a per-index digit loop
        k, f = np.arange(1 + skip, n + 1 + skip), 1.0
        while np.any(k > 0):
            f /= b
            out[:, d] += f * (k % b)
            k //= b
    return out


@dataclass
class ScanReport:
    """Point-set experiment outcome with per-point verdicts; failing points
    become witnesses."""

    experiment: str
    descriptor: str
    config: dict
    point_columns: list
    points: np.ndarray
    columns: list
    values: np.ndarray
    verdicts: list
    scan_column: str
    witnesses: list = field(default_factory=list)

    def __post_init__(self):
        fails = [i for i, v in enumerate(self.verdicts) if v == _FAIL]
        if fails and not self.witnesses:
            col = self.columns.index(self.scan_column)
            self.witnesses = [
                {"point": [float(c) for c in self.points[i]],
                 "value": float(self.values[i, col])}
                for i in fails
            ]

    @property
    def n_pass(self):
        return sum(v == _PASS for v in self.verdicts)

    @property
    def n_fail(self):
        return sum(v == _FAIL for v in self.verdicts)

    @property
    def n_indeterminate(self):
        return sum(v == _INDET for v in self.verdicts)

    @property
    def min_value(self):
        return float(np.min(self.values[:, self.columns.index(self.scan_column)]))

    @property
    def max_value(self):
        return float(np.max(self.values[:, self.columns.index(self.scan_column)]))

    def summary(self) -> str:
        return (f"{self.experiment}: {self.n_pass} pass, {self.n_fail} fail, "
                f"{self.n_indeterminate} indeterminate; {self.scan_column} in "
                f"[{self.min_value:.6g}, {self.max_value:.6g}]")

    def to_csv(self, path) -> None:
        write_rows(path, "csv", [*self.point_columns, *self.columns, "verdict"],
                   [[*x, *v, verdict] for x, v, verdict
                    in zip(self.points, self.values, self.verdicts)])

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.json_text())

    def json_text(self) -> str:
        return _json_dump({
            "experiment": self.experiment,
            "descriptor": self.descriptor,
            "config": self.config,
            "point_columns": list(self.point_columns),
            "points": self.points,
            "columns": list(self.columns),
            "values": self.values,
            "verdicts": list(self.verdicts),
            "witnesses": self.witnesses,
            "summary": {
                "pass": self.n_pass, "fail": self.n_fail,
                "indeterminate": self.n_indeterminate,
                "min": self.min_value, "max": self.max_value,
            },
        })


def write_rows(path, fmt, header, rows) -> None:
    """Rows under their header: CSV with 17-digit floats, or JSON ("json") as a
    list of one object per row."""
    with open(path, "w", newline="") as fh:
        if fmt == "json":
            fh.write(_json_dump([dict(zip(header, row)) for row in rows]))
            return
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([fmt17(v) if isinstance(v, (float, np.floating)) else v for v in row]
                    for row in rows)


def _json_dump(obj, indent=0) -> str:
    """Minimal JSON writer with %.17g floats (stdlib json hardwires repr)."""
    pad = " " * indent
    if isinstance(obj, dict):
        items = ",\n".join(
            f'{pad}  "{k}": {_json_dump(v, indent + 2).lstrip()}' for k, v in obj.items())
        return f"{pad}{{\n{items}\n{pad}}}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        flat = all(not isinstance(v, (list, tuple, dict, np.ndarray)) for v in obj)
        if flat:
            return pad + "[" + ", ".join(_json_dump(v).strip() for v in obj) + "]"
        items = ",\n".join(_json_dump(v, indent + 2) for v in obj)
        return f"{pad}[\n{items}\n{pad}]"
    if isinstance(obj, bool) or obj is None:
        return pad + {True: "true", False: "false", None: "null"}[obj]
    if isinstance(obj, (int, np.integer)):
        return pad + str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return pad + (fmt17(obj) if math.isfinite(obj) else "null")
    return pad + '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


@dataclass
class ExponentFit:
    """Log-log slope of |quantity| against the probe scale h."""

    probe: str
    quantity: str
    h_values: np.ndarray
    values: np.ndarray
    slope: float
    slope_stderr: float
    signs: np.ndarray

    @property
    def low_confidence(self) -> bool:
        return self.slope_stderr > 0.1

    def sign_consistent(self) -> bool:
        return bool(np.all(self.signs == self.signs[0]))

    def summary(self) -> str:
        flag = " (low confidence)" if self.low_confidence else ""
        return (f"{self.quantity} on {self.probe}: slope {self.slope:+.4f} "
                f"+/- {self.slope_stderr:.4f}{flag}, sign {int(self.signs[0]):+d}")

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(_json_dump({
                "probe": self.probe, "quantity": self.quantity,
                "h": self.h_values, "values": self.values,
                "slope": self.slope, "slope_stderr": self.slope_stderr,
                "signs": self.signs.astype(int),
            }))

    def to_csv(self, path) -> None:
        write_rows(path, "csv", ["h", "value", "sign"],
                   [[h, v, int(s)] for h, v, s in zip(self.h_values, self.values, self.signs)])


def _ols_loglog(h, vals):
    x = np.log(np.asarray(h, dtype=float))
    y = np.log(np.abs(np.asarray(vals, dtype=float)))
    n = x.size
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    resid = y - ym - slope * (x - xm)
    stderr = math.sqrt(float(np.sum(resid ** 2)) / max(n - 2, 1) / sxx)
    return slope, stderr


def _fill_interior(dom, n, draw, margin):
    """n planar points deeper than margin, kept in draw order; draw(m, drawn)
    returns m candidates after the drawn ones."""
    out = np.empty((n, 2))
    got = drawn = 0
    while got < n:
        m = 4 * (n - got) + 16
        cand = draw(m, drawn)
        drawn += m
        keep = cand[dom.boundary_distance_batch(cand) > margin]
        take = min(len(keep), n - got)
        out[got:got + take] = keep[:take]
        got += take
    return out


def _interior_points(dom, n, rng):
    half = dom.max_support()
    return _fill_interior(dom, n, lambda m, _: rng.uniform(-half, half, size=(m, 2)), 0.0)


# -- Hessian scans -------------------------------------------------------------------

_HESS_COLUMNS = ["u11", "u12", "u13", "u22", "u23", "u33",
                 "det", "trace", "sig_pos", "sig_neg", "det_err"]


def cylinder_points(m: float, n: int) -> np.ndarray:
    """Halton points in the open upper cylinder {x1^2 + x2^2 < M^2, 0 < x3 < M}."""
    if not m > 0:
        raise ValueError(f"cylinder height M must be positive, got {m:g}")
    u = halton(n, 3)
    r = m * np.sqrt(u[:, 0])
    ang = 2 * np.pi * u[:, 1]
    return np.stack([r * np.cos(ang), r * np.sin(ang), m * u[:, 2]], axis=1)


def slab_points(dom, n: int, margin: float = 0.02) -> np.ndarray:
    """Halton points of the open slab over the domain, kept margin-deep; the margin
    must lie below the disk's radius or the largest node distance of the lattice."""
    deepest = dom._disk_radius or float(dom._lattice().delta.max())
    if not 0 <= margin < deepest:
        raise ValueError(f"slab margin must lie in [0, {deepest:.6g}), the domain's "
                         f"certified depth, got {margin:g}")
    half = dom.max_support()
    xy = _fill_interior(dom, n, lambda m, drawn: (2 * halton(m, 2, skip=drawn) - 1) * half,
                        margin)
    return np.column_stack([xy, np.zeros(n)])


def _scan_rows(points, worker):
    """(points, values, verdicts) of worker(x) -> (row, verdict) over (n, 3) points,
    rows in input order.

    Points that share a mirror image (x1, x2, |x3|) run one after another, from
    the first one's place in the input: a point and its twin across the slab
    then meet in the context's memo while the first one's integral is still
    the newest entry, so each pair costs one integral however many pairs the
    scan holds.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3 or len(points) == 0:
        raise ValueError(f"scan points must be an (n, 3) array with n >= 1, "
                         f"got shape {points.shape}")
    mirrors = [(x1, x2, abs(x3)) for x1, x2, x3 in points.tolist()]
    first = {}
    for i, m in enumerate(mirrors):
        first.setdefault(m, i)
    results = [None] * len(points)
    for i in sorted(range(len(points)), key=lambda i: first[mirrors[i]]):
        results[i] = worker(points[i])
    return points, np.array([row for row, _ in results]), [v for _, v in results]


def _verdict(det, err, sig, converged):
    if not converged or abs(det) <= 10.0 * err:
        return _INDET
    if det > 0 and sig == (1, 2, 0):
        return _PASS
    return _FAIL


def veps_shift(s: HessianSample, eps: float) -> HessianSample:
    """Sample of v^eps = u + eps q from a sample s of u; q is closed-form, so
    the shift keeps the entry errors of u."""
    return hessian_sample(s.x, s.hess + eps * EPS_QUADRATIC_HESS, s.entry_err, s.converged)


def psi_blend(s: HessianSample, b: float) -> HessianSample:
    """Sample of the blend psi_b = (1 - b) u + b w from a sample s of u.

    The companion w is closed-form, so the blend's entry errors are (1 - b)
    times those of u, and its det error follows from them.
    """
    return hessian_sample(s.x, (1.0 - b) * s.hess + b * aux_w_hess(s.x),
                          (1.0 - b) * s.entry_err, s.converged)


def hessian_scan(ctx: ExtensionContext, points: np.ndarray, which: str = "u", *,
                 eps: float = 0.0, b: float = 0.0, descriptor: str = "custom",
                 n_threads: int = 1) -> ScanReport:
    """Determinant positivity and signature (1,2,0) of u, of v^eps = u + eps q
    or of the blend psi_b at each point.

    A point passes when det > 10x its propagated error estimate with the
    right signature; |det| within 10x the estimate is indeterminate, not a
    failure (Monte Carlo fields cannot certify strict inequalities).  An
    unknown which raises ValueError before any point is evaluated.  Points
    run in order; n_threads has no effect and stays only for callers that
    still pass it.
    """
    targets = {"u": lambda s: s, "veps": lambda s: veps_shift(s, eps),
               "psib": lambda s: psi_blend(s, b)}
    if which not in targets:
        raise ValueError(f"unknown hessian target {which!r}")
    target = targets[which]

    def worker(x):
        s = target(eval_hessian(ctx, x))
        h = s.hess
        row = [h[0, 0], h[0, 1], h[0, 2], h[1, 1], h[1, 2], h[2, 2],
               s.det, s.trace, s.signature[0], s.signature[1], s.det_err]
        return row, _verdict(s.det, s.det_err, s.signature, s.converged)

    points, values, verdicts = _scan_rows(points, worker)
    return ScanReport(
        experiment=f"hessian_scan[{which}]", descriptor=descriptor,
        config={"which": which, "eps": eps, "b": b, "n_points": len(points)},
        point_columns=["x1", "x2", "x3"], points=points,
        columns=_HESS_COLUMNS, values=values, verdicts=verdicts,
        scan_column="det")


def psi_b_scan(ctx: ExtensionContext, b_grid, points: np.ndarray, *,
               descriptor: str = "custom") -> ScanReport:
    """det(Hess Psi_b) > 0 across the blend grid; the field Hessian is
    evaluated once per point and blended with the closed-form companion.  The
    verdict is the worst blend's, judged by that blend's own det error."""
    b_grid = np.asarray(b_grid, dtype=float)

    def worker(x):
        u = eval_hessian(ctx, x)
        blends = [psi_blend(u, bb) for bb in b_grid]
        worst = int(np.argmin([s.det for s in blends]))
        s = blends[worst]
        sig_ok = all(bs.signature == (1, 2, 0) for bs in blends)
        verdict = _verdict(s.det, s.det_err, (1, 2, 0) if sig_ok else (0, 0, 3), s.converged)
        return [s.det, b_grid[worst], s.det_err], verdict

    points, values, verdicts = _scan_rows(points, worker)
    return ScanReport(
        experiment="psi_b_scan", descriptor=descriptor,
        config={"b_grid": [float(bb) for bb in b_grid], "n_points": len(points)},
        point_columns=["x1", "x2", "x3"], points=points,
        columns=["min_det", "argmin_b", "det_err"], values=values,
        verdicts=verdicts, scan_column="min_det")


# -- concavity and the general-alpha inequalities ---------------------------------------

def _chord_rows(phi_eval, stderr_eval, tol, z, terms):
    """Values (lhs, chord, margin, allowance) and verdicts of phi(z) >= sum w_k phi(x_k).

    terms holds (w_k, x_k) pairs; the allowance is tol, widened by three
    combined standard errors sqrt(s_z^2 + sum (w_k s_k)^2) when stderr_eval is
    given.  Each sum starts from its first term, so a -0.0 keeps its sign.
    """
    lhs = phi_eval(z)
    chord = terms[0][0] * phi_eval(terms[0][1])
    for w, x in terms[1:]:
        chord = chord + w * phi_eval(x)
    margin = lhs - chord
    allowance = np.full(len(z), tol)
    if stderr_eval is not None:
        var = stderr_eval(z) ** 2
        for w, x in terms:
            var = var + (w * stderr_eval(x)) ** 2
        allowance = tol + 3.0 * np.sqrt(var)
    verdicts = [_PASS if ok else _FAIL for ok in margin >= -allowance]
    return np.column_stack([lhs, chord, margin, allowance]), verdicts


def concavity_check(phi_eval, dom, n_triples: int, tol: float, *, seed: int = 0,
                    stderr_eval=None, transform=None,
                    descriptor: str = "") -> ScanReport:
    """Midpoint-style concavity on random interior triples.

    Checks phi(lam x + (1-lam) y) >= lam phi(x) + (1-lam) phi(y) - tol, with
    tol widened by three combined standard errors when stderr_eval is given.
    transform (e.g. sqrt for the Brownian case) is applied to the values.
    """
    rng = Generator(Philox(key=np.array([seed, 0xC0CA], dtype=np.uint64)))
    xs = _interior_points(dom, n_triples, rng)
    ys = _interior_points(dom, n_triples, rng)
    lam = rng.uniform(0.0, 1.0, n_triples)
    mids = lam[:, None] * xs + (1 - lam[:, None]) * ys
    f = phi_eval if transform is None else (lambda pts: transform(phi_eval(pts)))
    values, verdicts = _chord_rows(f, stderr_eval, tol, mids,
                                   ((lam, xs), (1 - lam, ys)))
    return ScanReport(
        experiment="concavity_check", descriptor=descriptor or f"{n_triples} triples",
        config={"n_triples": n_triples, "tol": tol, "seed": seed,
                "transform": bool(transform)},
        point_columns=["x1", "x2", "y1", "y2", "lambda"],
        points=np.column_stack([xs, ys, lam]),
        columns=["phi_mid", "chord", "margin", "tol"], values=values,
        verdicts=verdicts, scan_column="margin")


def scaling_inequality_check(dom, p: StableParams, phi_eval, n_cases: int, tol: float, *,
                          seed: int = 0, stderr_eval=None,
                          descriptor: str = "") -> ScanReport:
    """Both parts of the general-alpha inequality family on sampled cases.

    part a: phi(lam x + (1-lam) x0) >= lam^alpha phi(x) with x0 on the boundary;
    part b: phi(lam x + (1-lam) y) >= (lam^alpha phi(x) + (1-lam)^alpha phi(y)) / 2.
    """
    rng = Generator(Philox(key=np.array([seed, 0x7743], dtype=np.uint64)))
    half = n_cases // 2

    # part a
    xs = _interior_points(dom, half, rng)
    x0 = dom.boundary_point(rng.uniform(0, 2 * np.pi, half))
    lam = rng.uniform(0.0, 1.0, half)
    z = lam[:, None] * xs + (1 - lam[:, None]) * x0
    vals_a, verdicts_a = _chord_rows(phi_eval, stderr_eval, tol, z, ((lam ** p.alpha, xs),))
    rows_a = np.column_stack([np.zeros(half), xs, x0, lam])

    # part b; halving each weight is exact, so this is half the weighted sum
    nb = n_cases - half
    xs = _interior_points(dom, nb, rng)
    ys = _interior_points(dom, nb, rng)
    lam = rng.uniform(0.0, 1.0, nb)
    z = lam[:, None] * xs + (1 - lam[:, None]) * ys
    vals_b, verdicts_b = _chord_rows(
        phi_eval, stderr_eval, tol, z,
        ((0.5 * lam ** p.alpha, xs), (0.5 * (1 - lam) ** p.alpha, ys)))
    rows_b = np.column_stack([np.ones(nb), xs, ys, lam])

    return ScanReport(
        experiment="scaling_inequality_check",
        descriptor=descriptor or f"alpha={p.alpha}, {n_cases} cases",
        config={"alpha": p.alpha, "n_cases": n_cases, "tol": tol, "seed": seed},
        point_columns=["part", "x1", "x2", "y1", "y2", "lambda"],
        points=np.concatenate([rows_a, rows_b]), columns=["lhs", "rhs", "margin", "tol"],
        values=np.concatenate([vals_a, vals_b]), verdicts=verdicts_a + verdicts_b,
        scan_column="margin")


def cone_nonconcavity_hunt(cone: ConeDomain, p: StableParams, cfg: WalkConfig, *,
                           scales=None) -> ScanReport:
    """Search axis triples of a cone for midpoint-concavity violations.

    A witness is a triple whose midpoint deficit exceeds five combined
    standard errors; finding none falsifies nothing (the narrow-cone
    prediction is asymptotic in the aperture).
    """
    if not 1.0 < p.alpha < 2.0:
        raise ValueError(f"the non-concavity hunt targets alpha in (1, 2), got {p.alpha:g}")
    scales = np.asarray(scales if scales is not None
                        else [0.6, 0.45, 0.3, 0.2, 0.12, 0.07], dtype=float)
    axis = np.zeros(cone.dim)

    def phi_at(t, stream):
        x = axis.copy()
        x[0] = t
        est = estimate_phi(cone, p, x, cfg, stream=stream)
        return est.mean, est.std_error

    rows, vals, verdicts = [], [], []
    profile = []
    for i, s in enumerate(scales):
        t1, t2 = s, s / 4.0
        tm = 0.5 * (t1 + t2)
        f1, e1 = phi_at(t1, 3 * i + 1)
        f2, e2 = phi_at(t2, 3 * i + 2)
        fm, em = phi_at(tm, 3 * i + 3)
        deficit = 0.5 * (f1 + f2) - fm
        sigma = math.sqrt(em * em + 0.25 * (e1 * e1 + e2 * e2))
        z = deficit / sigma if sigma > 0 else 0.0
        rows.append([t1, t2, tm])
        vals.append([f1, f2, fm, deficit, sigma, z])
        verdicts.append(_FAIL if z > 5.0 else _PASS)  # fail marks a witness
        profile.append((t1, f1, e1))
        profile.append((tm, fm, em))
        profile.append((t2, f2, e2))
    profile.sort()
    monotone = all(
        profile[i + 1][1] - profile[i][1] >= -3.0 * math.hypot(profile[i + 1][2], profile[i][2])
        for i in range(len(profile) - 1))
    return ScanReport(
        experiment="cone_nonconcavity_hunt",
        descriptor=f"theta={cone.theta:g}, dim={cone.dim}, alpha={p.alpha:g}",
        config={"theta": cone.theta, "dim": cone.dim, "alpha": p.alpha,
                "n_walks": cfg.n_walks, "seed": cfg.seed,
                "axis_profile_nondecreasing": monotone},
        point_columns=["t1", "t2", "t_mid"], points=np.array(rows),
        columns=["phi1", "phi2", "phi_mid", "deficit", "sigma", "zscore"],
        values=np.array(vals), verdicts=verdicts, scan_column="zscore")


# -- boundary exponents ------------------------------------------------------------------

_S_LOCAL = {  # representative local (x1, x3) per probe family, in units of h
    "S1": (-1.0, 0.125), "S2": (-1.0, 0.625), "S3": (1.0, 0.625), "S4": (1.0, 0.125),
}

_TARGET_SLOPES = {
    ("normal-slab", "phi_n"): -0.5,
    ("normal-slab", "phi_nn"): -1.5,
    ("normal-slab", "phi_TT"): -0.5,
    ("S4", "u22"): -0.5,
    ("S2", "u11"): -1.5,
    ("S1", "u13"): -1.5,
    ("S3", "u13"): -1.5,
    ("exterior", "ext_half_lap"): -0.5,
}


_HESSIAN_ENTRIES = {"u11": (0, 0), "u22": (1, 1), "u33": (2, 2),
                    "u12": (0, 1), "u13": (0, 2), "u23": (1, 2)}
_PROBE_QUANTITIES = {"normal-slab": ("phi_n", "phi_nn", "phi_TT"),
                     **{probe: tuple(_HESSIAN_ENTRIES) for probe in _S_LOCAL},
                     "exterior": ("ext_half_lap",)}


def target_slope(probe: str, quantity: str):
    return _TARGET_SLOPES.get((probe, quantity))


def boundary_exponent_fit(ctx: ExtensionContext, probe: str, quantity: str,
                          h_values) -> ExponentFit:
    """Log-log slope of |quantity| along a boundary probe family.

    Probes: normal-slab (inward points on the slab), S1..S4 (the boundary
    frame boxes straddling the slab edge), exterior (outward slab points).
    """
    h_values = np.sort(np.asarray(h_values, dtype=float))
    if h_values.size < 5 or h_values[-1] / h_values[0] < 5.0:
        raise InsufficientRangeError("need >= 5 h-values spanning a factor >= 5")
    if probe not in _PROBE_QUANTITIES:
        raise ValueError(f"unknown probe {probe!r} (use {', '.join(_PROBE_QUANTITIES)})")
    if quantity not in _PROBE_QUANTITIES[probe]:
        raise ValueError(f"probe {probe!r} has no quantity {quantity!r} "
                         f"(use {', '.join(_PROBE_QUANTITIES[probe])})")
    psi = 0.0  # the probes stand on the boundary point at angle 0
    y0 = ctx.dom.boundary_point(psi)
    n_in = -_unit(psi)
    t_cw = np.array([math.sin(psi), -math.cos(psi)])
    vals = np.empty(h_values.size)

    for i, h in enumerate(h_values):
        if probe == "normal-slab":
            vals[i] = _slab_quantity(ctx, y0, n_in, t_cw, h, quantity)
        elif probe == "exterior":
            vals[i] = -eval_u3_slab(ctx, y0 - h * n_in)
        else:
            a1, a3 = _S_LOCAL[probe]
            xy = y0 + a1 * h * n_in
            x = np.array([xy[0], xy[1], a3 * h])
            sample = eval_hessian(ctx, x)
            loc = local_frame_hessian(sample.hess, psi)
            vals[i] = loc[_HESSIAN_ENTRIES[quantity]]
    slope, stderr = _ols_loglog(h_values, vals)
    return ExponentFit(probe=probe, quantity=quantity, h_values=h_values,
                       values=vals, slope=slope, slope_stderr=stderr,
                       signs=np.sign(vals))


def _slab_quantity(ctx, y0, n_in, t_cw, delta, quantity):
    base = y0 + delta * n_in

    def phi1(pt):
        return float(ctx.phi.values_at(pt[None])[0])

    if quantity == "phi_n":
        e = delta / 20.0
        return (phi1(base + e * n_in) - phi1(base - e * n_in)) / (2 * e)
    if quantity == "phi_nn":
        e = delta / 10.0
        return (phi1(base + e * n_in) - 2 * phi1(base)
                + phi1(base - e * n_in)) / e ** 2
    e = delta / 10.0  # phi_TT
    return (phi1(base + e * t_cw) - 2 * phi1(base)
            + phi1(base - e * t_cw)) / e ** 2


# -- deformation sweep ----------------------------------------------------------------

_GAP_TOL = 1e-9
_CURVATURE_SLACK = 1e-6


def deformation_sweep(dom: SupportDomain, t_grid) -> ScanReport:
    """Classify each interpolated domain and check the curvature pinching law.

    Curvatures of D(t) must stay within [min(kappa1, 1), max(kappa2, 1)] up to
    _CURVATURE_SLACK; consecutive boundary gaps must obey the support-function
    Lipschitz bound |dt| (1 + max h) up to _GAP_TOL.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        raise ValueError("t_grid holds no values")
    base = dom.classify()
    lo = min(base.kappa1, 1.0) - _CURVATURE_SLACK
    hi = max(base.kappa2, 1.0) + _CURVATURE_SLACK
    doms = [deform(dom, float(t)) for t in t_grid]
    rows, vals, verdicts = [], [], []
    max_h = dom.max_support()
    for i, t in enumerate(t_grid):
        cl = doms[i].classify()
        gap = domain_gap(doms[i], doms[i + 1]) if i + 1 < len(t_grid) else 0.0
        gap_bound = (abs(t_grid[i + 1] - t) if i + 1 < len(t_grid) else 0.0) * (1 + max_h)
        ok = lo <= cl.kappa1 and cl.kappa2 <= hi and gap <= gap_bound + _GAP_TOL
        rows.append([t])
        vals.append([cl.R1, cl.kappa1, cl.kappa2, cl.C1, gap, gap_bound])
        verdicts.append(_PASS if ok else _FAIL)
    return ScanReport(
        experiment="deformation_sweep",
        descriptor=f"t in [{t_grid[0]:g}, {t_grid[-1]:g}], {len(t_grid)} steps",
        config={"kappa_low": lo, "kappa_high": hi, "curvature_slack": _CURVATURE_SLACK},
        point_columns=["t"], points=np.array(rows),
        columns=["R1", "kappa1", "kappa2", "C1", "gap_next", "gap_bound"],
        values=np.array(vals), verdicts=verdicts, scan_column="kappa2")
