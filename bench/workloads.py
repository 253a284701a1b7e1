"""The benchmark's four workloads.

Each workload sets up once (timed as setup_s), draws a round of inputs from
the seeded generator, runs the round as timed units through the package's
public API, and checks every result against an oracle that does not share
the code under test.  A unit is one library call (an estimate, a field
build, a scan of a few points), so the calibrated clock in run.py can
bracket it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import probes

CONE_SCALES = (0.6, 0.45, 0.3, 0.2, 0.12, 0.07)   # cone-hunt's default axis scales
S_PROBES = {"S1": (-1.0, 0.125), "S2": (-1.0, 0.625),  # exponent-fit's (x1, x3) / h
            "S3": (1.0, 0.625), "S4": (1.0, 0.125)}
CRITERION5_QUAD = dict(rel_tol=1e-6, abs_tol=3e-8, max_cells=30000)
SCAN_CHUNK = 4   # points per hessian_scan call: one timed unit
STRATA = 4       # disk start points per alpha and round


@dataclass(frozen=True)
class Sizes:
    disk_walks: dict          # alpha -> walks per disk estimate
    cone_walks: int           # walks per cone axis point
    field_walks: int          # walks per node; 150 nodes at spacing 0.07 -> two batches
    field_spacing: float
    scan_cylinder: int        # cylinder points per round, each also reflected
    probe_h: int              # h values per S-probe family
    ellipse_cylinder: int
    scan_field_walks: int
    scan_field_spacing: float
    concavity_triples: int


FULL = Sizes(disk_walks={0.5: 32768, 1.0: 32768, 1.5: 16384, 2.0: 4096}, cone_walks=4096,
             field_walks=218, field_spacing=0.07, scan_cylinder=16, probe_h=6,
             ellipse_cylinder=10, scan_field_walks=600, scan_field_spacing=0.1,
             concavity_triples=10_000)
SMOKE = Sizes(disk_walks={0.5: 512, 1.0: 512, 1.5: 256, 2.0: 128}, cone_walks=128,
              field_walks=60, field_spacing=0.1, scan_cylinder=1, probe_h=1,
              ellipse_cylinder=1, scan_field_walks=40, scan_field_spacing=0.1,
              concavity_triples=1000)


@dataclass
class Round:
    ops: int                  # walks, or Hessian points
    attempted: int
    failed: int = 0
    tol_s: float = 0.0        # calibrated seconds to the results at the stated accuracy
    wall: float = 0.0         # raw seconds
    cal: float = 0.0          # calibrated seconds
    problems: list = field(default_factory=list)
    indeterminate: int = 0
    zscores: dict = field(default_factory=dict)   # alpha -> z-scores of disk estimates
    digest: tuple = ()


class DiskWalks:
    """estimate_phi on the unit disk at four alphas, plus cone-hunt axis points.

    Both domains have O(1) closed-form distances, so the time goes to the walk
    loop and the RNG; alpha = 1.5 and 2 add the heavy step tail.
    """

    op = "walks"
    stream = False   # calibration kernel without the large temporary (run.py)
    traced = ("foot", "cone_dist", "estimate_phi", "run_batch", "uniform_block", "exit_law")

    def setup(self, pkg, sizes, rng):
        self.pkg, self.sizes = pkg, sizes
        cf, geom, wos = pkg.closedform, pkg.geom, pkg.wos
        self.disk = geom.SupportDomain.disk(1.0)
        self.cone = geom.ConeDomain(0.1, 2)
        self.params = {a: cf.StableParams(a, 2) for a in sizes.disk_walks}
        for p in self.params.values():  # first-call costs: exit-law tables, SciPy
            wos.estimate_phi(self.disk, p, [0.1, 0.0], wos.WalkConfig(n_walks=64))
        wos.estimate_phi(self.cone, self.params[1.5], [0.3, 0.0], wos.WalkConfig(n_walks=64))

    def inputs(self, rng):
        jobs = []
        for a in self.sizes.disk_walks:
            for stratum in range(STRATA):  # one start in each quarter of the area of r < 0.9
                r = 0.9 * math.sqrt((stratum + rng.uniform()) / STRATA)
                ang = rng.uniform(0, 2 * math.pi)
                jobs.append(("disk", a, (r * math.cos(ang), r * math.sin(ang)),
                             int(rng.integers(2 ** 62))))
        s = CONE_SCALES[int(rng.integers(len(CONE_SCALES)))]
        for t in (s, s / 4.0, 0.625 * s):
            jobs.append(("cone", 1.5, (t, 0.0), int(rng.integers(2 ** 62))))
        return jobs

    def run(self, jobs, clock, n_threads=1):
        wos = self.pkg.wos
        units = []
        for dom_name, a, x, seed in jobs:
            dom = self.disk if dom_name == "disk" else self.cone
            n = self.sizes.disk_walks[a] if dom_name == "disk" else self.sizes.cone_walks
            units.append(clock.time(wos.estimate_phi, dom, self.params[a], x,
                                    wos.WalkConfig(n_walks=n, seed=seed), n_threads=n_threads))
        return units

    def check(self, jobs, units):
        ball_phi = self.pkg.closedform.ball_phi
        rnd = Round(ops=0, attempted=0)
        for (dom_name, a, x, _), (est, cal) in zip(jobs, units):
            rnd.ops += est.n_walks
            rnd.attempted += est.n_walks
            rnd.tol_s += cal * (est.std_error / (1e-3 * est.mean)) ** 2
            rnd.digest += (est.mean, est.std_error)
            # the unit-disk exit time is exact on the disk and, by domain
            # monotonicity, an upper bound on the cone inside it
            z = (est.mean - ball_phi(self.params[a], 1.0, x)) / est.std_error
            bad = []
            if est.truncated:
                bad.append(f"{est.truncated} truncated walks")
            if dom_name == "disk":
                rnd.zscores.setdefault(a, []).append(z)
                if abs(z) > 5.0:
                    bad.append(f"|z| = {abs(z):.2f} > 5 against ball_phi")
            elif z > 4.0:
                bad.append(f"cone estimate {z:.2f} sigma above the disk exit time")
            if bad:
                rnd.failed += est.n_walks
                rnd.problems.append(f"{dom_name} alpha={a:g} x={x}: " + "; ".join(bad))
        return rnd

    def run_checks(self, rounds):
        """Pooled z per alpha over the run: a bias too small for one estimate's
        5-sigma check still shows at 4 sigma here."""
        pooled = {}
        for rnd in rounds:
            for a, zs in rnd.zscores.items():
                pooled.setdefault(a, []).extend(zs)
        out = []
        for a, zs in pooled.items():
            z = sum(zs) / math.sqrt(len(zs))
            if abs(z) > 4.0:
                out.append(f"disk alpha={a:g}: pooled z = {z:.2f} over {len(zs)} estimates")
        return out

    def roundtrip_field(self, units):
        return None


class EllipseFieldBuild:
    """build_field on ellipse 0.8,0.5 at spacing 0.07, alpha in {0.5, 1, 1.5}.

    The same walk loop as disk_walks, but the Newton distance oracle runs on
    16384-point batches and node-grouped batches wait for their slowest walk.
    """

    op = "walks"
    stream = True    # most time goes to 16384 x 256 temporaries in the distance oracle
    traced = ("foot", "build_field", "run_batch", "uniform_block", "exit_law")
    alphas = (0.5, 1.0, 1.5)

    def setup(self, pkg, sizes, rng):
        self.pkg, self.sizes = pkg, sizes
        cf, geom, wos = pkg.closedform, pkg.geom, pkg.wos
        self.dom = geom.SupportDomain.ellipse(0.8, 0.5)
        self.params = {a: cf.StableParams(a, 2) for a in self.alphas}
        for p in self.params.values():  # first-call costs: exit-law tables, spline fits
            self.grid_field = wos.build_field(self.dom, p, sizes.field_spacing,
                                              wos.WalkConfig(n_walks=2))

    def oracle(self):
        """Brute-force node depths and the domain's outer radius (untimed)."""
        f = self.grid_field
        ii, jj = np.meshgrid(*(range(n) for n in f.values.shape), indexing="ij")
        self.nodes = f.origin + f.spacing * np.stack([ii, jj], axis=-1)
        self.node_depth = np.full(f.values.shape, -1.0)
        inside = f.node_delta > 0  # only selects which nodes get the oracle
        self.node_depth[inside] = probes.brute_force_distance(self.dom.coeffs,
                                                              self.nodes[inside])
        grid = np.linspace(0, 2 * math.pi, 16384, endpoint=False)
        self.outer = float(np.max(probes.support_series(self.dom.coeffs, grid)))

    def inputs(self, rng):
        return [(a, int(rng.integers(2 ** 62)), int(rng.integers(2 ** 31)))
                for a in self.alphas]

    def run(self, jobs, clock, n_threads=1):
        wos = self.pkg.wos
        return [clock.time(wos.build_field, self.dom, self.params[a], self.sizes.field_spacing,
                           wos.WalkConfig(n_walks=self.sizes.field_walks, seed=seed),
                           n_threads=n_threads, domain_ref="builtin:ellipse:0.8,0.5")
                for a, seed, _ in jobs]

    def check(self, jobs, units):
        cb = self.pkg.closedform.ball_exit_constant
        rnd = Round(ops=0, attempted=0)
        nw = self.sizes.field_walks
        for (a, _, cc_seed), (f, cal) in zip(jobs, units):
            rel = f.reliable
            n_walks = int(np.count_nonzero(rel)) * nw
            rnd.ops += n_walks
            rnd.attempted += n_walks
            rnd.tol_s += cal * (f.typical_stderr() / 2e-3) ** 2
            rnd.digest += (f.values.tobytes(),)
            c = cb(self.params[a])
            v, s = f.values[rel], f.stderr[rel]
            # B(x, delta(x)) lies inside the ellipse, which lies inside B(0, outer)
            lower = c * np.maximum(self.node_depth[rel], 0.0) ** a
            r2 = np.sum(self.nodes[rel] ** 2, axis=1)
            upper = c * np.maximum(self.outer ** 2 - r2, 0.0) ** (a / 2.0)
            bad = int(np.count_nonzero((v < lower - 4 * s) | (v > upper + 4 * s)))
            if bad:
                rnd.failed += bad * nw
                rnd.problems.append(f"alpha={a:g}: {bad} nodes outside [C delta^alpha, "
                                    "outer-ball exit time] by more than 4 sigma")
            if a == 1.0:
                self._check_concavity(f, cc_seed, rnd, n_walks)
        return rnd

    def _check_concavity(self, f, seed, rnd, n_walks):
        """Criterion 12's check with the margin at 4 combined standard errors
        instead of 3 (README: the strength it has on the tier-1 fixture).  It
        runs in blocks of 500 triples, so that its point sampling stays well
        below the field build's peak memory."""
        for block in range(0, self.sizes.concavity_triples, 500):
            rep = self.pkg.analysis.concavity_check(
                f.values_at, self.dom, min(500, self.sizes.concavity_triples - block), 0.003,
                seed=seed + block, stderr_eval=lambda pts: 4.0 / 3.0 * f.stderr_at(pts))
            if rep.n_fail:
                rnd.failed += n_walks
                rnd.problems.append(f"alpha=1 field fails concavity: {rep.summary()}")
                return

    def run_checks(self, rounds):
        return []

    def roundtrip_field(self, units):
        return units[1][0]  # the alpha = 1 field


class _Scan:
    """Round logic shared by the two Hessian-scan workloads."""

    op = "points"
    stream = False
    traced = ("foot", "hessian_scan", "eval_hessian", "integrate", "eval_cell", "kernel")
    counted = ("fail", "indeterminate")   # verdicts that count as failures

    def _context(self, dom, phi):
        ext = self.pkg.extension
        self.ctx = ext.ExtensionContext(dom, phi, self.pkg.quad.QuadSpec(**CRITERION5_QUAD))
        self.pkg.analysis.hessian_scan(self.ctx, np.array([[0.2, 0.1, 0.5]]))  # first call

    def run(self, pts, clock, n_threads=1):
        return [clock.time(self._scan, pts[i:i + SCAN_CHUNK], n_threads)
                for i in range(0, len(pts), SCAN_CHUNK)]

    def _scan(self, pts, n_threads):
        # hessian_scan drops each sample's converged flag; count it on the way out
        an = self.pkg.analysis
        evaluate = an.eval_hessian
        converged = []

        def flagged(*args, **kwargs):
            sample = evaluate(*args, **kwargs)
            converged.append(sample.converged)
            return sample

        an.eval_hessian = flagged
        try:
            rep = an.hessian_scan(self.ctx, pts, n_threads=n_threads)
        finally:
            an.eval_hessian = evaluate
        return rep, converged.count(False)

    def check(self, pts, units):
        rnd = Round(ops=len(pts), attempted=len(pts))
        for (rep, nonconverged), cal in units:
            rnd.tol_s += cal
            rnd.digest += (rep.values.tobytes(),)
            rnd.indeterminate += rep.verdicts.count("indeterminate")
            failed = sum(rep.verdicts.count(v) for v in self.counted)
            if "indeterminate" not in self.counted:  # non-converged points read indeterminate
                failed += nonconverged
            if failed:
                rnd.failed += failed
                rnd.problems.append(f"{failed} points failed ({nonconverged} not converged, "
                                    f"counted verdicts {self.counted}): {rep.summary()}")
        return rnd

    def run_checks(self, rounds):
        return []

    def roundtrip_field(self, units):
        return None


def cylinder_points(rng, m, n, octaves):
    """Latin-hypercube points in the cylinder {r < m, m 2^-octaves <= x3 < m}.

    Heights are log-uniform, so every round holds the same spread of
    near-slab points.  A point's cost grows like 1/x3 (about 1 s at x3 = 0.01
    over the ellipse field), so uniform heights put a point of 10-100x the
    median cost into a round only now and then, and whole-run rates jumped
    by 30%.
    """
    u = (np.stack([rng.permutation(n) for _ in range(3)], 1) + rng.uniform(size=(n, 3))) / n
    r, ang = m * np.sqrt(u[:, 0]), 2 * np.pi * u[:, 1]
    return np.stack([r * np.cos(ang), r * np.sin(ang), m * 2.0 ** (-octaves * u[:, 2])], 1)


class DiskHessianScan(_Scan):
    """hessian_scan with DiskPhi and the criterion-5 QuadSpec.

    No walks and no Newton distance work: quadrature refining one 225-node
    cell per Python iteration plus the kernel.  The S1-S4 boundary probes
    carry the slow tail.
    """

    def setup(self, pkg, sizes, rng):
        self.pkg, self.sizes = pkg, sizes
        self.h = np.geomspace(0.01, 0.32, sizes.probe_h)
        self._context(pkg.geom.SupportDomain.disk(1.0), pkg.extension.DiskPhi())

    def inputs(self, rng):
        cyl = cylinder_points(rng, 3.0, self.sizes.scan_cylinder, octaves=6)
        a1, a3 = (np.repeat(np.array(list(S_PROBES.values()))[:, k], len(self.h)) for k in (0, 1))
        h = np.tile(self.h, len(S_PROBES))
        # each probe point at its own stratified boundary angle: a point's cost
        # depends on its angle to the quadrature's first cells by up to 1.5x
        psi = 2 * np.pi * (rng.permutation(h.size) + rng.uniform(size=h.size)) / h.size
        y0 = np.stack([np.cos(psi), np.sin(psi)], axis=1)  # boundary point, normal psi
        probe = np.column_stack([y0 * (1.0 - a1 * h)[:, None], a3 * h])
        return np.concatenate([cyl, cyl * np.array([1.0, 1.0, -1.0]), probe])


class EllipseFieldScan(_Scan):
    """hessian_scan on the ellipse with an alpha = 1 PhiField built in setup.

    Same quadrature as disk_hessian_scan, but every cell's integrand reads the
    field (values_at and stderr_at: two 225-point distance queries) and has 12
    columns.  Indeterminate verdicts are reported, not counted.
    """

    traced = _Scan.traced + ("values_at", "stderr_at")
    counted = ("fail",)

    def setup(self, pkg, sizes, rng):
        self.pkg, self.sizes = pkg, sizes
        cf, wos = pkg.closedform, pkg.wos
        dom = pkg.geom.SupportDomain.ellipse(0.8, 0.5)
        self.field = wos.build_field(
            dom, cf.StableParams(1.0, 2), sizes.scan_field_spacing,
            wos.WalkConfig(n_walks=sizes.scan_field_walks, seed=int(rng.integers(2 ** 62))),
            domain_ref="builtin:ellipse:0.8,0.5")
        self._context(dom, self.field)

    def inputs(self, rng):
        # x3 >= 1/8: the near-slab tail is disk_hessian_scan's (its S1-S4 probes);
        # over the field a point costs 1-1.5 s at x3 = 0.01 and up to 8 s at 0.001
        cyl = cylinder_points(rng, 1.0, self.sizes.ellipse_cylinder, octaves=3)
        return np.concatenate([cyl, cyl * np.array([1.0, 1.0, -1.0])])

    def roundtrip_field(self, units):
        return self.field


WORKLOADS = {"disk_walks": DiskWalks, "ellipse_field_build": EllipseFieldBuild,
             "disk_hessian_scan": DiskHessianScan, "ellipse_field_scan": EllipseFieldScan}
