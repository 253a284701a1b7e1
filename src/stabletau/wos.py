"""Kernel-exact walk-on-spheres for symmetric stable processes.

Each step sits at a point x inside the domain, inscribes the ball
B(x, kappa * r) for a step distance 0 < r <= delta_D(x), banks the ball's
exact mean exit time C_B (kappa r)^alpha, and jumps to a sample of the ball's
exit law.  Any centred ball inside D gives an exact step, so the estimator
is unbiased for every such r.  The domain supplies r (step_distance): on a
support-function domain other than the disk it is a certified lower bound
of delta_D read from a lattice (geom._DistanceLattice), and the exact
distance (SupportDomain._signed_distance_foot, which the fields also read)
only near the boundary; on the disk and the cone it is exact.  For alpha < 2
the jump lands strictly outside the ball, so the walk terminates exactly
when it lands in the exterior of the domain; no boundary shell is needed.
For alpha = 2 the classical variant is used (uniform exit on the sphere)
with a tiny absorption shell.

Randomness is counter-based: at step k, the walks of batch b still alive
draw one block of uniforms at a Philox counter derived from (b, k) under key
(seed, stream), and the j-th live walk in walk order reads column j.  The
live set is itself a deterministic function of the inputs, so runs are
bitwise reproducible for any thread count.

A round's array passes are kept few: the batch holds its live walks'
positions as (dim, n) coordinate rows, the directions come as the same rows,
and exited walks are compacted by index.  The directions' cos and sin of
2 pi u are read off a mid-knot table and rotated by a short series
(_cos_sin_turns), with no libm call.  The exit radius for alpha other
than 1 and 2 reads a quantile table whose knots are uniform in logit, so
each lookup finds its interval by a direct index and evaluates the table's
cubic exactly as SciPy's PPoly does, bitwise.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import betainc, betaincinv

from .closedform import BallSpec, StableParams, ball_exit_constant
from .errors import DomainFileError, GridTooCoarseError, PointOutsideError
from .geom import _BOUNDARY_TOL, SupportDomain, builtin_domain, load_domain

_BATCH = 16384
_MASK64 = (1 << 64) - 1
_SHELL = 1e-8  # absorption shell of the alpha = 2 walks


@dataclass(frozen=True)
class WalkConfig:
    n_walks: int
    ball_fraction: float = 0.5
    max_steps: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.n_walks < 1:
            raise ValueError("n_walks must be >= 1")
        if not 0.0 < self.ball_fraction < 1.0:
            raise ValueError("ball_fraction must lie in (0, 1)")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass(frozen=True)
class WalkEstimate:
    mean: float
    std_error: float
    n_walks: int
    truncated: int
    mean_steps: float

    @property
    def biased_low(self) -> bool:
        return self.truncated > 0


class ExitRadiusLaw:
    """Radial exit law from a ball of radius s, started at the centre.

    The exit radius is s / sqrt(T) with T ~ Beta(alpha/2, 1 - alpha/2); the
    density of rho/s is proportional to (q^2 - 1)^(-alpha/2) q^(-1) on
    (1, inf), independent of dimension.  alpha = 1 reduces to the arccos law
    of the planar Cauchy process; alpha = 2 degenerates to the sphere itself.
    For other alpha the exact incomplete-beta inversion seeds a 4096-knot
    monotone-cubic quantile table in log-log coordinates (power-law tails at
    both the ball surface and infinity make that chart nearly linear).  The
    table keeps the knots and coefficients of SciPy's PchipInterpolator; its
    knots are uniform in logit, so a lookup finds its interval by a direct
    index and evaluates PPoly's sum in PPoly's order, bitwise equal to the
    interpolator's own evaluation.
    """

    _TABLE_KNOTS = 4096
    _V_MIN = 2.0 ** -40
    _V_MAX = 1.0 - 1e-9

    def __init__(self, alpha: float):
        if not 0.0 < alpha <= 2.0:
            raise ValueError("alpha must lie in (0, 2]")
        self.alpha = float(alpha)
        if self.alpha not in (1.0, 2.0):
            from scipy.interpolate import PchipInterpolator

            # logit chart: log(q - 1) is asymptotically linear in logit(v) at
            # both the ball surface (v -> 1) and the heavy tail (v -> 0)
            logit = np.linspace(math.log(self._V_MIN),
                                -math.log1p(-self._V_MAX), self._TABLE_KNOTS)
            v = 1.0 / (1.0 + np.exp(-logit))
            t = betaincinv(0.5 * self.alpha, 1.0 - 0.5 * self.alpha, v)
            q = 1.0 / np.sqrt(np.clip(t, 1e-300, 1.0))
            table = PchipInterpolator(
                logit, np.log(np.maximum(q - 1.0, 1e-300)), extrapolate=True)
            # knots x and per-interval coefficient rows c[0] (cubic) .. c[3]
            self._knots, self._coeffs = table.x, table.c
            self._knot_step = (table.x[-1] - table.x[0]) / (table.x.size - 1)

    def _log_excess(self, z: np.ndarray) -> np.ndarray:
        """The quantile table's log(q - 1) at logits z (1-D), bitwise as PPoly.

        z's interval i has x[i] <= z < x[i + 1], the last one closed, and
        rows beyond either end take the end interval.  The direct index
        (z - x[0]) / step is within one of i, so one compare on each side
        settles it.  The value is PPoly's sum c3 + c2 s + c1 s^2 + c0 s^3,
        summed and with its powers built in PPoly's order.
        """
        x, c = self._knots, self._coeffs
        last = x.size - 2
        f = z - x[0]
        f /= self._knot_step
        i = np.fmin(np.fmax(f, 0.0, out=f), last, out=f).astype(np.intp)  # nan -> 0
        i -= z < x.take(i)
        i += z >= x.take(i + 1)
        np.minimum(np.maximum(i, 0, out=i), last, out=i)
        s = np.subtract(z, x.take(i), out=f)
        out = c[3].take(i)
        term = c[2].take(i)
        term *= s
        out += term
        np.multiply(s, s, out=term)  # s^2; s^3 then goes into s, so few arrays are live
        s *= term
        term *= c[1].take(i)
        out += term
        s *= c[0].take(i)
        out += s
        return out

    def factor(self, u: np.ndarray) -> np.ndarray:
        """Map uniforms in [0, 1) to rho/s via the inverse CDF."""
        u = np.asarray(u, dtype=float)
        if self.alpha == 2.0:
            return np.ones_like(u)
        if self.alpha == 1.0:
            return 1.0 / np.maximum(np.cos(0.5 * np.pi * u), 1e-300)
        v = np.clip(1.0 - u.ravel(), self._V_MIN, self._V_MAX)
        z = np.log(v)
        z -= np.log1p(-v)
        del v  # the table's temporaries take its place
        out = self._log_excess(z)
        np.exp(out, out=out)
        out += 1.0
        return out.reshape(u.shape)

    def factor_exact(self, u: np.ndarray) -> np.ndarray:
        """Table-free inversion; the oracle the table is validated against."""
        u = np.asarray(u, dtype=float)
        if self.alpha == 2.0:
            return np.ones_like(u)
        t = betaincinv(0.5 * self.alpha, 1.0 - 0.5 * self.alpha, 1.0 - u)
        return 1.0 / np.sqrt(np.maximum(t, 1e-300))

    def cdf(self, q) -> np.ndarray:
        """P(exit radius <= q * s)."""
        q = np.asarray(q, dtype=float)
        out = np.zeros_like(q)
        far = q > 1.0
        if self.alpha == 2.0:
            return (q >= 1.0).astype(float)
        if self.alpha == 1.0:
            out[far] = (2.0 / np.pi) * np.arccos(1.0 / q[far])
        else:
            out[far] = 1.0 - betainc(0.5 * self.alpha, 1.0 - 0.5 * self.alpha,
                                     1.0 / q[far] ** 2)
        return out


@functools.lru_cache(maxsize=32)
def _exit_law(alpha: float) -> ExitRadiusLaw:
    """One ExitRadiusLaw per alpha: its quantile table costs milliseconds to build."""
    return ExitRadiusLaw(alpha)


def _uniform_width(dim: int) -> int:
    if dim == 2:
        return 2
    if dim == 3:
        return 3
    return 1 + 2 * ((dim + 1) // 2)


def _uniform_block(seed: int, stream: int, batch_start: int, step: int,
                   width: int, n: int, gen: Generator | None = None) -> np.ndarray:
    """(width, n) uniforms at Philox counter (step, batch_start) under key (seed, stream).

    gen, if given, is a Generator over a Philox bit generator; its state is
    reset to that counter, so one generator serves every step of a batch.
    """
    if gen is None:
        gen = Generator(Philox(0))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.array([0, batch_start, step, 0], dtype=np.uint64),
                  "key": np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)},
        "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0}
    return gen.random((width, n))


def _turn_table(knots: int):
    """cos and sin of the mid-knot angles 2 pi (k + 1/2) / knots, k < knots.

    Only the first octant's angles are rounded and passed to np.cos and
    np.sin; the other octants are its exact reflections, so every entry is
    within an ulp or so of the true value.
    """
    a = (2.0 * math.pi / knots) * (np.arange(knots // 8) + 0.5)
    c, s = np.cos(a), np.sin(a)
    c, s = np.concatenate([c, s[::-1]]), np.concatenate([s, c[::-1]])  # first quadrant
    return np.concatenate([c, -s, -c, s]), np.concatenate([s, c, -s, -c])


_TURN_KNOTS = 4096
_TURN_COS, _TURN_SIN = _turn_table(_TURN_KNOTS)
_TURN_H = 2.0 * math.pi / _TURN_KNOTS
# the remainder series in e = d / _TURN_H: cos d = 1 + e^2 (C2 + C4 e^2), sin d = e (H + S3 e^2)
_TURN_C2, _TURN_C4, _TURN_S3 = -0.5 * _TURN_H ** 2, _TURN_H ** 4 / 24.0, -_TURN_H ** 3 / 6.0


def _cos_sin_turns(u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write cos(2 pi u) and sin(2 pi u) into the rows out[0] and out[1], for 1-D u in [0, 1).

    k = floor(4096 u) picks the table's mid-knot angle a_k = 2 pi (k + 1/2) / 4096,
    and e = 4096 u - k - 1/2 in [-1/2, 1/2) is exact, since u is a multiple of
    2^-53.  The remainder d = 2 pi e / 4096, |d| <= pi / 4096, rotates a_k by
    cos d = 1 + d^2 (-1/2 + d^2 / 24) and sin d = d (1 - d^2 / 6), whose next
    terms are below 3e-18.  The result is within 1e-15 of cos and sin, and
    every row's bits depend on its own u only.  It takes only adds,
    multiplies and table reads, each a vectorised numpy loop, where numpy's
    float64 cos and sin each cost several times more per element.
    """
    e = np.multiply(u, float(_TURN_KNOTS), out=out[1])  # out is workspace until the table reads
    k = e.astype(np.intp)
    e -= k
    e -= 0.5
    sd = e * e
    cd = np.multiply(sd, _TURN_C4)  # cd = cos d, from cos d - 1
    cd += _TURN_C2
    cd *= sd
    cd += 1.0
    sd *= _TURN_S3  # sd = sin d
    sd += _TURN_H
    sd *= e
    # k < 4096 always; "clip" lets take write into out without a buffered copy
    c = _TURN_COS.take(k, out=out[0], mode="clip")
    s = _TURN_SIN.take(k, out=out[1], mode="clip")
    del k  # freed for the rotation's one temporary
    # the rotation c cd - s sd, s cd + c sd, in place
    e = s * sd
    sd *= c
    c *= cd
    c -= e
    s *= cd
    s += sd
    return out


def _directions(uni: np.ndarray, dim: int) -> np.ndarray:
    """Unit vectors as (dim, n) coordinate rows, from the uniform rows after the radial draw."""
    n = uni.shape[1]
    if dim == 2:
        return _cos_sin_turns(uni[0], np.empty((2, n)))
    if dim == 3:
        out = np.empty((3, n))
        z = np.multiply(2.0, uni[0], out=out[2])
        z -= 1.0
        r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        _cos_sin_turns(uni[1], out[:2])
        out[:2] *= r
        return out
    pairs = (dim + 1) // 2
    g = np.empty((2 * pairs, n))
    for i in range(pairs):
        u1 = np.maximum(uni[2 * i], 1e-300)
        r = np.sqrt(-2.0 * np.log(u1))
        _cos_sin_turns(uni[2 * i + 1], g[2 * i:2 * i + 2])
        g[2 * i:2 * i + 2] *= r
    g = g[:dim]
    return g / np.maximum(np.linalg.norm(g, axis=0), 1e-300)


def sample_exit(ball: BallSpec, p: StableParams, rng: Generator):
    """One exit-position sample from the centre of the ball.

    The walk itself derives randomness from counter-based substreams; this is
    the standalone sampler for the same law.
    """
    law = _exit_law(p.alpha)
    width = _uniform_width(p.dim)
    u = rng.random(width).reshape(width, 1)
    rho = float(ball.radius * law.factor(u[0])[0])
    direction = _directions(u[1:], p.dim)[:, 0]
    return np.asarray(ball.center, dtype=float) + rho * direction


def _run_batch(dom, p, pos0, delta0, cfg, stream, batch_start, law, width,
               collect_finals, group_of=None, n_groups=1):
    """Advance one batch of walks to termination.

    pos0 holds each walk's start and delta0 its boundary distance, which the
    caller has already queried; later steps use the domain's step_distance,
    a certified lower bound of the distance away from the boundary.
    group_of (optional) maps walks to result groups.  Returns per-group
    (sum_t, sum_t^2, truncated, steps) arrays plus the final exit points
    when requested.

    Only live walks are carried: ids maps them to walk indices in increasing
    order, and at step k the j-th live walk reads column j of the step's
    (width, n_live) uniform block.  Positions are held as (dim, n_live)
    coordinate rows.  A walk's time and step count are written back when it
    exits; walks still live after cfg.max_steps keep their accrued time and
    count as truncated.
    """
    batch_size, dim = pos0.shape
    tacc = np.zeros(batch_size)
    steps = np.full(batch_size, cfg.max_steps, dtype=np.int64)
    finals = np.full((batch_size, dim), np.nan) if collect_finals else None
    ids = np.arange(batch_size)
    pos = np.array(np.transpose(pos0), dtype=float, order="C")
    # the step distance is carried forward so each round queries it once
    delta = np.array(delta0, dtype=float)
    t = np.zeros(batch_size)
    cb = ball_exit_constant(p)
    exit_cut = _SHELL if p.alpha == 2.0 else 1e-12
    gen = Generator(Philox(0))  # reset to each step's counter by _uniform_block
    for k in range(cfg.max_steps):
        if ids.size == 0:
            break
        uni = _uniform_block(cfg.seed, stream, batch_start, k, width, ids.size, gen)
        s = cfg.ball_fraction * delta
        t += cb * s ** p.alpha
        rho = s * law.factor(uni[0])
        pos += _directions(uni[1:], dim) * rho
        delta = dom.step_distance(pos.T, exit_cut)
        exited = delta <= exit_cut
        gone = np.flatnonzero(exited)
        if gone.size:
            done = ids.take(gone)
            tacc[done] = t.take(gone)
            steps[done] = k + 1
            if collect_finals:
                finals[done] = pos.take(gone, axis=1).T
            live = np.flatnonzero(~exited)
            ids, delta, t = ids.take(live), delta.take(live), t.take(live)
            pos = pos.take(live, axis=1)
            del live  # freed before the next round's temporaries
    tacc[ids] = t  # truncated walks keep their accrued time
    if group_of is None:
        sums = (np.array([tacc.sum()]), np.array([np.dot(tacc, tacc)]),
                np.array([ids.size]), np.array([steps.sum()]))
    else:
        sums = (np.bincount(group_of, weights=tacc, minlength=n_groups),
                np.bincount(group_of, weights=tacc * tacc, minlength=n_groups),
                np.bincount(group_of[ids], minlength=n_groups),
                np.bincount(group_of, weights=steps, minlength=n_groups))
    return sums, finals


def _parallel_map(fn, items, n_threads: int) -> list:
    """[fn(i) for i in items], on a pool when n_threads > 1 and len(items) > 1."""
    if n_threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            return list(pool.map(fn, items))
    return [fn(i) for i in items]


def _walk_starts(dom, p, starts, cfg, stream, n_threads, collect_finals=False, deltas=None):
    """cfg.n_walks walks from each row of starts; walk i starts from row i // n_walks.

    Batches of _BATCH walks go through _parallel_map and merge in batch
    order, so results do not depend on n_threads.  deltas are the rows'
    boundary distances; if omitted they are queried and every row must lie
    inside.  Returns per-row mean, std_error, truncated and mean_steps
    arrays, and the exit points in walk order if collect_finals.
    """
    n_starts, dim = starts.shape
    if dim != dom.dim or dim != p.dim:
        raise PointOutsideError(f"start points have {dim} coordinates, but the domain "
                                f"has dimension {dom.dim} and the process {p.dim}")
    if deltas is None:
        deltas = dom.boundary_distance_batch(starts)
        if not np.all(deltas > _BOUNDARY_TOL):
            raise PointOutsideError(
                f"start point {starts[np.argmin(deltas)].tolist()} lies outside the domain")
    nw = cfg.n_walks
    total = n_starts * nw

    def batch(lo):  # lo, the batch's first walk, is its batch_start
        gid = np.arange(lo, min(lo + _BATCH, total)) // nw
        # a single start keeps the ungrouped reduction and its pairwise sum
        return _run_batch(dom, p, starts[gid], deltas[gid], cfg, stream, lo,
                          _exit_law(p.alpha), _uniform_width(dim), collect_finals,
                          None if n_starts == 1 else gid, n_starts)

    results = _parallel_map(batch, range(0, total, _BATCH), n_threads)
    sums = np.zeros((4, n_starts))
    for batch_sums, _ in results:  # merged in batch order
        sums += batch_sums
    tsum, t2sum, truncated, steps = sums
    mean = tsum / nw
    var = np.maximum(t2sum - nw * mean * mean, 0.0) / max(nw - 1, 1)
    finals = np.concatenate([f for _, f in results]) if collect_finals else None
    return mean, np.sqrt(var / nw), truncated, steps / nw, finals


def estimate_phi(dom, p: StableParams, x, cfg: WalkConfig, *, stream: int = 0,
                 n_threads: int = 1, return_final_points: bool = False):
    """Monte Carlo estimate of the expected exit time from x.

    Reproducible: the result is a deterministic function of
    (dom, p, x, cfg, stream) regardless of n_threads.
    """
    mean, err, truncated, steps, finals = _walk_starts(
        dom, p, np.asarray(x, dtype=float).reshape(1, -1), cfg, stream, n_threads,
        return_final_points)
    est = WalkEstimate(float(mean[0]), float(err[0]), cfg.n_walks, int(truncated[0]),
                       float(steps[0]))
    return (est, finals) if return_final_points else est


# -- gridded field -------------------------------------------------------------------

_N_SECTORS = 32
_FIT_BAND = (2.0, 6.0)   # blend fit uses reliable nodes with delta/spacing in this band


class PhiField:
    """Gridded exit-time field with a sqrt-distance boundary blend.

    Values on lattice nodes deeper than twice the spacing come from the Monte
    Carlo estimator; inside that collar the field follows c(y*) sqrt(delta)
    with a per-sector coefficient fitted to the nearest reliable nodes (plus a
    second-order delta^(3/2) term).  Evaluation is bicubic
    between reliable nodes, the blend profile in the collar, and zero outside.
    foot, if given, is build_field's (distance, angle) query of the node grid.
    """

    def __init__(self, dom: SupportDomain, alpha: float, origin, spacing: float,
                 values: np.ndarray, stderr: np.ndarray, blend_c: np.ndarray,
                 blend_c2: np.ndarray, blend_c_err: np.ndarray,
                 domain_ref: str = "builtin:unknown", foot=None):
        from scipy.interpolate import RectBivariateSpline

        self.dom = dom
        self.alpha = float(alpha)
        self.origin = np.asarray(origin, dtype=float)
        self.spacing = float(spacing)
        self.values = np.asarray(values, dtype=float)
        self.stderr = np.asarray(stderr, dtype=float)
        self.blend_c = np.asarray(blend_c, dtype=float)
        self.blend_c2 = np.asarray(blend_c2, dtype=float)
        self.blend_c_err = np.asarray(blend_c_err, dtype=float)
        self.domain_ref = domain_ref
        self.collar = 2.0 * self.spacing
        nx, ny = self.values.shape
        xs = self.origin[0] + self.spacing * np.arange(nx)
        ys = self.origin[1] + self.spacing * np.arange(ny)
        grid = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
        d, theta = dom._signed_distance_foot(grid) if foot is None else foot
        d = d.reshape(nx, ny)
        theta = theta.reshape(nx, ny)
        self.node_delta = d
        self.reliable = d > self.collar
        filled = np.where(self.reliable, self.values, self._blend(theta, d))
        self._spline = RectBivariateSpline(xs, ys, filled, kx=3, ky=3)
        self._err_spline = RectBivariateSpline(
            xs, ys, np.where(self.reliable, self.stderr, 0.0), kx=1, ky=1)

    @property
    def sector_thetas(self) -> np.ndarray:
        k = np.arange(self.blend_c.size)
        return (k + 0.5) * 2.0 * np.pi / self.blend_c.size

    def _sector_interp(self, coeffs, theta):
        """Periodic linear interpolation of per-sector coefficients."""
        n = coeffs.size
        pos = theta * n / (2.0 * np.pi) - 0.5
        k0 = np.floor(pos).astype(int)
        frac = pos - k0
        return (1 - frac) * coeffs[k0 % n] + frac * coeffs[(k0 + 1) % n]

    def _blend(self, theta, delta):
        d = np.maximum(delta, 0.0)
        c = self._sector_interp(self.blend_c, theta)
        c2 = self._sector_interp(self.blend_c2, theta)
        return c * np.sqrt(d) + c2 * d ** 1.5

    def _foot(self, pts):
        """(distance, angle) of pts as the reads use them.

        Rows whose lower distance bound exceeds the collar read the splines,
        which use neither the distance nor the angle, so they keep the bound
        and angle 0 and only the other rows query the oracle; every read is
        that of the all-rows query.
        """
        d = self.dom.lower_distance(pts)
        theta = np.zeros(len(pts))
        near = np.nonzero(d <= self.collar)[0]
        d[near], theta[near] = self.dom._signed_distance_foot(pts.take(near, axis=0))
        return d, theta

    def _read(self, pts, foot, in_collar, deep):
        """in_collar(theta, d) on collar rows, deep(x1, x2) on rows deeper than the
        collar and zero outside the domain; foot as in values_at."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        d, theta = self._foot(pts) if foot is None else foot
        out = np.zeros(len(pts))
        rows = np.flatnonzero((d > 0) & (d <= self.collar))
        if rows.size:
            out[rows] = in_collar(theta.take(rows), d.take(rows))
        rows = np.flatnonzero(d > self.collar)
        if rows.size:
            out[rows] = deep(*pts.take(rows, axis=0).T)
        return out

    def values_at(self, pts, foot=None) -> np.ndarray:
        """Field values; foot is the (distance, angle) query of pts if already made."""
        return self._read(pts, foot, self._blend, self._spline.ev)

    def stderr_at(self, pts, foot=None) -> np.ndarray:
        """Error bars of values_at; foot as there."""
        return self._read(
            pts, foot,
            lambda theta, d: self._sector_interp(self.blend_c_err, theta) * np.sqrt(d),
            lambda x1, x2: np.abs(self._err_spline.ev(x1, x2)))

    def values_and_stderr_at(self, pts):
        """(values_at(pts), stderr_at(pts)) from one distance query."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        foot = self._foot(pts)
        return self.values_at(pts, foot), self.stderr_at(pts, foot)

    def slab_hessian(self, xy, depth):
        """(phi_11, phi_22, phi_12) and the six entry errors at an interior point.

        Five-point second differences of the field with step max(1e-3,
        2 spacing), capped at 0.45 depth (the point's distance to the
        boundary) to keep the stencil inside the domain.  The errors bound
        the stencil's Monte Carlo noise; the 13 and 23 entries vanish.
        """
        h = min(max(1e-3, 2.0 * self.spacing), 0.45 * depth)
        x0, y0 = xy
        pts = np.array([
            [x0, y0], [x0 + h, y0], [x0 - h, y0], [x0, y0 + h], [x0, y0 - h],
            [x0 + h, y0 + h], [x0 + h, y0 - h], [x0 - h, y0 + h], [x0 - h, y0 - h],
        ])
        v, v_err = self.values_and_stderr_at(pts)
        h11 = (v[1] - 2 * v[0] + v[2]) / h ** 2
        h22 = (v[3] - 2 * v[0] + v[4]) / h ** 2
        h12 = (v[5] - v[6] - v[7] + v[8]) / (4 * h ** 2)
        noise = 4.0 * float(np.max(v_err)) / h ** 2
        err = np.full(6, noise)
        err[2] = 2 * noise
        err[4] = err[5] = 0.0
        return float(h11), float(h22), float(h12), err

    def typical_stderr(self) -> float:
        if np.any(self.reliable):
            return float(np.mean(self.stderr[self.reliable]))
        return 0.0


def build_field(dom: SupportDomain, p: StableParams, spacing: float,
                cfg: WalkConfig, *, n_threads: int = 1,
                domain_ref: str = "builtin:unknown") -> PhiField:
    """Estimate the exit-time field on a lattice and fit the boundary blend.

    cfg.n_walks is the per-node walk budget.  All nodes run in one grouped
    simulation (walk i belongs to node i // n_walks), so fields are
    reproducible and independent of n_threads.  Raises GridTooCoarseError
    when the lattice has fewer than 100 interior nodes, or no reliable node
    in the band where the boundary blend is fitted.
    """
    if not spacing > 0:
        raise ValueError(f"spacing must be positive, got {spacing:g}")
    half = dom.max_support() + spacing
    n_side = int(math.ceil(2 * half / spacing)) + 1
    origin = np.array([-half, -half])
    xs = origin[0] + spacing * np.arange(n_side)
    ys = origin[1] + spacing * np.arange(n_side)
    grid = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    d, theta = dom._signed_distance_foot(grid)
    interior = d > 0
    if int(np.count_nonzero(interior)) < 100:
        raise GridTooCoarseError(
            f"spacing {spacing:g} leaves {int(np.count_nonzero(interior))} interior nodes")
    reliable_idx = np.nonzero(d > 2.0 * spacing)[0]
    means, errs, _, _, _ = _walk_starts(dom, p, grid[reliable_idx], cfg, 1, n_threads,
                                        deltas=d[reliable_idx])

    values = np.zeros(grid.shape[0])
    stderr = np.zeros(grid.shape[0])
    values[reliable_idx] = means
    stderr[reliable_idx] = errs
    blend_c, blend_c2, blend_err = _fit_blend(d, theta, values, stderr,
                                              reliable_idx, spacing)
    return PhiField(dom, p.alpha, origin, spacing,
                    values.reshape(n_side, n_side), stderr.reshape(n_side, n_side),
                    blend_c, blend_c2, blend_err, domain_ref=domain_ref, foot=(d, theta))


def _fit_blend(d, theta, values, stderr, reliable_idx, spacing):
    """Per-sector weighted fit of value ~ c sqrt(delta) + c2 delta^(3/2).

    Each sector pools its neighbours; weights combine the Monte Carlo noise
    with a delta^(5/2) model-error allowance so deep nodes cannot drag the
    extrapolation toward the boundary off course.
    """
    lo, hi = _FIT_BAND[0] * spacing, _FIT_BAND[1] * spacing
    band = reliable_idx[(d[reliable_idx] > lo) & (d[reliable_idx] <= hi)]
    if band.size == 0:
        raise GridTooCoarseError(
            f"spacing {spacing:g} leaves no node {_FIT_BAND[0]:g} to {_FIT_BAND[1]:g} "
            "spacings deep to fit the boundary blend")
    sector = np.floor(theta[band] * _N_SECTORS / (2 * np.pi)).astype(int) % _N_SECTORS
    c = np.zeros(_N_SECTORS)
    c2 = np.zeros(_N_SECTORS)
    cerr = np.zeros(_N_SECTORS)
    for k in range(_N_SECTORS):
        widen = 1
        rows = np.empty(0, dtype=np.int64)
        while rows.size < 6 and widen <= _N_SECTORS // 2:
            near = (np.minimum((sector - k) % _N_SECTORS,
                               (k - sector) % _N_SECTORS) <= widen)
            rows = band[near]
            widen += 1
        dd = d[rows]
        basis = np.stack([np.sqrt(dd), dd ** 1.5], axis=1)
        w = 1.0 / (np.maximum(stderr[rows], 1e-12) + 0.05 * dd ** 2.5)
        sol, *_ = np.linalg.lstsq(basis * w[:, None], values[rows] * w, rcond=None)
        c[k], c2[k] = sol
        resid = values[rows] - basis @ sol
        scatter = float(np.sqrt(np.mean(resid ** 2))) / math.sqrt(max(rows.size, 1))
        cerr[k] = scatter / math.sqrt(float(np.mean(dd))) + float(
            np.mean(stderr[rows] / np.sqrt(dd)))
    return c, c2, cerr


# -- phifield v2 files -----------------------------------------------------------------

def save_field(field: PhiField, path) -> None:
    nx, ny = field.values.shape
    with open(path, "w") as fh:
        fh.write("phifield v2\n")
        fh.write(f"domain={field.domain_ref}\n")
        fh.write(f"alpha={field.alpha:.17g}\n")
        fh.write(f"spacing={field.spacing:.17g}\n")
        fh.write(f"origin={field.origin[0]:.17g} {field.origin[1]:.17g}\n")
        fh.write(f"shape={nx} {ny}\n")
        idx = np.argwhere(field.reliable)
        fh.write(f"nodes={len(idx)}\n")
        for i, j in idx:
            fh.write(f"{i} {j} {field.values[i, j]:.17g} {field.stderr[i, j]:.17g}\n")
        fh.write(f"blend={field.blend_c.size}\n")
        for row in zip(field.sector_thetas, field.blend_c, field.blend_c2, field.blend_c_err):
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def load_field(path, dom: SupportDomain | None = None) -> PhiField:
    """Load a `phifield v2` file; the reloaded field evaluates bitwise as saved.

    The node lines must list each node of the reloaded field's reliable mask
    once, and no other node.

    If dom is not given the domain reference is resolved:
    `builtin:...` specs directly, anything else as a path relative to the
    field file.
    """
    import os

    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if lines[:1] == ["phifield v1"]:
        raise DomainFileError(f"{path}: phifield v1 files lack the full boundary blend "
                              "and are no longer read; rebuild the field with field-build")
    if lines[:1] != ["phifield v2"]:
        raise DomainFileError(f"{path}: not a phifield v2 file")

    def field_line(i, key):
        if not lines[i].startswith(key + "="):
            raise DomainFileError(f"{path}: expected {key}= on line {i + 1}")
        return lines[i].split("=", 1)[1]

    try:
        domain_ref = field_line(1, "domain")
        alpha = float(field_line(2, "alpha"))
        spacing = float(field_line(3, "spacing"))
        origin = np.array([float(t) for t in field_line(4, "origin").split()])
        nx, ny = (int(t) for t in field_line(5, "shape").split())
        n_nodes = int(field_line(6, "nodes"))
        if origin.shape != (2,):
            raise ValueError("origin needs two coordinates")
        values = np.zeros((nx, ny))
        stderr = np.zeros((nx, ny))
        listed = np.zeros((nx, ny), dtype=bool)
        for row in range(7, 7 + n_nodes):
            i, j, v, s = lines[row].split()
            i, j = int(i), int(j)
            if not (0 <= i < nx and 0 <= j < ny):
                raise ValueError(f"node ({i}, {j}) on line {row + 1} lies outside shape={nx} {ny}")
            if listed[i, j]:
                raise ValueError(f"node ({i}, {j}) on line {row + 1} is listed twice")
            listed[i, j] = True
            values[i, j] = float(v)
            stderr[i, j] = float(s)
        row = 7 + n_nodes
        n_blend = int(field_line(row, "blend"))
        if n_blend < 1:
            raise ValueError("the blend needs at least one sector")
        blend = np.array([[float(t) for t in lines[row + 1 + k].split()[1:]]
                          for k in range(n_blend)]).reshape(n_blend, 3)
    except (ValueError, IndexError) as exc:
        raise DomainFileError(f"{path}: malformed or truncated phifield v2 file ({exc})") from exc
    if dom is None:
        if domain_ref.startswith("builtin:"):
            try:
                dom = builtin_domain(domain_ref.split(":", 1)[1])
            except ValueError as exc:
                raise DomainFileError(f"{path}: {exc}") from exc
        else:
            dom = load_domain(os.path.join(os.path.dirname(os.path.abspath(path)),
                                           domain_ref))
    field = PhiField(dom, alpha, origin, spacing, values, stderr, *blend.T,
                     domain_ref=domain_ref)
    if not np.array_equal(listed, field.reliable):
        i, j = np.argwhere(listed != field.reliable)[0]
        raise DomainFileError(f"{path}: the node lines must list exactly the field's reliable "
                              f"nodes, but node ({i}, {j}) is "
                              + ("listed and not reliable" if listed[i, j] else
                                 "reliable and not listed"))
    return field
