"""Kernel-exact walk-on-spheres for symmetric stable processes.

Each step sits at a point x inside the domain, inscribes the ball
B(x, kappa * r) for a step distance 0 < r <= delta_D(x), with the walk's
constant kappa = _BALL_FRACTION = 1/2, banks the ball's exact mean exit time
C_B (kappa r)^alpha, and jumps to a sample of the ball's exit law.  Any
centred ball inside D gives an exact step, so the estimator is unbiased for
every such r.  The domain supplies r (step_distance): on a
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
bitwise reproducible.  Up to _RUN consecutive batches of a call form a run:
each batch advances alone until few of its walks are live, and the parked
tails then share rounds, each batch still drawing its own block at its own
step (_run_batch), so the sharing changes no walk's uniforms.  The walks
run on the calling thread.

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
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import betainc, betaincinv

from .closedform import StableParams, ball_exit_constant
from .errors import DomainFileError, GridTooCoarseError, PointOutsideError
from .geom import _BOUNDARY_TOL, SupportDomain, builtin_domain, load_domain

_BATCH = 16384
_RUN = 8  # batches advanced together: a run's per-walk state stays about 2 MB
_SHELL = 1e-8  # absorption shell of the alpha = 2 walks
_BALL_FRACTION = 0.5  # kappa: each step's ball has radius kappa times its step distance
_MAX_STEPS = 10_000  # walks still live after this many steps are truncated


@dataclass(frozen=True)
class WalkConfig:
    n_walks: int
    seed: int = 0

    def __post_init__(self):
        if self.n_walks < 1:
            raise ValueError("n_walks must be >= 1")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")


@dataclass(frozen=True)
class WalkEstimate:
    mean: float
    std_error: float
    n_walks: int
    truncated: int
    mean_steps: float


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
                  "key": np.array([seed, stream], dtype=np.uint64)},
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


def _run_batch(dom, p, pos0, delta0, cfg, stream, batch_start, collect_finals,
               group_of=None, n_groups=1):
    """Advance a run of consecutive batches of walks to termination.

    pos0 holds one start row per walk and delta0 its boundary distance, which
    the caller has already queried (either may be a broadcast view or a
    _RunRows, which is read one batch slice at a time); later
    steps use the domain's step_distance, a certified lower bound of the
    distance away from the boundary.  Walks b _BATCH to (b + 1) _BATCH - 1 of
    the run form its batch b, whose Philox counters start at
    batch_start + b _BATCH.  group_of (optional) maps walks to result groups.
    Returns an array of shape (4, n_batches, n_groups): each batch's per-group
    sum_t, sum_t^2, truncated walks and steps, which the caller adds up in
    batch order; plus the final exit points when requested.

    Only live walks are carried: ids maps them to walk indices in increasing
    order, and each batch at its step k draws a (width, n_live) uniform block
    whose column j its j-th live walk reads.  Positions are held as
    (dim, n_live) coordinate rows.  Each batch first advances alone until at
    most _BATCH // n_batches of its walks are live and is then parked; the
    parked tails then advance as one live set, in batch order, each batch at
    its own step counter.  So no round holds more than _BATCH rows, and every
    walk reads the uniforms it would read in a batch of its own.  A walk's
    time and step count are written back when it exits; walks still live
    after _MAX_STEPS steps keep their accrued time and count as truncated.
    """
    n, dim = pos0.shape
    n_batches = -(-n // _BATCH)
    tacc = np.zeros(n)
    steps = np.zeros(n, dtype=np.int64)
    truncated = np.zeros(n, dtype=bool)
    finals = np.full((n, dim), np.nan) if collect_finals else None
    law, width = _exit_law(p.alpha), _uniform_width(dim)
    cb = ball_exit_constant(p)
    exit_cut = _SHELL if p.alpha == 2.0 else 1e-12
    gen = Generator(Philox(0))  # reset to each block's counter by _uniform_block
    firsts = np.arange(n_batches + 1) * _BATCH  # each batch's first walk
    k = [0] * n_batches  # steps each batch has taken

    def advance(ids, pos, delta, t, until):
        """Step the live walks until at most `until` are live, and return them.
        A walk adds the rounds taken here to its steps when it leaves the live
        set, or at the end if it is still live.  The step distance is carried
        forward so each round queries it once."""
        off = np.searchsorted(ids, firsts).tolist()  # each batch's first live row
        r = 0
        while ids.size > until:
            r += 1
            blocks, capped = [], []
            for b in range(n_batches):
                if off[b + 1] > off[b]:
                    blocks.append(_uniform_block(cfg.seed, stream, batch_start + b * _BATCH,
                                                 k[b], width, off[b + 1] - off[b], gen))
                    k[b] += 1
                    if k[b] == _MAX_STEPS:
                        capped.append(b)
            uni = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)
            s = _BALL_FRACTION * delta
            t += cb * s ** p.alpha
            rho = s * law.factor(uni[0])
            pos += _directions(uni[1:], dim) * rho
            delta = dom.step_distance(pos.T, exit_cut)
            leave = delta <= exit_cut
            if collect_finals:
                gone = np.flatnonzero(leave)
                finals[ids.take(gone)] = pos.take(gone, axis=1).T
            for b in capped:  # its walks still live leave truncated, with their accrued time
                rows = slice(off[b], off[b + 1])
                truncated[ids[rows][~leave[rows]]] = True
                leave[rows] = True
            gone = np.flatnonzero(leave)
            if gone.size:
                done = ids.take(gone)
                tacc[done] = t.take(gone)
                steps[done] += r
                live = np.flatnonzero(~leave)
                ids, delta, t = ids.take(live), delta.take(live), t.take(live)
                pos = pos.take(live, axis=1)
                del live  # freed before the next round's temporaries
                off = np.searchsorted(ids, firsts).tolist()
        if r:
            steps[ids] += r
        return ids, pos, delta, t

    parked = []
    for b in range(n_batches):  # each batch's start rows are built when it starts
        lo, hi = firsts[b], min(firsts[b + 1], n)
        parked.append(advance(np.arange(lo, hi), np.array(pos0[lo:hi].T, dtype=float, order="C"),
                              np.array(delta0[lo:hi], dtype=float), np.zeros(hi - lo),
                              _BATCH // n_batches))
    tail = parked[0] if n_batches == 1 else [np.concatenate(a, axis=-1) for a in zip(*parked)]
    del parked
    advance(*tail, 0)

    sums = np.empty((4, n_batches, n_groups))
    for b in range(n_batches):
        rows = slice(firsts[b], min(firsts[b + 1], n))
        t, st = tacc[rows], steps[rows]
        if group_of is None:
            sums[:, b, 0] = t.sum(), np.dot(t, t), np.count_nonzero(truncated[rows]), st.sum()
        else:
            g = group_of[rows]
            sums[:, b] = (np.bincount(g, weights=t, minlength=n_groups),
                          np.bincount(g, weights=t * t, minlength=n_groups),
                          np.bincount(g[truncated[rows]], minlength=n_groups),
                          np.bincount(g, weights=st, minlength=n_groups))
    return sums, finals


class _RunRows:
    """The rows src[(lo + i) // n_walks] for the walks i of a run, gathered a
    slice at a time, so that a grouped run copies each batch's start rows,
    distances and group ids only when the batch starts."""

    def __init__(self, src, lo, n, n_walks):
        self.src, self.lo, self.n_walks = src, lo, n_walks
        self.shape = (n,) + src.shape[1:]

    def __len__(self):
        return self.shape[0]

    def __getitem__(self, rows: slice):
        return self.src[np.arange(self.lo + rows.start, self.lo + rows.stop) // self.n_walks]


def _walk_starts(dom, p, starts, cfg, stream, collect_finals=False, deltas=None):
    """cfg.n_walks walks from each row of starts; walk i starts from row i // n_walks.

    Runs of up to _RUN batches of _BATCH walks go through _run_batch, which
    builds each batch's start rows, distances and group ids when the batch
    starts, and the batches' sums are added in batch order.  deltas are the
    rows' boundary distances; if omitted they are queried and every row must
    lie inside.  Returns per-row mean, std_error, truncated and mean_steps
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
    sums = np.zeros((4, n_starts))
    finals = []
    for lo in range(0, total, _RUN * _BATCH):  # lo, the run's first walk, is its batch_start
        n = min(_RUN * _BATCH, total - lo)
        if n_starts == 1:  # one start keeps the ungrouped reduction and its pairwise sum
            gid = None
            pos0, delta0 = np.broadcast_to(starts[0], (n, dim)), np.broadcast_to(deltas[0], (n,))
        else:
            gid, pos0, delta0 = (_RunRows(a, lo, n, nw) for a in (np.arange(n_starts), starts, deltas))
        run_sums, run_finals = _run_batch(dom, p, pos0, delta0, cfg, stream, lo,
                                          collect_finals, gid, n_starts)
        for b in range(run_sums.shape[1]):  # in batch order
            sums += run_sums[:, b]
        finals.append(run_finals)
    tsum, t2sum, truncated, steps = sums
    mean = tsum / nw
    var = np.maximum(t2sum - nw * mean * mean, 0.0) / max(nw - 1, 1)
    finals = np.concatenate(finals) if collect_finals else None
    return mean, np.sqrt(var / nw), truncated, steps / nw, finals


def estimate_phi(dom, p: StableParams, x, cfg: WalkConfig, *, stream: int = 0,
                 n_threads: int = 1, return_final_points: bool = False):
    """Monte Carlo estimate of the expected exit time from x.

    Reproducible: the result is a deterministic function of
    (dom, p, x, cfg, stream).  n_threads has no effect and stays only for
    callers that pass it.
    """
    mean, err, truncated, steps, finals = _walk_starts(
        dom, p, np.asarray(x, dtype=float).reshape(1, -1), cfg, stream, return_final_points)
    est = WalkEstimate(float(mean[0]), float(err[0]), cfg.n_walks, int(truncated[0]),
                       float(steps[0]))
    return (est, finals) if return_final_points else est


# -- gridded field -------------------------------------------------------------------

_N_SECTORS = 32
_COLLAR = 2.0  # nodes deeper than this many spacings are reliable; the rest is the collar
_FIT_BAND = (2.0, 6.0)   # blend fit uses reliable nodes with delta/spacing in this band


def _node_grid(origin, spacing, shape):
    """The lattice's axes xs, ys and its nodes as (nx ny, 2) rows, x-major."""
    xs = origin[0] + spacing * np.arange(shape[0])
    ys = origin[1] + spacing * np.arange(shape[1])
    return xs, ys, np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)


class PhiField:
    """Gridded exit-time field with a sqrt-distance boundary blend.

    Values on lattice nodes deeper than the collar, _COLLAR (2) spacings,
    come from the Monte Carlo estimator; inside the collar the field follows
    c(y*) sqrt(delta) with a per-sector coefficient fitted to the nearest
    reliable nodes (plus a second-order delta^(3/2) term).  blend is the
    (sectors, 3) table of rows (c, c2, c_err), sector k centred on the foot
    angle 2 pi (k + 1/2) / sectors.  Evaluation is bicubic between reliable
    nodes, the blend profile in the collar, and zero outside.
    foot, if given, is build_field's (distance, angle) query of the node grid.
    """

    def __init__(self, dom: SupportDomain, alpha: float, origin, spacing: float,
                 values: np.ndarray, stderr: np.ndarray, blend: np.ndarray,
                 domain_ref: str = "builtin:unknown", foot=None):
        from scipy.interpolate import RectBivariateSpline

        self.dom = dom
        self.alpha = float(alpha)
        self.origin = np.asarray(origin, dtype=float)
        self.spacing = float(spacing)
        self.values = np.asarray(values, dtype=float)
        self.stderr = np.asarray(stderr, dtype=float)
        self.blend = np.asarray(blend, dtype=float)
        self.domain_ref = domain_ref
        self.collar = _COLLAR * self.spacing
        xs, ys, grid = _node_grid(self.origin, self.spacing, self.values.shape)
        d, theta = dom._signed_distance_foot(grid) if foot is None else foot
        d = d.reshape(self.values.shape)
        theta = theta.reshape(self.values.shape)
        self.node_delta = d
        self.reliable = d > self.collar
        filled = np.where(self.reliable, self.values, self._blend(theta, d))
        self._spline = RectBivariateSpline(xs, ys, filled, kx=3, ky=3)
        self._err_spline = RectBivariateSpline(
            xs, ys, np.where(self.reliable, self.stderr, 0.0), kx=1, ky=1)

    def _sector_interp(self, coeffs, theta):
        """Periodic linear interpolation of per-sector coefficients."""
        n = coeffs.size
        pos = theta * n / (2.0 * np.pi) - 0.5
        k0 = np.floor(pos).astype(int)
        frac = pos - k0
        return (1 - frac) * coeffs[k0 % n] + frac * coeffs[(k0 + 1) % n]

    def _blend(self, theta, delta):
        d = np.maximum(delta, 0.0)
        c = self._sector_interp(self.blend[:, 0], theta)
        c2 = self._sector_interp(self.blend[:, 1], theta)
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
            lambda theta, d: self._sector_interp(self.blend[:, 2], theta) * np.sqrt(d),
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

    The lattice is square, with origin (-half, -half) for half = the domain's
    largest support value plus one spacing.  Nodes deeper than the collar
    (_COLLAR spacings) are reliable and each runs cfg.n_walks walks; the
    rest read the blend that _fit_blend fits to them.  All nodes run in one
    grouped simulation (walk i belongs to node i // n_walks, and a node's
    walks may straddle batches and runs), so fields are reproducible.
    n_threads has no effect and stays only for callers that pass it.  Raises
    GridTooCoarseError when the lattice has fewer than 100 interior nodes,
    or no reliable node in the band where the boundary blend is fitted.
    """
    if not spacing > 0:
        raise ValueError(f"spacing must be positive, got {spacing:g}")
    half = dom.max_support() + spacing
    n_side = int(math.ceil(2 * half / spacing)) + 1
    origin = np.array([-half, -half])
    _, _, grid = _node_grid(origin, spacing, (n_side, n_side))
    d, theta = dom._signed_distance_foot(grid)
    interior = d > 0
    if int(np.count_nonzero(interior)) < 100:
        raise GridTooCoarseError(
            f"spacing {spacing:g} leaves {int(np.count_nonzero(interior))} interior nodes")
    reliable_idx = np.nonzero(d > _COLLAR * spacing)[0]
    means, errs, _, _, _ = _walk_starts(dom, p, grid[reliable_idx], cfg, 1,
                                        deltas=d[reliable_idx])

    values = np.zeros(grid.shape[0])
    stderr = np.zeros(grid.shape[0])
    values[reliable_idx] = means
    stderr[reliable_idx] = errs
    blend = _fit_blend(d, theta, values, stderr, reliable_idx, spacing)
    return PhiField(dom, p.alpha, origin, spacing,
                    values.reshape(n_side, n_side), stderr.reshape(n_side, n_side),
                    blend, domain_ref=domain_ref, foot=(d, theta))


def _fit_blend(d, theta, values, stderr, reliable_idx, spacing):
    """Per-sector weighted fit of value ~ c sqrt(delta) + c2 delta^(3/2).

    Returns the (_N_SECTORS, 3) table of rows (c, c2, c_err), the shape the
    field file stores.  Each sector pools its neighbours; weights combine
    the Monte Carlo noise with a delta^(5/2) model-error allowance so deep
    nodes cannot drag the extrapolation toward the boundary off course.
    """
    lo, hi = _FIT_BAND[0] * spacing, _FIT_BAND[1] * spacing
    band = reliable_idx[(d[reliable_idx] > lo) & (d[reliable_idx] <= hi)]
    if band.size == 0:
        raise GridTooCoarseError(
            f"spacing {spacing:g} leaves no node {_FIT_BAND[0]:g} to {_FIT_BAND[1]:g} "
            "spacings deep to fit the boundary blend")
    sector = np.floor(theta[band] * _N_SECTORS / (2 * np.pi)).astype(int) % _N_SECTORS
    table = np.zeros((_N_SECTORS, 3))
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
        table[k, :2] = sol
        resid = values[rows] - basis @ sol
        scatter = float(np.sqrt(np.mean(resid ** 2))) / math.sqrt(max(rows.size, 1))
        table[k, 2] = scatter / math.sqrt(float(np.mean(dd))) + float(
            np.mean(stderr[rows] / np.sqrt(dd)))
    return table


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
        n = len(field.blend)
        fh.write(f"blend={n}\n")
        for k, row in enumerate(field.blend):  # the sector's centre angle, then its row
            fh.write(" ".join(f"{v:.17g}" for v in ((k + 0.5) * 2.0 * np.pi / n, *row)) + "\n")


def load_field(path, dom: SupportDomain | None = None) -> PhiField:
    """Load a `phifield v2` file; the reloaded field evaluates bitwise as saved.

    The node lines must list each node of the reloaded field's reliable mask
    once, and no other node.  Node values and blend rows must be finite, node
    stderrs finite and >= 0, the spacing finite and > 0, and alpha in (0, 2].

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
        checks = {f"alpha={alpha:g} lies outside (0, 2]": 0.0 < alpha <= 2.0,
                  f"spacing={spacing:g} is not finite and > 0": 0.0 < spacing < math.inf,
                  "a node value is not finite": np.isfinite(values).all(),
                  "a node stderr is not finite and >= 0":
                      ((stderr >= 0.0) & (stderr < math.inf)).all(),
                  "a blend row is not finite": np.isfinite(blend).all()}
        for what, ok in checks.items():
            if not ok:
                raise ValueError(what)
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
    field = PhiField(dom, alpha, origin, spacing, values, stderr, blend,
                     domain_ref=domain_ref)
    if not np.array_equal(listed, field.reliable):
        i, j = np.argwhere(listed != field.reliable)[0]
        raise DomainFileError(f"{path}: the node lines must list exactly the field's reliable "
                              f"nodes, but node ({i}, {j}) is "
                              + ("listed and not reliable" if listed[i, j] else
                                 "reliable and not listed"))
    return field
