"""Smooth bounded convex planar domains given by truncated Fourier support functions.

A domain is stored as h(theta) = sum_j a_j cos(j theta) + b_j sin(j theta),
theta in [0, 2pi).  The radius of curvature at the boundary point with outer
normal angle theta is h + h'', so strict convexity is h + h'' > 0.  Minkowski
sums act coefficient-wise on support functions, which makes the deformation
D(t) = (1-t) D + t B(0,1) exact.

The signed distance is min over theta of g = h - x.u, and one query answers
it for every caller (SupportDomain._signed_distance_foot).  Near the boundary
it is found by Newton from a lattice seed and certified by a rolling disk of
radius r0 <= min(h + h'').  Deeper rows, and domains where r0 cannot be made
positive, run a branch and bound over angle cells (_search_foot, which also
fills the lattice): one table of bounds of h + h'', per cell down to one knot
interval, bounds g'' = h + h'' - g on each cell, which drops the cells that
cannot hold the minimum and certifies g'' > 0 where a bracketed Newton
(_bracketed_newton, which the quadrature's polar chart also runs) may finish.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainFileError, NewtonError, NonConvexError, NotInUnitBallError

_CERT_GRID = 4096       # convexity certification grid
_NEWTON_STEPS = 8       # Newton takes at most this many steps, until a step is below ...
_NEWTON_TOL = 1e-8      # ... this (rad)
_TABLE_GRID = 4096      # Hermite-interpolation table for hot-path evaluation
_CONVEXITY_REFINE = 0.01  # refine intervals where h+h'' drops below this
_BOUNDARY_TOL = 1e-12   # points this close to the boundary count as outside
_LATTICE_CELLS = 128    # distance lattice: cells per side of the bounding box
_LATTICE_MARGIN = 1e-9  # the lattice lower bound's allowance for the oracle's error at the nodes
_EXACT_BELOW = 1e-4     # walk rows whose lower bound is at most this query the exact distance
_ROLL_MARGIN = 1e-9     # a certified row's distance lies at least this far below r0
_ROLL_CAP = np.pi / 4   # the certified path's Newton step cap (rad): seeds off the
                        # lattice box can be 0.2 rad off, and a wild step only fails
_SPLIT = 16             # the search splits a cell into this many: three splits of the
                        # circle reach the knots of the Hermite table
_FINE_SPLITS = 4        # at most this many more split a knot cell without a convexity
                        # certificate, on the Hermite table


def _unit(theta):
    theta = np.asarray(theta, dtype=float)
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def _bracketed_newton(fn, theta, lo, hi, what, bisect=False):
    """Per row, the zero of an increasing f in [lo, hi], by Newton from theta.

    fn(theta, rows) returns (f, f') at the angles theta of the rows given by
    their indices into theta.  Each iterate shrinks the bracket by the sign
    of f, and a step that leaves it is replaced by bisection.  A row is done
    when a step is at most _NEWTON_TOL and takes that step's end; rows left
    after _NEWTON_STEPS steps raise NewtonError, naming what, unless bisect:
    then their brackets are halved on the sign of f (_bisect_bracket).
    """
    out = np.empty(len(theta))
    rows = np.arange(len(theta))
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            f, fp = fn(theta, rows)
            lo, hi = np.where(f < 0.0, theta, lo), np.where(f > 0.0, theta, hi)
            new = theta - f / fp
            done = np.abs(new - theta) <= _NEWTON_TOL
            theta = np.where(done | ((new >= lo) & (new <= hi)), new, 0.5 * (lo + hi))
            if done.all():
                out[rows] = theta
                return out
            if done.any():
                out[rows[done]] = theta[done]
                go = ~done
                rows, theta, lo, hi = rows[go], theta[go], lo[go], hi[go]
        if bisect:
            out[rows] = _bisect_bracket(fn, rows, lo, hi, what)
            return out
    raise NewtonError(f"{what}: Newton did not converge on {rows.size} of {out.size} "
                      f"rows in {_NEWTON_STEPS} steps")


def _bisect_bracket(fn, rows, lo, hi, what):
    """The zeros of an increasing f in the brackets [lo, hi], by bisection on
    the sign of f until each bracket is at most _NEWTON_TOL wide; a bracket
    that a NaN keeps wider after 64 halvings raises NewtonError, naming what."""
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        wide = hi - lo > _NEWTON_TOL
        if not wide.any():
            return mid
        f, _ = fn(mid, rows)
        lo = np.where(wide & (f < 0.0), mid, lo)
        hi = np.where(wide & (f >= 0.0), mid, hi)
    raise NewtonError(f"{what}: bisection did not converge on {np.count_nonzero(wide)} rows")


def _project_coeffs(fn, n_modes: int, n_fft: int | None = None) -> np.ndarray:
    n_fft = n_fft or max(8 * n_modes, 1024)
    t = np.linspace(0.0, 2 * np.pi, n_fft, endpoint=False)
    spec = np.fft.rfft(np.asarray(fn(t), dtype=float)) / n_fft
    coeffs = np.zeros((n_modes, 2))
    coeffs[0, 0] = spec[0].real
    coeffs[1:, 0] = 2 * spec[1:n_modes].real
    coeffs[1:, 1] = -2 * spec[1:n_modes].imag
    return coeffs


class SupportDomain:
    """A strictly convex planar domain with the origin strictly inside.

    Immutable after construction; all operations are pure, so instances are
    safe to share across threads.  The distance lattice behind the distance
    bounds is built on first use, under a lock, and then only read.
    """

    dim = 2

    def __init__(self, coeffs: np.ndarray):
        coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
        if coeffs.shape[1] != 2:
            raise ValueError("coeffs must have shape (n_modes, 2)")
        if not np.isfinite(coeffs).all():
            raise ValueError("coeffs must be finite")
        self.coeffs = coeffs.copy()
        self.coeffs.setflags(write=False)
        self.n_modes = coeffs.shape[0]
        self._certify()
        # cubic-Hermite tables of h, h', h'' on a fine grid: the walk and
        # quadrature hot paths evaluate these instead of summing the series.
        # Row k of _tab_cols holds the k-th derivative (h, h', h'', h''') at
        # every knot, so a lookup gathers from contiguous rows.
        nt = _TABLE_GRID
        tt = np.linspace(0.0, 2 * np.pi, nt + 1)
        self._tab_step = 2 * np.pi / nt
        self._tab_cols = np.stack([_series(self.coeffs, tt, k) for k in range(4)])
        self._tab_u = np.stack([np.cos(tt), np.sin(tt)])
        # certified bounds of h + h'' (the knots are the 4096-angle grid of
        # _certify): on each cell of w knots of the search, its least and
        # greatest knot value less and plus _rc_dip
        rc = self._tab_cols[0] + self._tab_cols[2]
        self._rc_cells, w = {}, nt
        while w > 1:
            w //= _SPLIT
            cells = np.concatenate([rc[:-1].reshape(-1, w), rc[w::w, None]], axis=1)
            self._rc_cells[w] = (cells.min(axis=1) - self._rc_dip, cells.max(axis=1) + self._rc_dip)
        # disk fast path: only the constant mode present
        self._disk_radius = None
        if self.n_modes == 1 or not np.any(self.coeffs[1:]):
            self._disk_radius = float(self.coeffs[0, 0])
        self._lattice_cache = None  # the distance lattice, built on first use
        self._lattice_lock = threading.Lock()

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def disk(radius: float = 1.0) -> "SupportDomain":
        return SupportDomain(np.array([[float(radius), 0.0]]))

    @staticmethod
    def ellipse(a: float, b: float, n_modes: int = 64) -> "SupportDomain":
        """Ellipse with semi-axes a (x) and b (y), h = sqrt(a^2 cos^2 + b^2 sin^2)."""
        return SupportDomain.from_function(
            lambda t: np.sqrt(a * a * np.cos(t) ** 2 + b * b * np.sin(t) ** 2),
            n_modes=n_modes,
        )

    @staticmethod
    def from_function(fn, n_modes: int = 64) -> "SupportDomain":
        """Project a periodic support function onto the Fourier basis."""
        return SupportDomain(_project_coeffs(fn, n_modes))

    @staticmethod
    def from_polygon(vertices, n_modes: int = 64, rounding: float = 1e-3) -> "SupportDomain":
        """Smooth a convex polygon: Fejer-weighted projection plus a small disk.

        Fejer weights keep h + h'' nonnegative (the polygon's curvature measure
        is convolved with a nonnegative kernel); the Minkowski disk of radius
        `rounding` then makes the curvature strictly positive.  The dense DFT
        keeps aliasing (amplified by j^2 in h'') below the rounding radius.
        """
        verts = np.asarray(vertices, dtype=float)
        coeffs = _project_coeffs(lambda t: np.max(verts @ _unit(t).T, axis=0),
                                 n_modes, 1 << 17)
        j = np.arange(n_modes)
        coeffs *= (1.0 - j / n_modes)[:, None]
        coeffs[0, 0] += rounding
        return SupportDomain(coeffs)

    # -- support function and certification -----------------------------------

    def support(self, theta, deriv: int = 0):
        """h(theta) or its deriv-th derivative."""
        return _series(self.coeffs, theta, deriv)

    def _hermite(self, theta, m):
        """The first m of (h, h', h'') at theta, a list of arrays shaped like theta."""
        theta = np.asarray(theta, dtype=float)
        pos = np.mod(theta, 2 * np.pi) / self._tab_step
        i = np.minimum(pos.astype(np.int64), _TABLE_GRID - 1)
        t = pos - i
        t2 = t * t
        t3 = t2 * t
        b00 = 2 * t3 - 3 * t2 + 1
        b10 = (t3 - 2 * t2 + t) * self._tab_step
        b01 = 3 * t2 - 2 * t3
        b11 = (t3 - t2) * self._tab_step
        i1 = i + 1
        at = [(col.take(i), col.take(i1)) for col in self._tab_cols[:m + 1]]
        return [b00 * at[k][0] + b10 * at[k + 1][0] + b01 * at[k][1] + b11 * at[k + 1][1]
                for k in range(m)]

    def _certify(self):
        tg = np.linspace(0.0, 2 * np.pi, _CERT_GRID, endpoint=False)
        h = _series(self.coeffs, tg)
        if np.min(h) <= 0:
            raise NonConvexError("support function must be positive (origin inside)")
        self._max_h = float(np.max(h))
        rc = h + _series(self.coeffs, tg, 2)
        if np.min(rc) <= 0:
            raise NonConvexError("h + h'' <= 0: boundary not strictly convex")
        # r0, a certified lower bound of min(h + h''): between grid angles w
        # apart, rc strays at most w^2/8 max|rc''| from its samples (_rc_dip),
        # and mode j adds at most (j^4 - j^2) |(a_j, b_j)| to |rc''| =
        # |h'' + h''''|; the last term allows for the rounding of the sums.
        # 0 means no certificate.
        j = np.arange(self.n_modes, dtype=float)
        amp = np.hypot(self.coeffs[:, 0], self.coeffs[:, 1])
        self._rc_dip = ((2 * np.pi / _CERT_GRID) ** 2 / 8 * float(np.sum((j ** 4 - j ** 2) * amp))
                        + 1e-12 * float(np.sum((1 + j * j) * amp)))
        self._r0 = max(float(np.min(rc)) - self._rc_dip, 0.0)
        # interval refinement where the certificate margin is thin
        thin = np.nonzero(rc < _CONVEXITY_REFINE)[0]
        if thin.size:
            step = 2 * np.pi / _CERT_GRID
            fine = (tg[thin][:, None] + np.linspace(0, step, 65)[None, :]).ravel()
            rc_f = _series(self.coeffs, fine) + _series(self.coeffs, fine, 2)
            if np.min(rc_f) <= 0:
                raise NonConvexError("h + h'' <= 0 on refined grid")

    def max_support(self) -> float:
        """max h on the certification grid, kept from _certify."""
        return self._max_h

    # -- boundary geometry -----------------------------------------------------

    def boundary_point(self, theta):
        """Boundary point with outer normal angle theta: h u + h' u_perp."""
        h = self.support(theta)
        hp = self.support(theta, 1)
        u = _unit(theta)
        up = _unit(np.asarray(theta, dtype=float) + np.pi / 2)
        return (h[..., None] * u + hp[..., None] * up) if u.ndim > 1 else h * u + hp * up

    def _search_foot(self, pts: np.ndarray):
        """Vectorised signed distance plus the minimising normal angle, by branch and bound.

        On a cell of width w where r <= h + h'' <= R (_rc_cells), g = h - x.u
        has g'' = h + h'' - g.  On the cell holding the minimiser theta*, where
        g'' >= 0, g'' <= R - g(theta*), so g(theta*) is at least the floor
        (m - c R) / (1 - c), c = w^2/8 and m the lower end value: a cell whose
        floor lies above its row's least sample is dropped (_split).  Cells
        start as _SPLIT parts of the circle on the Hermite table's knots, where
        h and h' are exact.  If both ends of a cell lie below r, g'' > 0 on it
        (g rising to r would exceed the chord by more than c (g - r) allows):
        its lower end is a candidate, and a sign change of g' is bisected on
        the knots down to one knot interval and finished by _bracketed_newton
        on g', from the secant root of its knot values.  Other cells are split
        on, past the knots on the Hermite table, each fine cell taking the R
        of its knot interval, until no floor lies 1e-13 below the least sample
        or _FINE_SPLITS splits are done; their samples are candidates.  Each
        row takes its least candidate, so its bits do not depend on other rows.
        """
        n, step = len(pts), self._tab_step
        x1, x2 = pts[:, 0], pts[:, 1]
        h, (cs, sn) = self._tab_cols[0], self._tab_u

        def knot_g(r, k):
            return h.take(k) - x1.take(r) * cs.take(k) - x2.take(r) * sn.take(k)

        def hermite_g(r, t):
            return self._hermite(t, 1)[0] - x1.take(r) * np.cos(t) - x2.take(r) * np.sin(t)

        best = np.full(n, np.inf)
        rows, lo, w = np.arange(n), np.zeros(1, dtype=np.intp), _TABLE_GRID  # the circle
        cand = [(rows[:0], best[:0], best[:0])]  # (row, g, angle)
        while w > 1 and rows.size:
            w //= _SPLIT
            r_low, r_high = self._rc_cells[w]
            rows, lo, ga, gb, _, _ = self._split(rows, lo, w, w * step, knot_g, best, 0.0,
                                                 r_high.take(lo[:, None] // w + np.arange(_SPLIT)))
            cert = np.maximum(ga, gb) < r_low.take(lo // w)
            r, k, ga, gb = rows[cert], lo[cert], ga[cert], gb[cert]
            cand.append((r, np.minimum(ga, gb), (k + w * (gb < ga)) * step))
            y1, y2 = x1.take(r), x2.take(r)
            turn = (self._knot_slope(k, y1, y2) <= 0.0) & (self._knot_slope(k + w, y1, y2) >= 0.0)
            r, k, y1, y2, half = r[turn], k[turn], y1[turn], y2[turn], w
            while half > 1:  # bisect on the sign of g', which rises
                half //= 2
                k = np.where(self._knot_slope(k + half, y1, y2) < 0.0, k + half, k)
            if r.size:
                a, b = self._knot_slope(k, y1, y2), self._knot_slope(k + 1, y1, y2)
                start = k * step + step * (a / (a - b - 1e-300))  # a = b = 0 starts at k
                def slope(t, i):  # g' and its derivative h'' + x.u
                    _, h1, h2 = self._hermite(t, 3)
                    z1, z2, ct, st = y1.take(i), y2.take(i), np.cos(t), np.sin(t)
                    return h1 + z1 * st - z2 * ct, h2 + z1 * ct + z2 * st
                t = _bracketed_newton(slope, start, k * step, (k + 1) * step, "distance search")
                cand.append((r, hermite_g(r, t), t))
            rows, lo = rows[~cert], lo[~cert]
        t, w, r_knot = lo * step, step, self._rc_cells[1][1]
        for _ in range(_FINE_SPLITS):
            if rows.size == 0:
                break
            knot = ((t + 0.5 * w) // step).astype(np.intp)  # the knot interval of each cell
            w /= _SPLIT
            split = rows
            rows, t, _, _, val, at = self._split(rows, t, w, w, hermite_g, best, 1e-13,
                                                 r_knot.take(knot)[:, None])
            cand.append((np.repeat(split, _SPLIT + 1), val.ravel(), at.ravel()))
        row, val, theta = (np.concatenate(c) for c in zip(*cand))
        d, foot = np.full(n, np.nan), np.full(n, np.nan)
        np.fmin.at(d, row, val)
        least = val == d.take(row)
        np.fmin.at(foot, row[least], theta[least])  # the least angle of the least candidates
        return d, np.mod(foot, 2 * np.pi)

    def _split(self, rows, lo, w, width, g, best, gap, rc_high):
        """Split each row's cell [lo, lo + _SPLIT w] (lo may be one for all rows)
        into _SPLIT cells of width w (width in radians), sample g(row, angle)
        at their ends, lower best, and keep the cells whose floor (rc_high
        bounding h + h'') is at most best - gap: their (row, lo, g at both
        ends), then the samples, one row per cell split, and their angles."""
        at = lo[:, None] + w * np.arange(_SPLIT + 1)
        val = g(rows[:, None], at)
        np.minimum.at(best, rows, val.min(axis=1))
        c = width * width / 8
        top = (1 - c) * (best - gap).take(rows)[:, None]
        cell, j = np.nonzero(np.minimum(val[:, :-1], val[:, 1:]) - c * rc_high <= top)
        lo = (lo.take(cell) if lo.size > 1 else lo) + w * j
        return rows.take(cell), lo, val[cell, j], val[cell, j + 1], val, at

    def _knot_slope(self, k, x1, x2):
        """g' = h' + x1 sin - x2 cos at knots k, exact."""
        cs, sn = self._tab_u
        return self._tab_cols[1].take(k) + x1 * sn.take(k) - x2 * cs.take(k)

    def _signed_distance_foot(self, pts: np.ndarray, seed=None, deep=None):
        """Vectorised signed distance plus the minimising normal angle: the one exact query.

        The disk returns its closed form.  Elsewhere g(theta) = h - x.u has
        g'' = h + h'' - g.  Let r0 <= min(h + h'') (see _certify) and theta* a
        critical point of g with g(theta*) < r0.  Inside D, x lies in the disk
        of radius r0 that touches the boundary from inside at b(theta*), and
        that disk lies in D (Blaschke's rolling theorem); outside D, b(theta*)
        is the projection of x onto D.  Either way g(theta*) is the signed
        distance.

        Newton starts from seed, by default the best cell-corner foot angle
        of the lattice, and may take steps up to _ROLL_CAP, since the
        certificate does not depend on where it converges.  deep, the rows'
        deep-cell flags, is looked up when not given (upper_foot returns both
        with the seed).  A row is accepted
        if its last step is below _NEWTON_TOL, its value is not above the
        seed's and lies _ROLL_MARGIN below r0.  Other rows, and every row of a
        domain with r0 = 0, run the search (_search_foot).  A row in a deep
        lattice cell, where the lower bound is at least r0 - _ROLL_MARGIN, cannot
        be accepted (any g(theta) is at least the distance): it stops after
        Newton's first step, and a query of deep rows only runs no Newton.
        Each row's result does not depend on the other rows.
        """
        pts = np.asarray(pts, dtype=float)
        if self._disk_radius is not None:
            d = self._disk_distance(pts)
            theta = np.arctan2(pts[:, 1], pts[:, 0])
            theta[(pts[:, 0] == 0.0) & (pts[:, 1] == 0.0)] = 0.0
            return d, theta
        if self._r0 == 0.0:
            return self._search_foot(pts)
        lattice = self._lattice()
        if seed is None:
            _, seed, deep = lattice.upper_foot(pts)
        elif deep is None:
            deep = lattice.deep.take(lattice._cell(pts)[0])
        if deep.all():
            val, theta = self._search_foot(pts)
            return val, np.mod(theta, 2 * np.pi)
        x1, x2 = pts[:, 0], pts[:, 1]
        val, theta, step = self._newton_step(seed, x1, x2)
        start = val.copy()
        # rows in deep cells stop here: their value already fails the certificate
        rows = np.nonzero((np.abs(step) >= _NEWTON_TOL) & ~deep)[0]
        for _ in range(_NEWTON_STEPS):
            if rows.size == 0:
                break
            val[rows], theta[rows], step = self._newton_step(theta[rows], x1[rows], x2[rows])
            rows = rows[np.abs(step) >= _NEWTON_TOL]
        search = (val > start) | (val >= self._r0 - _ROLL_MARGIN)
        search[rows] = True
        rows = np.nonzero(search)[0]
        if rows.size:
            val[rows], theta[rows] = self._search_foot(pts.take(rows, axis=0))
        return val, np.mod(theta, 2 * np.pi)

    def lower_distance(self, pts: np.ndarray) -> np.ndarray:
        """A certified lower bound of the signed distance, per row (_DistanceLattice).

        The disk returns its closed form.
        """
        pts = np.asarray(pts, dtype=float)
        if self._disk_radius is not None:
            return self._disk_distance(pts)
        return self._lattice().lower(pts)

    def _disk_distance(self, pts: np.ndarray) -> np.ndarray:
        """The disk's closed form r - |x|, the exact distance and both its bounds."""
        x1, x2 = pts[:, 0], pts[:, 1]
        d = x1 * x1
        d += x2 * x2
        np.sqrt(d, out=d)
        return np.subtract(self._disk_radius, d, out=d)

    def step_distance(self, pts: np.ndarray, cut: float) -> np.ndarray:
        """Per row, the distance r a walk steps on from x.

        r is at most cut iff delta_D(x) <= cut (the walk has left D), and
        otherwise lies in (cut, delta_D(x)], so B(x, kappa r) lies inside D for
        any kappa < 1.  A row whose lower bound exceeds max(_EXACT_BELOW, cut)
        steps on it; of the rest, near the boundary or outside, a row whose
        upper bound is at most cut reports that, and the others query the
        exact distance (_signed_distance_foot, seeded at the upper bound's
        foot angle and given the rows' deep-cell flags).
        """
        r = self.lower_distance(pts)
        if self._disk_radius is not None:  # exact
            return r
        rows = np.nonzero(r <= max(_EXACT_BELOW, cut))[0]
        if rows.size:
            r[rows], seed, deep = self._lattice().upper_foot(pts.take(rows, axis=0))
            exact = r[rows] > cut
            rows = rows[exact]
            if rows.size:
                r[rows], _ = self._signed_distance_foot(pts.take(rows, axis=0), seed[exact],
                                                        deep[exact])
        return r

    def _lattice(self) -> "_DistanceLattice":
        with self._lattice_lock:
            if self._lattice_cache is None:
                self._lattice_cache = _DistanceLattice(self)
            return self._lattice_cache

    def _newton_step(self, theta, x1, x2):
        """g = h - x.u at theta, the next angle and the step of one Newton step, capped."""
        h, h1, h2 = self._hermite(theta, 3)
        ct, st = np.cos(theta), np.sin(theta)
        xu = x1 * ct + x2 * st
        gp = h1 - (-x1 * st + x2 * ct)
        gpp = h2 + xu
        gpp = np.where(np.abs(gpp) < 1e-14, 1e-14, gpp)
        step = np.clip(gp / gpp, -_ROLL_CAP, _ROLL_CAP)
        return h - xu, theta - step, step

    def boundary_distance_batch(self, pts: np.ndarray) -> np.ndarray:
        """Per row, the signed distance min_theta (h - x.u): delta_D(x) inside
        and -dist(x, D) outside."""
        return self._signed_distance_foot(pts)[0]

    def nearest_boundary(self, pts: np.ndarray):
        """Per row, (foot point, normal angle, signed distance) of the nearest boundary point."""
        pts = np.asarray(pts, dtype=float)
        d, theta = self._signed_distance_foot(pts)
        return pts + d[:, None] * _unit(theta), theta, d

    def curvature(self, theta):
        """Curvature at the boundary point with outer normal angle theta."""
        rc = self.support(theta) + self.support(theta, 2)
        if np.any(np.asarray(rc) <= 0):
            raise NonConvexError("h + h'' <= 0 at requested angle")
        return 1.0 / rc

    # -- domain class parameters --------------------------------------------------

    def classify(self) -> "ClassFParams":
        """Tightest (C1, R1, kappa1, kappa2) over a dense grid with local polish."""
        tg = np.linspace(0.0, 2 * np.pi, _CERT_GRID, endpoint=False)
        h = _series(self.coeffs, tg)
        if np.max(h) > 1.0 + 1e-12:
            raise NotInUnitBallError("classify requires D inside B(0,1): max h <= 1")
        rc = h + _series(self.coeffs, tg, 2)
        kappa = 1.0 / rc
        r1 = self._polish_extremum(tg[np.argmin(h)], kind="support", minimize=True)
        k_lo = self._polish_extremum(tg[np.argmax(rc)], kind="radius", minimize=False)
        k_hi = self._polish_extremum(tg[np.argmin(rc)], kind="radius", minimize=True)
        kappa1, kappa2 = 1.0 / k_lo, 1.0 / k_hi
        pts = self.boundary_point(tg)
        seg = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
        dk = np.abs(np.roll(kappa, -1) - kappa)
        c1 = float(np.max(dk / np.maximum(seg, 1e-300)))
        return ClassFParams(C1=c1, R1=float(r1), kappa1=float(min(kappa1, kappa2)),
                            kappa2=float(max(kappa1, kappa2)))

    def _polish_extremum(self, theta0: float, kind: str, minimize: bool) -> float:
        """Newton-polish a grid extremum of h (kind='support') or h+h'' ('radius')."""
        if kind == "support":
            val = lambda t: self.support(t)
            d1 = lambda t: self.support(t, 1)
            d2 = lambda t: self.support(t, 2)
        else:
            val = lambda t: self.support(t) + self.support(t, 2)
            d1 = lambda t: self.support(t, 1) + self.support(t, 3)
            d2 = lambda t: self.support(t, 2) + self.support(t, 4)
        t = float(theta0)
        cap = 2 * np.pi / _CERT_GRID
        for _ in range(6):
            g2 = float(d2(t))
            if abs(g2) < 1e-13:
                break
            t -= float(np.clip(float(d1(t)) / g2, -cap, cap))
        cand = [float(val(theta0)), float(val(t))]
        return min(cand) if minimize else max(cand)

    def __repr__(self):
        if self._disk_radius is not None:
            return f"SupportDomain.disk({self._disk_radius:g})"
        return f"SupportDomain(n_modes={self.n_modes})"


class _DistanceLattice:
    """Certified bounds of a SupportDomain's signed distance from a node lattice.

    delta(x) = min_theta (h(theta) - x.u(theta)) is a minimum of affine
    functions of x, so it is concave on all of R^2.  The nodes split the
    bounding box [-h(pi), h(0)] x [-h(3 pi/2), h(pi/2)] into _LATTICE_CELLS^2
    cells and hold the search's distance and foot angle (_search_foot: the
    query reads the lattice, so it cannot fill it).  In a cell:

    - the bilinear interpolation of the corner distances is a convex
      combination of them at weights that reproduce x, so by Jensen it is at
      most delta(x); less _LATTICE_MARGIN it is the lower bound;
    - each corner's foot angle theta_i gives h(theta_i) - x.u(theta_i) >=
      delta(x); the least of the four is the upper bound, and its theta_i
      seeds SupportDomain._signed_distance_foot;
    - a cell is deep where its least corner distance less _LATTICE_MARGIN,
      and so the lower bound throughout the cell, is at least
      r0 - _ROLL_MARGIN: no rolling-disk certificate holds there, and
      SupportDomain._signed_distance_foot sends its rows to the search.

    Outside the box, where D has no point, the lower bound is -inf and the
    upper bound is at most the (negative) gap to the box: the sides' normal
    angles give h(theta) - x.u(theta) = the signed distance to the side.
    """

    def __init__(self, dom: SupportDomain):
        n = _LATTICE_CELLS
        h_axes = _series(dom.coeffs, np.arange(4) * (np.pi / 2))
        self.lo = np.array([-h_axes[2], -h_axes[3]])
        self.hi = h_axes[:2].copy()
        self.scale = n / (self.hi - self.lo)
        ax = [np.linspace(self.lo[c], self.hi[c], n + 1) for c in range(2)]
        nodes = np.stack(np.meshgrid(*ax, indexing="ij"), axis=-1).reshape(-1, 2)
        d, theta = dom._search_foot(nodes)
        # h(theta_i) from the series, cos theta_i, sin theta_i and theta_i, one row each
        foot = np.stack([_series(dom.coeffs, theta), np.cos(theta), np.sin(theta), theta])
        # copies made once the query's temporaries are freed sit low in the
        # heap, so the memory those temporaries took can go back to the system
        self.delta, self.foot = d.copy(), foot.copy()
        # deep flags by lower-left node; the last row and column start no cell
        dn = self.delta.reshape(n + 1, n + 1)
        least = np.minimum(np.minimum(dn[:-1, :-1], dn[:-1, 1:]),
                           np.minimum(dn[1:, :-1], dn[1:, 1:]))
        self.deep = np.zeros((n + 1, n + 1), dtype=bool)
        self.deep[:-1, :-1] = least - _LATTICE_MARGIN >= dom._r0 - _ROLL_MARGIN
        self.deep = self.deep.ravel()

    def _cell(self, pts):
        """Lower-left node index and in-cell coordinates (s, t) of each row."""
        n = _LATTICE_CELLS
        fx = (pts[:, 0] - self.lo[0]) * self.scale[0]
        fy = (pts[:, 1] - self.lo[1]) * self.scale[1]
        i = np.minimum(np.maximum(fx, 0.0), n - 1).astype(np.intp)
        j = np.minimum(np.maximum(fy, 0.0), n - 1).astype(np.intp)
        return i * (n + 1) + j, fx - i, fy - j

    def lower(self, pts: np.ndarray) -> np.ndarray:
        n = _LATTICE_CELLS
        k, s, t = self._cell(pts)
        d = self.delta
        d00, d01 = d.take(k), d.take(k + 1)
        d10, d11 = d.take(k + (n + 1)), d.take(k + (n + 2))
        a = d00 + t * (d01 - d00)
        lb = a + s * (d10 + t * (d11 - d10) - a) - _LATTICE_MARGIN
        inside = (s >= 0.0) & (s <= 1.0) & (t >= 0.0) & (t <= 1.0)
        return np.where(inside, lb, -np.inf)

    def upper_foot(self, pts: np.ndarray):
        """The upper bound, the foot angle of the least corner and whether the cell is deep."""
        n = _LATTICE_CELLS
        k, _, _ = self._cell(pts)
        x, y = pts[:, 0], pts[:, 1]
        h, c, s, theta = self.foot
        best, at = h.take(k) - x * c.take(k) - y * s.take(k), k
        for corner in (k + 1, k + (n + 1), k + (n + 2)):
            g = h.take(corner) - x * c.take(corner) - y * s.take(corner)
            lower = g < best
            best, at = np.where(lower, g, best), np.where(lower, corner, at)
        ub = np.minimum(np.minimum(x - self.lo[0], self.hi[0] - x),
                        np.minimum(y - self.lo[1], self.hi[1] - y))
        return np.minimum(ub, best), theta.take(at), self.deep.take(k)


def _series(coeffs: np.ndarray, theta, deriv: int = 0):
    """h(theta), or its deriv-th derivative, from the Fourier series.

    h = Re sum_j c_j z^j with c_j = a_j - i b_j and z = exp(i theta), summed by
    Horner's rule: one complex exponential per angle, not two per angle and
    mode.  d^k/dtheta^k multiplies c_j by (i j)^k.  A scalar theta gives a scalar.
    """
    theta = np.asarray(theta, dtype=float)
    c = coeffs[:, 0] - 1j * coeffs[:, 1]
    if deriv:
        c = c * (1j * np.arange(c.size)) ** deriv
    z = np.exp(1j * theta)
    p = np.full(z.shape, c[-1])
    for cj in c[-2::-1]:
        p *= z
        p += cj
    return p.real.copy()[()]


@dataclass(frozen=True)
class ClassFParams:
    """Lambda = (C1, R1, kappa1, kappa2): curvature Lipschitz constant, inner
    radius, curvature bounds."""

    C1: float
    R1: float
    kappa1: float
    kappa2: float

    def __post_init__(self):
        if not (self.C1 >= 0 and self.R1 > 0 and 0 < self.kappa1 <= self.kappa2):
            raise ValueError(f"invalid class-F parameters: {self}")


def deform(dom: SupportDomain, t: float) -> SupportDomain:
    """Minkowski interpolation (1-t) D + t B(0,1), exact on support coefficients."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    coeffs = (1.0 - t) * dom.coeffs
    coeffs = coeffs.copy()
    coeffs[0, 0] += t
    return SupportDomain(coeffs)


_GAP_SAMPLES = 2048


def domain_gap(a: SupportDomain, b: SupportDomain) -> float:
    """Symmetric boundary-gap metric: min of the two one-sided boundary sups."""
    tg = np.linspace(0.0, 2 * np.pi, _GAP_SAMPLES, endpoint=False)
    pa = a.boundary_point(tg)
    pb = b.boundary_point(tg)
    # each boundary point's own normal angle seeds the other domain's query
    da, _ = b._signed_distance_foot(pa, tg)
    db, _ = a._signed_distance_foot(pb, tg)
    return float(min(np.max(np.abs(da)), np.max(np.abs(db))))


class ConeDomain:
    """Truncated cone {x : |x_perp| < x1 tan(theta), |x| < 1} in R^d.

    Kept implicit (no support representation): used only by the Monte Carlo
    solver in the narrow-cone experiments, never by the extension module.
    """

    def __init__(self, theta: float, dim: int = 2):
        if not 0.0 < theta < np.pi / 2:
            raise ValueError("cone half-aperture must lie in (0, pi/2)")
        if dim < 2:
            raise ValueError("cone dimension must be >= 2")
        self.theta = float(theta)
        self.dim = int(dim)
        self._sin = math.sin(self.theta)
        self._cos = math.cos(self.theta)
        self._tan = math.tan(self.theta)

    def boundary_distance_batch(self, pts: np.ndarray) -> np.ndarray:
        """Signed distance: min of lateral-surface and unit-sphere distances."""
        pts = np.asarray(pts, dtype=float)
        x1 = pts[:, 0]
        perp = np.linalg.norm(pts[:, 1:], axis=1)
        lateral = x1 * self._sin - perp * self._cos
        sphere = 1.0 - np.linalg.norm(pts, axis=1)
        return np.minimum(lateral, sphere)

    def step_distance(self, pts: np.ndarray, cut: float) -> np.ndarray:
        """The exact distance (see SupportDomain.step_distance)."""
        return self.boundary_distance_batch(pts)

    def __repr__(self):
        return f"ConeDomain(theta={self.theta:g}, dim={self.dim})"


def builtin_domain(spec: str):
    """disk[:r] | ellipse:a,b | cone:theta,d; raises ValueError on a bad spec."""
    name, _, args = spec.partition(":")
    try:
        if name == "disk":
            return SupportDomain.disk(float(args) if args else 1.0)
        if name == "ellipse":
            a, b = (float(t) for t in args.split(","))
            return SupportDomain.ellipse(a, b)
        if name == "cone":
            theta, d = args.split(",")
            return ConeDomain(float(theta), int(d))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"malformed builtin spec {spec!r}: {exc}") from exc
    raise ValueError(f"unknown builtin domain {spec!r}")


# -- file formats ----------------------------------------------------------------

def save_domain(dom, path) -> None:
    """Write `support-fourier v1` or `cone v1` plain-text files."""
    with open(path, "w") as fh:
        if isinstance(dom, SupportDomain):
            fh.write("support-fourier v1\n")
            fh.write(f"n_modes={dom.n_modes}\n")
            for a, b in dom.coeffs:
                fh.write(f"{a:.17g} {b:.17g}\n")
        elif isinstance(dom, ConeDomain):
            fh.write("cone v1\n")
            fh.write(f"theta={dom.theta:.17g} dim={dom.dim}\n")
        else:
            raise TypeError(f"cannot serialise {type(dom).__name__}")


def load_domain(path):
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise DomainFileError(str(exc)) from exc
    if not lines:
        raise DomainFileError(f"{path}: empty domain file")
    header = lines[0]
    try:
        if header == "support-fourier v1":
            if not lines[1].startswith("n_modes="):
                raise DomainFileError(f"{path}: missing n_modes line")
            n = int(lines[1].split("=", 1)[1])
            rows = [tuple(map(float, ln.split())) for ln in lines[2:2 + n]]
            if len(rows) != n:
                raise DomainFileError(f"{path}: expected {n} coefficient lines")
            return SupportDomain(np.array(rows))
        if header == "cone v1":
            fields = dict(tok.split("=", 1) for tok in lines[1].split())
            return ConeDomain(theta=float(fields["theta"]), dim=int(fields["dim"]))
    except DomainFileError:
        raise
    except Exception as exc:
        raise DomainFileError(f"{path}: malformed domain file ({exc})") from exc
    raise DomainFileError(f"{path}: unknown header {header!r}")
