"""Adaptive two-dimensional quadrature over convex support-function domains.

The domain is charted in polar coordinates about an interior (or boundary)
anchor: y = c + rho(s) R(psi) u(psi), s in [0, 1], with the graded map
rho = s + s^2 - s^3 and Jacobian rho R(psi)^2 rho', rho' = (1 - s)(1 + 3 s).
Near the rim 1 - rho = (1 - s)^2 (1 + s), so a field's sqrt(d) edge is
linear in s; rho'(0) = 1 keeps the node density at the anchor, where the
kernel peaks.  Cells are rectangles in (psi, s), so every cell conforms to
the boundary; each is integrated with a tensor Gauss-Kronrod 7/15 pair.  The
first cells are pi/4-wide psi sectors by four s bands: eight round an
interior anchor, four over the inward half-plane psi in [n + pi/2,
n + 3 pi/2] of a boundary anchor with outer normal angle n.

A kernel peaked at height h over the point x (integrate's peak (x1, x2, h))
has the length scale eps = |(x, h) - (c, 0)| at the anchor c.  When eps is
below _MAP_BELOW (1/8) of the domain's size (max_support), the chart is
mapped: with eps floored at _SCALE_FLOOR (1e-3) of the size, e = eps / R(psi)
and A = asinh(1 / e), a node sits at rho = e sinh(A g(s)), g the graded map
above, and the Jacobian's rho' is e A cosh(A g) g'.  Nodes then grade
geometrically from eps at the anchor to the rim, where the map still ends at
rho = 1: the sinh transform for nearly singular integrals (Johnston &
Elliott, IJNME 62, 2005).  A mapped
boundary-anchored chart also starts with sectors eps / size, 4 eps / size
and 16 eps / size from each tangent ray (those below pi/4), where R(psi)
falls to the kernel's scale.  Every other chart is the graded one.

Refinement runs in rounds, as in DCUHRE (Berntsen, Espelid & Genz, ACM TOMS
1991): each round bisects the cells with the largest error relative to
tolerance, at most 32 of them, picked by a partition rather than a sort of
every live cell, and evaluates the integrand once on the nodes of all their
children.  A split in s is made only while the children's outermost nodes
map strictly inside their mapped ends (on a mapped chart, by a margin of a
few ulps that the sinh map's rounding cannot close), and in psi only on
cells at least 1e-12 wide, so no node lands on an edge.  A bisection that
raises every component's error estimate while that estimate is below 1e-10
of the value resolves only the integrand's rounding noise, which grows as
graded nodes near an edge: it is undone, and the cell is not split again.
Rounds stop when the component-wise tolerance is met or the cell budget runs
out, and at once when a total is not finite: a NaN or inf is never returned
as a value.

R(psi) is found by geom's bracketed Newton, the distance search's
(_PolarChart): a per-chart table of the polar angle of the boundary point
b(theta) - c, which turns monotonically with the normal angle theta,
brackets each ray, so no global search over angles runs.  A peak outside
the domain anchors the chart at its nearest boundary point, found by one
query of the domain's distance oracle (nearest_boundary).

Integrands must be vectorised: f maps an (n, 2) array of points to (n,), or to
(n, m) for a vector integrand whose components then share one adaptive mesh.
The result should be C-contiguous: the rule weights are applied by one matrix
product per cell batch, whose BLAS path, and so whose last bits, follow the
memory layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergedError
from .geom import _KNOTS, _TABLE_GRID, _bracketed_newton, _series

# QUADPACK Gauss-Kronrod 7/15 nodes and weights on [-1, 1]
_XGK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_WG15 = np.zeros(15)
_WG15[1::2] = [0.129484966168870, 0.279705391489277, 0.381830050505119,
               0.417959183673469, 0.381830050505119, 0.279705391489277,
               0.129484966168870]
# flattened (psi, rho) tensor weights: Kronrod, Gauss, Gauss in psi only, Gauss in rho only
_W = np.stack([np.multiply.outer(_WGK, _WGK), np.multiply.outer(_WG15, _WG15),
               np.multiply.outer(_WG15, _WGK), np.multiply.outer(_WGK, _WG15)]).reshape(4, -1)
_ROUND = 32  # most cells bisected per round, which bounds the integrand's batch
_ROUNDING = 1e-10  # relative error estimates at or below this are taken as rounding noise
# kernel scales below this fraction of the domain's size map the chart by sinh,
# with the scale floored at _SCALE_FLOOR of the size
_MAP_BELOW = 1.0 / 8.0
_SCALE_FLOOR = 1e-3
_TANGENT_SECTORS = (1.0, 4.0, 16.0)  # extra psi breaks, in units of scale / size
# a mapped chart's s-split keeps its children's outermost nodes this far, in
# relative terms, from their edges in g, so that the sinh map keeps them apart
_MAPPED_MARGIN = 8.0 * np.finfo(float).eps


@dataclass(frozen=True)
class QuadSpec:
    rel_tol: float = 1e-6
    abs_tol: float = 1e-10
    max_cells: int = 4096

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_cells < 64:
            raise ValueError("max_cells must be >= 64")


class _PolarChart:
    """Radial extent R(psi) of the domain about an anchor c in the closed domain.

    The ray from c at angle psi leaves the domain at the boundary point
    b(theta) = h u + h' u_perp whose normal angle theta solves
    N(theta) = cross(u(psi), b(theta) - c) = g' cos t + g sin t = 0, with
    g = h - c.u, t = theta - psi and N' = (h + h'') cos t.  The polar angle
    of b(theta) - c turns monotonically with theta (at the rate
    g (h + h'') / |b - c|^2), so a table of it on _TABLE_GRID steps of theta
    (the domain's Hermite knots, shifted to the start angle) and searchsorted
    bracket each psi, and geom._bracketed_newton on N finishes.
    R = g / cos t, from the series; a grazing ray (cos t < 1e-3) takes
    R = |b(theta) - c| = |(g, g')| instead, which does not magnify the
    error of theta by 1 / cos t.

    An anchor on the boundary is given with its normal angle: its table
    starts there, where b - c turns from the direction normal + pi/2, and it
    brackets the inward rays, psi in [normal + pi/2, normal + 3 pi/2], the
    only ones integrate's cells hold.  The table's ends are the anchor
    itself, where N has a double root, so the two tangent rays take R = 0
    without Newton.  Next to them N is at rounding level and Newton may
    stall; such rays finish by bisecting their brackets down to _NEWTON_TOL.
    """

    def __init__(self, dom, center, normal=None, scale=None):
        self.dom = dom
        self.center = np.asarray(center, dtype=float)
        self.scale = scale  # the kernel's length scale on a mapped chart, else None
        self._anchored = normal is not None
        if dom._disk_radius is not None:
            return
        start = 0.0 if normal is None else float(normal)
        self._theta = start + _KNOTS
        h, h1 = dom._hermite(self._theta, 2)
        c, s = np.cos(self._theta), np.sin(self._theta)
        turn = np.arctan2(h * s + h1 * c - self.center[1], h * c - h1 * s - self.center[0])
        if normal is not None:  # b - c vanishes at the ends: use its limiting directions
            turn[0], turn[-1] = start + np.pi / 2, start + 1.5 * np.pi
        steps = np.mod(np.diff(turn), 2 * np.pi)  # each in [0, 2 pi): the polar angle increases
        self._turn = turn[0] + np.concatenate([[0.0], np.cumsum(steps)])

    def radial_extent(self, psi: np.ndarray) -> np.ndarray:
        dom, c = self.dom, self.center
        if dom._disk_radius is not None:
            a = dom._disk_radius
            cu = c[0] * np.cos(psi) + c[1] * np.sin(psi)
            disc = np.maximum(cu * cu + a * a - c @ c, 0.0)
            return np.maximum(-cu + np.sqrt(disc), 0.0)
        target = self._turn[0] + np.mod(psi - self._turn[0], 2 * np.pi)
        k = np.clip(np.searchsorted(self._turn, target, side="right") - 1, 0, _TABLE_GRID - 1)
        lo, hi = self._theta[k], self._theta[k + 1]
        frac = (target - self._turn[k]) / np.maximum(self._turn[k + 1] - self._turn[k], 1e-300)
        theta = lo + np.minimum(frac, 1.0) * (hi - lo)
        out = np.zeros(psi.size)
        rays = slice(None)
        if self._anchored:  # the tangent rays start at the table's ends
            rays = np.flatnonzero((theta - self._theta[0] > 1e-12)
                                  & (self._theta[-1] - theta > 1e-12))
            psi, theta, lo, hi = psi[rays], theta[rays], lo[rays], hi[rays]
        def normal(th, i):  # N and N'
            h, h1, h2 = dom._hermite(th, 3)
            cth, sth, t = np.cos(th), np.sin(th), th - psi.take(i)
            ct = np.cos(t)
            g = h - (c[0] * cth + c[1] * sth)
            gp = h1 - (-c[0] * sth + c[1] * cth)
            return gp * ct + g * np.sin(t), (h + h2) * ct
        theta = _bracketed_newton(normal, theta, lo, hi, "radial extent", self._anchored)
        cth, sth, ct = np.cos(theta), np.sin(theta), np.cos(theta - psi)
        g = _series(dom.coeffs, theta) - (c[0] * cth + c[1] * sth)
        R = g / np.maximum(ct, 1e-12)
        i = np.flatnonzero(ct < 1e-3)  # grazing rays
        if i.size:
            gp = dom.support(theta[i], 1) - (-c[0] * sth[i] + c[1] * cth[i])
            R[i] = np.hypot(g[i], gp)
        out[rays] = np.maximum(R, 0.0)
        return out

    def radii(self, g, R):
        """Node radii r and slopes dr/dg on rays of extent R: (c, k) graded
        chart coordinates g by (c, n) extents R give (c, n, k) arrays.

        Unmapped, r = g R.  A mapped chart puts r = e sinh(A g) R with
        e = scale / R and A = asinh(1 / e), so that r(1) = R and the nodes
        grade geometrically from the kernel's scale at the anchor to the rim.
        """
        if self.scale is None:
            return g[:, None, :] * R[:, :, None], R[:, :, None]
        A = np.arcsinh(R / self.scale)[:, :, None]
        sh = np.sinh(A * g[:, None, :])
        return self.scale * sh, (self.scale * A) * np.sqrt(1.0 + sh * sh)


def _graded(s):
    """rho(s) = s + s^2 - s^3 and rho'(s) = (1 - s)(1 + 3 s) at chart coordinates s."""
    t = 1.0 - s
    return s * (1.0 + s * t), t * (1.0 + 3.0 * s)


def _splittable(cells, margin):
    """A (c, 2) mask: whether each cell may be bisected in psi and in s.

    Either split must keep the children's Kronrod nodes off their edges in
    floating point; in s that is tested on the graded nodes g, each
    outermost node clearing its edge by more than margin (relative) in g,
    and near the rim it fails once 1 - s < ~1e-8.  A mapped chart asks for
    _MAPPED_MARGIN, which the sinh map's rounding, a few ulps of r, cannot
    close; the graded chart for any gap (margin 0).
    """
    p0, p1, s0, s1 = cells.T
    mid = 0.5 * (s0 + s1)
    lo, hi = np.concatenate([s0, mid]), np.concatenate([mid, s1])
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)  # as _eval_cell places the nodes
    g = _graded(np.stack([lo, centre + half * _XGK[0], centre + half * _XGK[-1], hi]))[0]
    inside = (g[1] - g[0] > margin * g[1]) & (g[3] - g[2] > margin * g[3])
    return np.stack([p1 - p0 >= 1e-12, inside[:len(cells)] & inside[len(cells):]], axis=1)


def _eval_cell(chart, f, cells):
    """Kronrod/Gauss pairs on a (c, 4) array of chart rectangles (psi0, psi1, s0, s1).

    Evaluates f once on all c * 225 nodes.  Returns per-cell (value, error,
    split_axis) of shapes (c, m), (c, m) and (c,); of the axes _splittable
    allows under the chart's margin, split_axis is psi (0) if its one-axis
    Gauss downgrade loses at least as much as s's or s is not allowed, else
    s (1), and -1 if neither is allowed.
    """
    p0, p1, s0, s1 = cells.T
    ph, sh = 0.5 * (p1 - p0), 0.5 * (s1 - s0)
    g, dg = _graded(0.5 * (s0 + s1)[:, None] + sh[:, None] * _XGK)
    # the halves of an s bisection share their psi nodes: chart each span
    # once, taking the spans in sorted (psi0, psi1) order
    order = np.lexsort((p1, p0))
    a0, a1 = p0[order], p1[order]
    new = np.ones(len(cells), dtype=bool)
    new[1:] = (a0[1:] != a0[:-1]) | (a1[1:] != a1[:-1])
    span_of = np.empty_like(order)
    span_of[order] = np.cumsum(new) - 1
    a0, a1 = a0[new], a1[new]
    psi = 0.5 * (a0 + a1)[:, None] + 0.5 * (a1 - a0)[:, None] * _XGK
    R = chart.radial_extent(psi.ravel()).reshape(psi.shape)[span_of]
    rad, slope = chart.radii(g, R)  # (cell, psi node, s node)
    # the two node columns c + rad u(psi), built apart and stacked once
    c0, c1 = chart.center
    cos, sin = np.cos(psi)[span_of][:, :, None], np.sin(psi)[span_of][:, :, None]
    nodes = np.stack([c0 + rad * cos, c1 + rad * sin], axis=-1).reshape(-1, 2)
    vals = np.asarray(f(nodes), dtype=float)
    n = len(nodes)
    if vals.shape[:1] != (n,):
        raise ValueError(f"integrand returned shape {vals.shape} for {n} nodes "
                         f"({len(cells)} cells of {_XGK.size ** 2} nodes); "
                         f"expected ({n},) or ({n}, m)")
    jac = rad * slope * (dg * (ph * sh)[:, None])[:, None, :]
    # each node's weight repeated over its m columns: one contiguous product
    m = vals.size // n
    wv = np.repeat(jac.ravel(), m)
    wv *= vals.ravel()
    wv = wv.reshape(len(cells), -1, m)
    w = _W @ wv  # (cell, rule, column)
    vk = w[:, 0]
    # |vk - vg|, |vk - v_gpsi|, |vk - v_grho|
    diff = np.abs(w[:, :1] - w[:, 1:])
    err = np.max(diff, axis=1)
    loss = np.max(diff[:, 1:], axis=2)  # (cell, axis)
    psi, s = _splittable(cells, 0.0 if chart.scale is None else _MAPPED_MARGIN).T
    axis = np.where(psi & ((loss[:, 0] >= loss[:, 1]) | ~s), 0, np.where(s, 1, -1))
    return vk, err, axis


def _largest(key, k):
    """Indices of the k largest keys, largest first and ties in index order:
    np.argsort(-key, kind="stable")[:k], sorting only those k.

    Keys hold no NaN (integrate raises before a non-finite error is refined).
    """
    if key.size > k:
        kth = np.partition(key, key.size - k)[key.size - k]
        above, tied = np.flatnonzero(key > kth), np.flatnonzero(key == kth)
        pick = np.sort(np.concatenate([above, tied[:k - above.size]]))
    else:
        pick = np.arange(key.size)
    return pick[np.argsort(-key[pick], kind="stable")]


def integrate(dom, f, spec: QuadSpec | None = None, peak=None):
    """Adaptively integrate f over dom to the spec's component-wise tolerance.

    peak anchors the chart at (x1, x2), or at a kernel's peak (x1, x2, h) a
    height h >= 0 above the plane, whose scale the chart then reads; without
    it the chart is anchored at the origin.  Returns (value, err_estimate);
    floats for scalar integrands, arrays of matching length for vector
    integrands.  Raises NonConvergedError (carrying the best value and
    estimate) if the cell budget is exhausted first or a total is not finite.
    """
    spec = spec or QuadSpec()
    center, normal, scale = np.zeros(2), None, None
    if peak is not None:
        height = float(peak[2]) if len(peak) > 2 else None
        if height is not None and not (math.isfinite(height) and height >= 0.0):
            raise ValueError(f"peak height must be finite and >= 0, got {height!r}")
        xy = np.array([float(peak[0]), float(peak[1])])
        (foot,), (theta,), (d,) = dom.nearest_boundary(xy[None])
        if d <= 0.0:  # anchor the chart at the nearest boundary point
            center, normal = foot, theta
        else:
            center = xy
        if height is not None:
            size = dom.max_support()
            eps = math.hypot(float(np.hypot(*(xy - center))), height)
            if eps < _MAP_BELOW * size:
                scale = max(eps, _SCALE_FLOOR * size)
    chart = _PolarChart(dom, center, normal, scale)

    # pi/4-wide sectors: the whole turn, or the inward half-plane
    sectors, start = (8, 0.0) if normal is None else (4, normal + 0.5 * np.pi)
    edges = start + np.pi / 4 * np.arange(sectors + 1)
    if normal is not None and scale is not None:  # resolve the rays by each tangent
        near = scale / size * np.array(_TANGENT_SECTORS)
        near = near[near < np.pi / 4]
        edges = np.sort(np.concatenate([edges, start + near, edges[-1] - near]))
    i, j = np.divmod(np.arange(4 * (edges.size - 1)), 4)
    cells = np.stack([edges[i], edges[i + 1], j / 4, (j + 1) / 4], axis=1)
    vals, errs, axes = _eval_cell(chart, f, cells)
    while True:
        # totals are re-summed in array order each round, so results are
        # bitwise deterministic
        total_val, total_err = vals.sum(axis=0), errs.sum(axis=0)
        result = ((float(total_val[0]), float(total_err[0])) if vals.shape[1] == 1
                  else (total_val, total_err))
        if not (np.isfinite(total_val).all() and np.isfinite(total_err).all()):
            raise NonConvergedError(*result, "quadrature total is not finite")
        tol = np.maximum(spec.rel_tol * np.abs(total_val), spec.abs_tol)
        if not np.any(total_err > tol):
            return result
        live = np.flatnonzero(axes >= 0)
        budget = min(_ROUND, spec.max_cells - len(cells))
        if budget <= 0 or live.size == 0:
            raise NonConvergedError(*result)
        order = live[_largest(np.max(errs[live] / tol, axis=1), budget)]
        # the shortest prefix whose removal leaves at most half the tolerance
        left = total_err - np.cumsum(errs[order], axis=0)
        enough = np.all(left <= 0.5 * tol, axis=1)
        split = order[:np.argmax(enough) + 1] if enough.any() else order

        lo = 2 * axes[split]
        rows = np.arange(len(split))
        first, second = cells[split], cells[split]
        mid = 0.5 * (first[rows, lo] + first[rows, lo + 1])
        first[rows, lo + 1] = mid
        second[rows, lo] = mid
        children = np.concatenate([first, second])
        c_vals, c_errs, c_axes = _eval_cell(chart, f, children)
        # undo the bisections that only resolve rounding noise (see the
        # module docstring); their parents are not split again
        k = len(split)
        pair_val, pair_err = c_vals[:k] + c_vals[k:], c_errs[:k] + c_errs[k:]
        noise = np.all((pair_err >= errs[split]) & (pair_err <= _ROUNDING * np.abs(pair_val)),
                       axis=1)
        if noise.any():
            axes[split[noise]] = -1
            split, took = split[~noise], np.tile(~noise, 2)
            children, c_vals, c_errs, c_axes = (children[took], c_vals[took], c_errs[took],
                                                c_axes[took])
        keep = np.ones(len(cells), dtype=bool)
        keep[split] = False
        cells = np.concatenate([cells[keep], children])
        vals = np.concatenate([vals[keep], c_vals])
        errs = np.concatenate([errs[keep], c_errs])
        axes = np.concatenate([axes[keep], c_axes])
