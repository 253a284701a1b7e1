"""Adaptive two-dimensional quadrature over convex support-function domains.

The domain is charted in polar coordinates about an interior (or boundary)
anchor: y = c + rho * R(psi) u(psi) with (psi, rho) in [0, 2pi] x [0, 1] and
Jacobian rho R(psi)^2.  Cells are rectangles in chart coordinates, so every
cell conforms to the boundary; each is integrated with a tensor Gauss-Kronrod
7/15 pair and the worst cells (by error vs tolerance) are quadrisected until
the component-wise tolerance is met or the cell budget runs out.

Integrands must be vectorised: f maps an (n, 2) array of points to (n,), or to
(n, m) for a vector integrand whose components then share one adaptive mesh.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, replace

import numpy as np

from .errors import NonConvergedError

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
_WK2 = np.multiply.outer(_WGK, _WGK)
_WG2 = np.multiply.outer(_WG15, _WG15)


@dataclass(frozen=True)
class QuadSpec:
    rel_tol: float = 1e-6
    abs_tol: float = 1e-10
    max_cells: int = 4096
    singular_center: tuple | None = None

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_cells < 64:
            raise ValueError("max_cells must be >= 64")

    def with_singular_center(self, c) -> "QuadSpec":
        return replace(self, singular_center=(float(c[0]), float(c[1])))


class _PolarChart:
    """Radial extent R(psi) of the domain about an anchor c in the closed domain."""

    def __init__(self, dom, center):
        self.dom = dom
        self.center = np.asarray(center, dtype=float)
        if dom._disk_radius is None:
            from .geom import _unit
            self._unit = _unit
            self._g_grid = dom._seed_h - dom._seed_u @ self.center

    def radial_extent(self, psi: np.ndarray) -> np.ndarray:
        dom, c = self.dom, self.center
        if dom._disk_radius is not None:
            a = dom._disk_radius
            cu = c[0] * np.cos(psi) + c[1] * np.sin(psi)
            disc = np.maximum(cu * cu + a * a - c @ c, 0.0)
            return np.maximum(-cu + np.sqrt(disc), 0.0)
        ct = np.cos(dom._seed_theta[None, :] - psi[:, None])
        ratio = np.where(ct > 0.05, self._g_grid[None, :] / np.maximum(ct, 0.05), np.inf)
        theta = dom._seed_theta[np.argmin(ratio, axis=1)]
        cap = 2 * np.pi / dom._seed_theta.size
        for _ in range(4):
            h, h1, h2 = dom._support_012(theta)
            cth, sth = np.cos(theta), np.sin(theta)
            g = h - (c[0] * cth + c[1] * sth)
            gp = h1 - (-c[0] * sth + c[1] * cth)
            t = theta - psi
            num = gp * np.cos(t) + g * np.sin(t)
            den = (h + h2) * np.cos(t)
            den = np.where(np.abs(den) < 1e-14, 1e-14, den)
            theta = theta - np.clip(num / den, -cap, cap)
        g = dom.support(theta) - self._unit(theta) @ c
        return np.maximum(g / np.maximum(np.cos(theta - psi), 1e-12), 0.0)


def _eval_cell(chart, f, cell, radial_cache):
    """Kronrod/Gauss pair on one chart rectangle.

    Returns (value, error, split_axis) where split_axis picks the direction
    whose one-axis Gauss downgrade loses the most accuracy (0 = psi, 1 = rho).
    """
    p0, p1, r0, r1 = cell
    pm, ph = 0.5 * (p0 + p1), 0.5 * (p1 - p0)
    rm, rh = 0.5 * (r0 + r1), 0.5 * (r1 - r0)
    key = (p0, p1)
    cached = radial_cache.get(key)
    if cached is None:
        psi = pm + ph * _XGK
        R = chart.radial_extent(psi)
        u = np.stack([np.cos(psi), np.sin(psi)], axis=-1)
        cached = radial_cache[key] = (R, u)
        if len(radial_cache) > 4096:
            radial_cache.clear()
    R, u = cached
    rho = rm + rh * _XGK
    rad = rho[None, :] * R[:, None]
    pts = chart.center[None, None, :] + rad[:, :, None] * u[:, None, :]
    nodes = pts.reshape(-1, 2)
    vals = np.asarray(f(nodes), dtype=float)
    if vals.shape[:1] != (len(nodes),):
        raise ValueError(f"integrand returned shape {vals.shape} for {len(nodes)} nodes; "
                         f"expected ({len(nodes)},) or ({len(nodes)}, m)")
    if vals.ndim == 1:
        vals = vals[:, None]
    m = vals.shape[1]
    vals = vals.reshape(15, 15, m)
    jac = (rad * R[:, None]) * (ph * rh)
    wv = jac[:, :, None] * vals
    vk = np.einsum("ij,ijm->m", _WK2, wv)
    v_gpsi = np.einsum("i,j,ijm->m", _WG15, _WGK, wv)   # Gauss in psi only
    v_grho = np.einsum("i,j,ijm->m", _WGK, _WG15, wv)   # Gauss in rho only
    err_psi = np.abs(vk - v_gpsi)
    err_rho = np.abs(vk - v_grho)
    err = np.abs(vk - np.einsum("ij,ijm->m", _WG2, wv))
    err = np.maximum(err, np.maximum(err_psi, err_rho))
    axis = 0 if float(np.max(err_psi)) >= float(np.max(err_rho)) else 1
    return vk, err, axis


def integrate(dom, f, spec: QuadSpec | None = None):
    """Adaptively integrate f over dom to the spec's component-wise tolerance.

    Returns (value, err_estimate); floats for scalar integrands, arrays of
    matching length for vector integrands.  Raises NonConvergedError (carrying
    the best value and estimate) if the cell budget is exhausted first.
    """
    spec = spec or QuadSpec()
    if spec.singular_center is not None:
        center = np.asarray(spec.singular_center, dtype=float)
        if dom.signed_distance(center) <= 0.0:
            center, _, _ = dom.nearest_boundary(center)
    else:
        center = np.zeros(2)
    chart = _PolarChart(dom, center)

    cells = {}
    counter = itertools.count()
    heap = []
    scalar_result = [None]
    radial_cache = {}

    def push(cell):
        vk, err, axis = _eval_cell(chart, f, cell, radial_cache)
        if scalar_result[0] is None:
            scalar_result[0] = vk.size == 1
        cid = next(counter)
        cells[cid] = (cell, vk, err, axis)
        return cid, vk, err

    total_val = None
    total_err = None
    for i in range(8):
        for j in range(4):
            _, vk, err = push((2 * np.pi * i / 8, 2 * np.pi * (i + 1) / 8, j / 4, (j + 1) / 4))
            total_val = vk.copy() if total_val is None else total_val + vk
            total_err = err.copy() if total_err is None else total_err + err

    def tol_vec():
        return np.maximum(spec.rel_tol * np.abs(total_val), spec.abs_tol)

    for cid, (cell, vk, err, axis) in cells.items():
        pri = float(np.max(err / tol_vec()))
        heapq.heappush(heap, (-pri, cid))

    def finish():
        # re-sum in cell-id order: removes incremental float drift and keeps
        # results bitwise deterministic
        val = np.zeros_like(total_val)
        err = np.zeros_like(total_err)
        for cid in sorted(cells):
            _, vk, ek, _ = cells[cid]
            val = val + vk
            err = err + ek
        if scalar_result[0]:
            return float(val[0]), float(err[0])
        return val, err

    while np.any(total_err > tol_vec()):
        if len(cells) >= spec.max_cells or not heap:
            val, err = finish()
            raise NonConvergedError(val, err)
        _, cid = heapq.heappop(heap)
        if cid not in cells:
            continue
        cell, vk, err, axis = cells.pop(cid)
        p0, p1, r0, r1 = cell
        # below ~1e-12 width the Kronrod nodes collide with the cell edge in
        # floating point (edge-singular integrands would be sampled at the edge)
        can_psi = (p1 - p0) >= 1e-12
        can_rho = (r1 - r0) >= 1e-12
        if not (can_psi or can_rho):
            cells[cid] = (cell, vk, err, axis)  # cannot refine further; keep it
            continue
        total_val = total_val - vk
        total_err = total_err - err
        if (axis == 0 and can_psi) or not can_rho:
            pm = 0.5 * (p0 + p1)
            children = [(p0, pm, r0, r1), (pm, p1, r0, r1)]
        else:
            rm = 0.5 * (r0 + r1)
            children = [(p0, p1, r0, rm), (p0, p1, rm, r1)]
        for child in children:
            ncid, nvk, nerr = push(child)
            total_val = total_val + nvk
            total_err = total_err + nerr
            pri = float(np.max(nerr / tol_vec()))
            heapq.heappush(heap, (-pri, ncid))

    return finish()
