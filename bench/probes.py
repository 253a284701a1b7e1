"""Reference oracles and micro-probes for the benchmark.

The brute-force distance here shares no code with the package's distance
oracle: it sums the support function's Fourier series itself, takes the
minimum of h(theta) - x.u(theta) over a dense angle grid, and polishes the
best few grid minima by parabolic steps on shrinking brackets.
"""

from __future__ import annotations

import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

_DENSE = 16384       # brute-force grid; its spacing is the first polish bracket
_CANDIDATES = 4      # grid minima polished per point (points near the medial axis)
_POLISH_ROUNDS = 3   # parabolic steps, each on a bracket 64 times narrower
_CHUNK = 64


def support_series(coeffs, theta) -> np.ndarray:
    """h(theta) = sum_j a_j cos(j theta) + b_j sin(j theta)."""
    theta = np.asarray(theta, dtype=float)
    j = np.arange(coeffs.shape[0], dtype=float)
    jt = theta[..., None] * j
    return np.cos(jt) @ coeffs[:, 0] + np.sin(jt) @ coeffs[:, 1]


def brute_force_distance(coeffs, pts) -> np.ndarray:
    """Signed distance min_theta h(theta) - x.u(theta) by dense search and polish."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    grid = np.linspace(0.0, 2 * np.pi, _DENSE, endpoint=False)
    h, c, s = support_series(coeffs, grid), np.cos(grid), np.sin(grid)
    step = grid[1] - grid[0]
    out = np.empty(len(pts))
    for lo in range(0, len(pts), _CHUNK):
        x = pts[lo:lo + _CHUNK]
        g = h[None, :] - np.outer(x[:, 0], c) - np.outer(x[:, 1], s)
        local = (g <= np.roll(g, 1, axis=1)) & (g <= np.roll(g, -1, axis=1))
        ranked = np.where(local, g, np.inf)
        best = np.argpartition(ranked, _CANDIDATES, axis=1)[:, :_CANDIDATES]
        t = grid[best]
        xr = np.repeat(x[:, None, :], _CANDIDATES, axis=1)

        def gap(theta):
            return (support_series(coeffs, theta) - xr[..., 0] * np.cos(theta)
                    - xr[..., 1] * np.sin(theta))

        width = step
        for _ in range(_POLISH_ROUNDS):
            gm, g0, gp = gap(t - width), gap(t), gap(t + width)
            curv = gm - 2.0 * g0 + gp
            shift = np.where(curv > 0, 0.5 * width * (gm - gp) / np.where(curv > 0, curv, 1.0), 0.0)
            t = t + np.clip(shift, -width, width)
            width /= 64.0
        cand = np.minimum(gap(t), np.take_along_axis(ranked, best, axis=1))
        out[lo:lo + len(x)] = np.min(cand, axis=1)
    return out


def interior_points(coeffs, n, rng) -> np.ndarray:
    """n interior points s * b(theta): b is the boundary point with outer normal
    theta, s = sqrt(U) in [0, 1); convexity keeps them inside."""
    theta = rng.uniform(0.0, 2 * np.pi, n)
    j = np.arange(coeffs.shape[0], dtype=float)
    h = support_series(coeffs, theta)
    dh = support_series(np.stack([j * coeffs[:, 1], -j * coeffs[:, 0]], axis=1), theta)  # h'
    u = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    boundary = h[:, None] * u + dh[:, None] * np.stack([-u[:, 1], u[:, 0]], axis=1)
    return np.sqrt(rng.uniform(0.0, 1.0, n))[:, None] * boundary


def distance_probe(pkg, rng) -> dict:
    """Distance queries/s at two batch sizes, and the worst error against brute force."""
    geom = pkg.geom
    square = [[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]]
    domains = {
        "disk": geom.SupportDomain.disk(1.0),
        "ellipse": geom.SupportDomain.ellipse(0.8, 0.5),
        "square": geom.SupportDomain.from_polygon(square),
    }
    out = {}
    for name, dom in domains.items():
        inside = interior_points(dom.coeffs, 16384, rng)
        for batch in (225, 16384):
            pts = inside[:batch]
            blocks = []
            for _ in range(3):
                t0 = time.perf_counter()
                reps = 0
                while reps < 1 or time.perf_counter() - t0 < 0.05:
                    dom._signed_distance_foot(pts)
                    reps += 1
                blocks.append(reps * batch / (time.perf_counter() - t0))
            out[f"geom.dist_qps.{name}.b{batch}"] = (statistics.median(blocks), "1/s")
        if name != "disk":
            pts = interior_points(dom.coeffs, 400, rng)
            fast = dom.boundary_distance_batch(pts)
            err = float(np.max(np.abs(fast - brute_force_distance(dom.coeffs, pts))))
            out[f"geom.dist_max_err.{name}"] = (err, "length")
    return out


ROUNDTRIP_UNITS = {"field.save_s": "s", "field.load_s": "s", "field.file_bytes": "bytes",
                   "field.roundtrip_dev": "stderr"}


def field_roundtrip(pkg, field, rng, workdir) -> dict:
    """Save and reload a field; report timings, file size and the value change."""
    wos = pkg.wos
    pts = interior_points(field.dom.coeffs, 2000, rng)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        path = Path(tmp) / "field.pf"
        t0 = time.perf_counter()
        wos.save_field(field, path)
        t1 = time.perf_counter()
        loaded = wos.load_field(path, dom=field.dom)
        t2 = time.perf_counter()
        size = path.stat().st_size
    dev = np.max(np.abs(loaded.values_at(pts) - field.values_at(pts)))
    values = {"field.save_s": t1 - t0, "field.load_s": t2 - t1, "field.file_bytes": size,
              "field.roundtrip_dev": dev / field.typical_stderr()}
    return {key: (float(values[key]), unit) for key, unit in ROUNDTRIP_UNITS.items()}
