"""Per-layer tracing for the benchmark's traced run.

`Tracer` rebinds stabletau's public callables, and the module-level names
through which its layers call one another, to timing wrappers inside the
benchmark process.  No file of the package changes.  Each wrapper records a
span (calls, inclusive time, self time = inclusive time minus the time of
the wrapped calls it made) and counts work at the boundary where it happens.

Several boundaries are bound by name at import time (for example
`analysis.eval_hessian` and `extension.integrate`), so every rebinding site
is checked to exist and to hold the same function as the definition site; a
renamed or rebound name fails the traced run instead of reading as zero.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

ALPHAS = (0.5, 1.0, 1.5, 2.0)


@dataclass
class Span:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    raised: int = 0


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Use as `with Tracer(pkg) as tr:`; wrappers are removed on exit."""

    def __init__(self, pkg):
        geom, wos, quad = pkg.geom, pkg.wos, pkg.quad
        closedform, extension, analysis = pkg.closedform, pkg.extension, pkg.analysis
        # name, rebinding sites (the first one defines the function), hook run
        # on each result, hook that rewrites the arguments; README maps names
        # to layers
        self._sites = [
            ("foot", [(geom.SupportDomain, "_signed_distance_foot")],
             self._on_foot, None),
            ("cone_dist", [(geom.ConeDomain, "boundary_distance_batch")],
             self._on_cone, None),
            ("estimate_phi", [(wos, "estimate_phi"), (analysis, "estimate_phi")],
             None, None),
            ("build_field", [(wos, "build_field")], None, None),
            ("run_batch", [(wos, "_run_batch")], self._on_run_batch, None),
            ("uniform_block", [(wos, "_uniform_block")], self._on_uniform, None),
            ("exit_law", [(wos.ExitRadiusLaw, "factor")], self._on_exit_law, None),
            ("values_at", [(wos.PhiField, "values_at")], self._on_values, None),
            ("stderr_at", [(wos.PhiField, "stderr_at")], self._on_stderr, None),
            ("hessian_scan", [(analysis, "hessian_scan")], None, None),
            ("eval_hessian",
             [(extension, "eval_hessian"), (analysis, "eval_hessian")], self._on_point, None),
            ("integrate", [(quad, "integrate"), (extension, "integrate")], None, None),
            ("eval_cell", [(quad, "_eval_cell")], None, self._wrap_integrand),
            ("kernel",
             [(closedform, "kernel_K_hess_components"),
              (extension, "kernel_K_hess_components")], self._on_kernel, None),
        ]
        self.spans = {name: Span() for name, *_ in self._sites}
        # the integrand closure is extension code run inside each quadrature cell
        self.spans["integrand"] = Span()
        self.counts = Counter()
        self.per_alpha = defaultdict(lambda: [0, 0, 0.0])  # walks, steps, seconds
        self.point_ms = []
        self._stack = []
        self._saved = []
        self._last_d = None
        self._width = 0

    # -- installation ----------------------------------------------------------

    def __enter__(self):
        for name, sites, on_result, prepare in self._sites:
            owner, attr = sites[0]
            fn = _lookup(owner, attr)
            for alias_owner, alias_attr in sites[1:]:
                if _lookup(alias_owner, alias_attr) is not fn:
                    raise RuntimeError(
                        f"{_label(alias_owner, alias_attr)} no longer refers to "
                        f"{_label(owner, attr)}; update bench/layers.py")
            wrapper = self._wrap(name, fn, on_result, prepare)
            for site in sites:
                self._saved.append((site, fn))
                setattr(site[0], site[1], wrapper)
        return self

    def __exit__(self, *exc):
        for (owner, attr), fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        return False

    def _wrap(self, name, fn, on_result=None, prepare=None):
        span = self.spans[name]
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.raised += 1
                raise
            finally:
                dt = clock() - t0
                child = stack.pop()
                span.calls += 1
                span.total += dt
                span.self_time += dt - child
                if stack:
                    stack[-1] += dt
            if on_result is not None:
                on_result(args, kwargs, out, dt)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def missing(self, expected) -> list:
        """Expected wrappers that never fired."""
        return [name for name in expected if self.spans[name].calls == 0]

    # -- counting hooks ----------------------------------------------------------

    def _on_foot(self, args, kwargs, out, dt):
        self.counts["dist_points"] += len(args[1])
        self._last_d = out[0]

    def _on_cone(self, args, kwargs, out, dt):
        self.counts["dist_points"] += len(args[1])

    def _on_run_batch(self, args, kwargs, out, dt):
        alpha = float(_arg(args, kwargs, 1, "p").alpha)
        sums = out[0]
        rec = self.per_alpha[alpha]
        rec[0] += len(_arg(args, kwargs, 2, "pos0"))
        rec[1] += int(np.sum(sums[3]))
        rec[2] += dt
        self.counts["truncated"] += int(np.sum(sums[2]))

    def _on_uniform(self, args, kwargs, out, dt):
        self._width = _arg(args, kwargs, 4, "width")
        self.counts["uniforms_drawn"] += out.size

    def _on_exit_law(self, args, kwargs, out, dt):
        # the walker passes one radial uniform per live walk of the round
        live = np.size(_arg(args, kwargs, 1, "u"))
        self.counts["live"] += live
        self.counts["uniforms_used"] += self._width * live

    def _on_field(self, args, kwargs, kind):
        pts = np.atleast_2d(_arg(args, kwargs, 1, "pts"))
        self.counts[kind] += len(pts)
        d = self._last_d  # from the distance query this evaluation made
        self.counts["collar"] += int(np.count_nonzero((d > 0) & (d <= args[0].collar)))

    def _on_values(self, args, kwargs, out, dt):
        self._on_field(args, kwargs, "values_points")

    def _on_stderr(self, args, kwargs, out, dt):
        self._on_field(args, kwargs, "stderr_points")

    def _on_point(self, args, kwargs, out, dt):
        self.point_ms.append(1e3 * dt)

    def _on_kernel(self, args, kwargs, out, dt):
        self.counts["kernel_nodes"] += np.shape(args[0])[0]

    def _on_integrand(self, args, kwargs, out, dt):
        self.counts["nodes"] += len(args[0])

    def _wrap_integrand(self, args, kwargs):
        chart, f, *rest = args
        return (chart, self._wrap("integrand", f, self._on_integrand), *rest), kwargs

    # -- metrics -----------------------------------------------------------------

    def metrics(self, wall: float) -> dict:
        """Per-layer metrics of the traced interval; wall is its duration."""
        sp, c = self.spans, self.counts
        out = {}

        def put(name, value, unit):
            out[name] = (float(value), unit)

        dist_s = sp["foot"].total + sp["cone_dist"].total
        dist_calls = sp["foot"].calls + sp["cone_dist"].calls
        put("geom.dist_points", c["dist_points"], "count")
        put("geom.dist_calls", dist_calls, "count")
        put("geom.points_per_call", ratio(c["dist_points"], dist_calls), "count")
        put("geom.dist_s", dist_s, "s")
        put("geom.dist_points_per_s", ratio(c["dist_points"], dist_s), "1/s")
        put("geom.share", ratio(dist_s, wall), "ratio")

        walks = sum(rec[0] for rec in self.per_alpha.values())
        steps = sum(rec[1] for rec in self.per_alpha.values())
        put("wos.walks", walks, "count")
        put("wos.steps", steps, "count")
        for alpha in ALPHAS:
            n, st, secs = self.per_alpha.get(alpha, (0, 0, 0.0))
            put(f"wos.steps_per_walk.alpha{alpha:g}", ratio(st, n), "count")
            put(f"wos.walks_per_s.alpha{alpha:g}", ratio(n, secs), "1/s")
        rounds = sp["uniform_block"].calls
        put("wos.rounds", rounds, "count")
        put("wos.live_per_round", ratio(c["live"], rounds), "count")
        put("wos.uniforms_drawn", c["uniforms_drawn"], "count")
        put("wos.uniforms_used", c["uniforms_used"], "count")
        put("wos.uniform_use_ratio", ratio(c["uniforms_used"], c["uniforms_drawn"]), "ratio")
        put("wos.rng_s", sp["uniform_block"].total, "s")
        put("wos.self_s", sum(sp[n].self_time for n in
                              ("estimate_phi", "build_field", "run_batch", "exit_law")), "s")
        put("wos.truncated", c["truncated"], "count")

        field_pts = c["values_points"] + c["stderr_points"]
        field_s = sp["values_at"].total + sp["stderr_at"].total
        put("field.values_at_points", c["values_points"], "count")
        put("field.stderr_at_points", c["stderr_points"], "count")
        put("field.eval_s", field_s, "s")
        put("field.points_per_s", ratio(field_pts, field_s), "1/s")
        put("field.collar_share", ratio(c["collar"], field_pts), "ratio")

        cells = sp["eval_cell"].calls
        points = sp["eval_hessian"].calls
        put("quad.integrate_calls", sp["integrate"].calls, "count")
        put("quad.cells", cells, "count")
        put("quad.cells_per_point", ratio(cells, points), "count")
        put("quad.nodes_per_eval", ratio(c["nodes"], cells), "count")
        put("quad.cells_per_s", ratio(cells, sp["integrate"].total), "1/s")
        put("quad.self_s", sp["integrate"].self_time + sp["eval_cell"].self_time, "s")
        put("quad.nonconverged", sp["integrate"].raised, "count")

        put("closedform.kernel_nodes", c["kernel_nodes"], "count")
        put("closedform.kernel_s", sp["kernel"].total, "s")
        put("closedform.kernel_nodes_per_s",
            ratio(c["kernel_nodes"], sp["kernel"].total), "1/s")

        put("extension.hessian_s", sp["eval_hessian"].total, "s")
        put("extension.points", points, "count")
        tail_pct = tail_percentile(points)
        ms = np.array(self.point_ms) if self.point_ms else np.zeros(1)
        put("extension.point_p50_ms", np.percentile(ms, 50), "ms")
        put("extension.point_tail_pct", tail_pct, "pct")
        put("extension.point_tail_ms", np.percentile(ms, tail_pct) if tail_pct else 0.0, "ms")
        put("extension.self_s", sp["eval_hessian"].self_time + sp["integrand"].self_time, "s")
        put("analysis.self_s", sp["hessian_scan"].self_time, "s")
        return out


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it (0 if none)."""
    if n < 11:
        return 0
    return int(np.floor(100.0 * (1.0 - 10.0 / n)))


def ratio(a, b) -> float:
    """a / b, or 0 when nothing was measured."""
    return float(a) / float(b) if b else 0.0


def _label(owner, attr) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__}.{owner.__qualname__}.{attr}"
    return f"{owner.__name__}.{attr}"


def _lookup(owner, attr):
    fn = getattr(owner, attr, None)
    if not callable(fn):
        raise RuntimeError(f"cannot trace {_label(owner, attr)}: no such callable; "
                           "update bench/layers.py")
    return fn
