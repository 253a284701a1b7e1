"""Command-line front end: solve, field-build, hessian-scan, exponent-fit,
deform-sweep, cone-hunt.

Every command accepts --seed, --threads, --config, --out and --format; output
files carry 17 significant digits, terminal summaries 6.  Exit codes: 0 ok,
2 domain or point errors, 3 I/O, 4 usage, 5 non-converged numerics.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import sys

import numpy as np

from . import analysis
from .closedform import StableParams
from .errors import (
    DomainFileError,
    InsufficientRangeError,
    NonConvergedError,
    StableTauError,
)
from .extension import DiskPhi, ExtensionContext
from .geom import ConeDomain, SupportDomain, builtin_domain, deform, load_domain
from .quad import QuadSpec
from .wos import PhiField, WalkConfig, build_field, estimate_phi, load_field, save_field

EXIT_OK, EXIT_DOMAIN, EXIT_IO, EXIT_USAGE, EXIT_NUMERIC = 0, 2, 3, 4, 5


class UsageError(StableTauError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _resolve_domain(ns):
    if getattr(ns, "domain", None):
        return load_domain(ns.domain), ns.domain
    spec = getattr(ns, "builtin", None) or "disk"
    try:
        return builtin_domain(spec), f"builtin:{spec}"
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_at(text: str) -> np.ndarray:
    try:
        return np.array([float(t) for t in text.split(",")])
    except ValueError as exc:
        raise UsageError(f"malformed --at value {text!r}") from exc


_REGIONS = {"cylinder": ("M", 3.0), "slab": ("margin", 0.02)}  # parameter, default


def _parse_region(text: str):
    name, colon, param = text.partition(":")
    if name not in _REGIONS:
        raise UsageError(f"unknown --region {text!r} (use cylinder[:M=m] or slab[:margin=m])")
    key, value = _REGIONS[name]
    if colon:
        try:
            got, raw = param.split("=")
            if got != key:
                raise ValueError(f"unknown {name} parameter {got!r}")
            value = float(raw)
        except ValueError as exc:
            raise UsageError(f"malformed --region {text!r}: {exc}") from exc
    return name, value


def _parse_points(text: str) -> int:
    kind, _, count = text.partition(":")
    if kind != "halton" or not count.isdigit():
        raise UsageError(f"malformed points spec {text!r} (use halton:N)")
    if int(count) < 1:
        raise UsageError(f"points spec {text!r} asks for no points (use halton:N with N >= 1)")
    return int(count)


def _parse_which(text: str):
    if text == "u":
        return "u", 0.0, 0.0
    kind, _, val = text.partition(":")
    try:
        if kind == "veps":
            return "veps", float(val), 0.0
        if kind == "psib":
            return "psib", 0.0, float(val)
    except ValueError as exc:
        raise UsageError(f"malformed --which value {text!r}") from exc
    raise UsageError(f"unknown --which value {text!r}")


def _parse_h(text: str) -> np.ndarray:
    try:
        start, stop, kind, n = text.split(":")
        n = int(n)
        if kind == "geometric":
            return np.geomspace(float(start), float(stop), n)
        if kind == "linear":
            return np.linspace(float(start), float(stop), n)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"malformed --h spec {text!r}") from exc
    raise UsageError(f"unknown --h progression {text!r}")


def _parse_t(text: str) -> np.ndarray:
    try:
        start, stop, n = text.split(":")
        return np.linspace(float(start), float(stop), int(n))
    except ValueError as exc:
        raise UsageError(f"malformed --t spec {text!r}") from exc


def _config_args(ns, sp) -> list:
    """The [command] section of the --config file as command-line arguments, so
    that its values are parsed and checked as the command line's are."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        found = cp.read(ns.config)
    except configparser.Error as exc:
        raise DomainFileError(f"config file {ns.config!r}: {exc}") from exc
    if not found:
        raise DomainFileError(f"config file {ns.config!r} not found")
    options = {a.dest: a for a in sp._actions
               if a.option_strings and a.dest not in ("help", "config")}
    args = []
    for key, raw in cp.items(ns.command) if cp.has_section(ns.command) else ():
        action = options.get(key.replace("-", "_"))
        if action is None:
            raise UsageError(f"unknown config key {key!r} in [{ns.command}]")
        if action.nargs != 0:
            args.append(f"{action.option_strings[0]}={raw}")
        elif raw.lower() not in cp.BOOLEAN_STATES:
            raise UsageError(f"config flag {key!r} takes true or false, not {raw!r}")
        elif cp.BOOLEAN_STATES[raw.lower()]:
            args.append(action.option_strings[0])
    return args


def _need(ns, name, default=None, cast=str):
    val = getattr(ns, name, None)
    if val is None:
        if default is None:
            raise UsageError(f"missing required option --{name.replace('_', '-')}")
        val = default
    try:
        return cast(val)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad value for --{name.replace('_', '-')}: {val!r}") from exc


def _count(text) -> int:
    return int(float(text))  # counts may be written as 1e6


def _threads(ns) -> int:
    n = _need(ns, "threads", "1", int)
    if n < 1:
        raise UsageError(f"--threads must be >= 1, got {n}")
    return n


def _checked(options: str, make, *args, **kwargs):
    """make(*args, **kwargs), whose ValueError (a value out of range) becomes a
    usage error naming the options the values came from."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(f"{options}: {exc}") from exc


def _write_rows(path, fmt, header, rows):
    if fmt == "json":
        payload = [dict(zip(header, row)) for row in rows]
        with open(path, "w") as fh:
            fh.write(analysis._json_dump(payload))
    else:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for row in rows:
                w.writerow([analysis.fmt17(v) if isinstance(v, float) else v
                            for v in row])


def _phi_context(ns, dom, domain_ref):
    field_path = getattr(ns, "field", None)
    if field_path:
        phi = load_field(field_path)
        return ExtensionContext(phi.dom, phi)
    if isinstance(dom, SupportDomain) and dom._disk_radius is not None:
        return ExtensionContext(dom, DiskPhi(dom._disk_radius))
    raise UsageError(
        f"{domain_ref}: no closed-form field; build one with field-build and pass --field")


# -- commands ---------------------------------------------------------------------------

def cmd_solve(ns) -> int:
    dom, _ = _resolve_domain(ns)
    alpha = _need(ns, "alpha", cast=float)
    at = _parse_at(_need(ns, "at"))
    p = _checked("--alpha", StableParams, alpha, at.size)
    cfg = _checked(
        "--walks, --ball-fraction or --max-steps", WalkConfig,
        n_walks=_need(ns, "walks", "100000", _count),
        ball_fraction=_need(ns, "ball_fraction", "0.5", float),
        max_steps=_need(ns, "max_steps", "10000", _count),
        seed=_need(ns, "seed", "0", int),
    )
    est = estimate_phi(dom, p, at, cfg, n_threads=_threads(ns))
    print(f"mean={est.mean:.6g} stderr={est.std_error:.6g} walks={est.n_walks} "
          f"truncated={est.truncated} mean_steps={est.mean_steps:.6g}")
    if est.truncated:
        print("warning: truncated walks present; estimate is biased low")
    if ns.out:
        _write_rows(ns.out, ns.format or "csv",
                    ["mean", "std_error", "n_walks", "truncated", "mean_steps"],
                    [[est.mean, est.std_error, est.n_walks, est.truncated,
                      est.mean_steps]])
    return EXIT_OK


def cmd_field_build(ns) -> int:
    dom, ref = _resolve_domain(ns)
    if not isinstance(dom, SupportDomain):
        raise UsageError("field-build requires a support-function domain")
    p = _checked("--alpha", StableParams, _need(ns, "alpha", cast=float), 2)
    cfg = _checked(
        "--walks-per-node, --ball-fraction or --max-steps", WalkConfig,
        n_walks=_need(ns, "walks_per_node", "10000", _count),
        ball_fraction=_need(ns, "ball_fraction", "0.5", float),
        max_steps=_need(ns, "max_steps", "10000", _count),
        seed=_need(ns, "seed", "0", int),
    )
    spacing = _need(ns, "spacing", cast=float)
    if not spacing > 0:
        raise UsageError(f"--spacing must be positive, got {spacing:g}")
    field = build_field(dom, p, spacing, cfg, n_threads=_threads(ns), domain_ref=ref)
    out = _need(ns, "out")
    save_field(field, out)
    n_nodes = int(np.count_nonzero(field.reliable))
    print(f"field written to {out}: {n_nodes} estimated nodes, spacing={spacing:.6g}, "
          f"typical stderr={field.typical_stderr():.6g}")
    return EXIT_OK


def cmd_hessian_scan(ns) -> int:
    dom, ref = _resolve_domain(ns)
    ctx = _phi_context(ns, dom, ref)
    region = _parse_region(_need(ns, "region", "cylinder:M=3"))
    n_points = _parse_points(_need(ns, "points", "halton:500"))
    which, eps, b = _parse_which(_need(ns, "which", "u"))
    _threads(ns)  # checked as on the pooled commands, though scan points run in order
    if region[0] == "cylinder":
        pts = _checked("--region", analysis.cylinder_points, region[1], n_points)
        descriptor = f"cylinder M={region[1]:g}, halton {n_points}"
    else:
        pts = _checked("--region", analysis.slab_points, ctx.dom, n_points, margin=region[1])
        descriptor = f"slab margin={region[1]:g}, halton {n_points}"
    if getattr(ns, "include_reflected", False) and region[0] == "cylinder":
        pts = np.concatenate([pts, pts * np.array([1.0, 1.0, -1.0])])
        descriptor += " + reflected"
    rep = analysis.hessian_scan(ctx, pts, which, eps=eps, b=b, descriptor=descriptor)
    print(rep.summary())
    if ns.out:
        rep.to_json(ns.out) if (ns.format == "json") else rep.to_csv(ns.out)
    return EXIT_OK


def cmd_exponent_fit(ns) -> int:
    dom, ref = _resolve_domain(ns)
    ctx = _phi_context(ns, dom, ref)
    probe = _need(ns, "probe")
    quantity = _need(ns, "quantity")
    h = _parse_h(_need(ns, "h", "0.005:0.05:geometric:6"))
    try:
        fit = _checked("--probe or --quantity", analysis.boundary_exponent_fit,
                       ctx, probe, quantity, h)
    except InsufficientRangeError as exc:
        raise UsageError(f"--h: {exc}") from exc
    target = analysis.target_slope(probe, quantity)
    extra = f" (target {target:+.2f})" if target is not None else " (no target)"
    print(fit.summary() + extra)
    if ns.out:
        fit.to_json(ns.out) if (ns.format == "json") else fit.to_csv(ns.out)
    return EXIT_OK


def cmd_deform_sweep(ns) -> int:
    dom, _ = _resolve_domain(ns)
    if not isinstance(dom, SupportDomain):
        raise UsageError("deform-sweep requires a support-function domain")
    t_grid = _parse_t(_need(ns, "t", "0:1:11"))
    rep = _checked("--t", analysis.deformation_sweep, dom, t_grid)
    print(rep.summary())
    for i, t in enumerate(t_grid):
        r1, k1, k2 = rep.values[i, 0], rep.values[i, 1], rep.values[i, 2]
        print(f"  t={t:.3g}: R1={r1:.6g} kappa=[{k1:.6g}, {k2:.6g}] {rep.verdicts[i]}")
    if ns.out:
        rep.to_json(ns.out) if (ns.format == "json") else rep.to_csv(ns.out)
    return EXIT_OK if rep.n_fail == 0 else EXIT_NUMERIC


def cmd_cone_hunt(ns) -> int:
    alpha = _need(ns, "alpha", cast=float)
    theta = _need(ns, "theta", cast=float)
    dim = _need(ns, "dim", "2", int)
    cone = _checked("--theta or --dim", ConeDomain, theta, dim)
    p = _checked("--alpha", StableParams, alpha, dim)
    cfg = _checked("--walks", WalkConfig, n_walks=_need(ns, "walks", "100000", _count),
                   seed=_need(ns, "seed", "0", int))
    rep = _checked("--alpha", analysis.cone_nonconcavity_hunt, cone, p, cfg,
                   n_threads=_threads(ns))
    print(rep.summary())
    if rep.witnesses:
        best = max(rep.witnesses, key=lambda w: w["value"])
        print(f"witness: axis triple {best['point']} violates concavity at "
              f"{best['value']:.3g} sigma")
    else:
        print("no concavity-violation witness found at 5 sigma")
    if not rep.config["axis_profile_nondecreasing"]:
        print("note: axis profile not nondecreasing within 3 sigma")
    if ns.out:
        rep.to_json(ns.out) if (ns.format == "json") else rep.to_csv(ns.out)
    return EXIT_OK


_COMMANDS = {
    "solve": cmd_solve,
    "field-build": cmd_field_build,
    "hessian-scan": cmd_hessian_scan,
    "exponent-fit": cmd_exponent_fit,
    "deform-sweep": cmd_deform_sweep,
    "cone-hunt": cmd_cone_hunt,
}


def _build_parser():
    """The parser and its subcommand parsers by name."""
    parser = _Parser(prog="stabletau", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = dict(default=None)
    for name in _COMMANDS:
        sp = sub.add_parser(name, add_help=True)
        sp.add_argument("--builtin", **common)
        sp.add_argument("--domain", **common)
        sp.add_argument("--config", **common)
        sp.add_argument("--seed", **common)
        sp.add_argument("--threads", **common)
        sp.add_argument("--out", **common)
        sp.add_argument("--format", choices=["csv", "json"], default=None)
        if name in ("solve", "cone-hunt"):
            sp.add_argument("--walks", **common)
        if name == "solve":
            sp.add_argument("--alpha", **common)
            sp.add_argument("--at", **common)
            sp.add_argument("--ball-fraction", dest="ball_fraction", **common)
            sp.add_argument("--max-steps", dest="max_steps", **common)
        if name == "field-build":
            sp.add_argument("--alpha", **common)
            sp.add_argument("--spacing", **common)
            sp.add_argument("--walks-per-node", dest="walks_per_node", **common)
            sp.add_argument("--ball-fraction", dest="ball_fraction", **common)
            sp.add_argument("--max-steps", dest="max_steps", **common)
        if name == "hessian-scan":
            sp.add_argument("--region", **common)
            sp.add_argument("--points", **common)
            sp.add_argument("--which", **common)
            sp.add_argument("--field", **common)
            sp.add_argument("--include-reflected", dest="include_reflected",
                            action="store_true")
        if name == "exponent-fit":
            sp.add_argument("--probe", **common)
            sp.add_argument("--quantity", **common)
            sp.add_argument("--h", **common)
            sp.add_argument("--field", **common)
        if name == "deform-sweep":
            sp.add_argument("--t", **common)
        if name == "cone-hunt":
            sp.add_argument("--alpha", **common)
            sp.add_argument("--theta", **common)
            sp.add_argument("--dim", **common)
    return parser, sub.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser, subs = _build_parser()
        ns = parser.parse_args(argv)
        if ns.config:  # the file's arguments go first, so the command line's win
            ns = parser.parse_args([ns.command, *_config_args(ns, subs[ns.command]), *argv[1:]])
        return _COMMANDS[ns.command](ns)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonConvergedError as exc:
        print(f"numerics failed to converge: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DomainFileError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except StableTauError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
