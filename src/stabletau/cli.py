"""Command-line front end: solve, field-build, hessian-scan, exponent-fit,
deform-sweep, cone-hunt.

Each option is declared once, as a row of flag, type, default and whether it
is required, and a command takes exactly the options it reads, plus --config;
argparse converts and checks every value, so a bad value, or an option the
command would not read, is a usage error naming its option.  A --field file
names its own domain, so neither --builtin nor --domain goes with it.  Output
files carry 17 significant digits, terminal summaries 6.  Exit codes: 0 ok,
2 domain or point errors, 3 I/O, 4 usage, 5 non-converged numerics.
"""

from __future__ import annotations

import configparser
import math
import os
import sys
from argparse import ArgumentParser, ArgumentTypeError

import numpy as np

from . import analysis
from .closedform import StableParams
from .errors import DomainFileError, InsufficientRangeError, NonConvergedError, StableTauError
from .extension import DiskPhi, ExtensionContext
from .geom import ConeDomain, SupportDomain, builtin_domain, load_domain
from .wos import WalkConfig, build_field, estimate_phi, load_field, save_field

EXIT_OK, EXIT_DOMAIN, EXIT_IO, EXIT_USAGE, EXIT_NUMERIC = 0, 2, 3, 4, 5


class UsageError(StableTauError):
    pass


class _Parser(ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _resolve_domain(ns):
    """The --domain file's domain, else the --builtin one, else the unit disk."""
    if ns.domain:
        return load_domain(ns.domain), ns.domain
    spec = "disk" if ns.builtin is None else ns.builtin
    try:
        return builtin_domain(spec), f"builtin:{spec}"
    except ValueError as exc:
        raise UsageError(f"--builtin: {exc}") from exc


# -- option types: argparse reports their errors under the option's name -----------------

def _parse_at(text: str) -> np.ndarray:
    try:
        return np.array([float(t) for t in text.split(",")])
    except ValueError as exc:
        raise ArgumentTypeError(f"malformed point {text!r} (use x1,x2[,...])") from exc


_REGIONS = {"cylinder": ("M", 3.0), "slab": ("margin", 0.02)}  # parameter, default


def _parse_region(text: str):
    name, colon, param = text.partition(":")
    got, _, raw = param.partition("=")
    if name in _REGIONS and (not colon or got == _REGIONS[name][0]):
        try:
            value = float(raw) if colon else _REGIONS[name][1]
        except ValueError:
            pass
        else:
            if not math.isfinite(value):
                raise ArgumentTypeError(f"region parameter must be finite, got {raw}")
            return name, value
    raise ArgumentTypeError(f"malformed region {text!r} (use cylinder[:M=m] or slab[:margin=m])")


def _parse_points(text: str) -> int:
    kind, _, count = text.partition(":")
    if kind != "halton" or not count.isdigit() or int(count) < 1:
        raise ArgumentTypeError(f"malformed points spec {text!r} (use halton:N with N >= 1)")
    return int(count)


def _parse_which(text: str):
    if text == "u":
        return "u", 0.0, 0.0
    kind, _, val = text.partition(":")
    if kind not in ("veps", "psib"):
        raise ArgumentTypeError(f"unknown value {text!r} (use u, veps:EPS or psib:B)")
    try:
        value = float(val)
    except ValueError as exc:
        raise ArgumentTypeError(f"malformed value {text!r}") from exc
    if not math.isfinite(value):
        raise ArgumentTypeError(f"{kind}:{val}: the value must be finite")
    return (kind, value, 0.0) if kind == "veps" else (kind, 0.0, value)


_PROGRESSIONS = {"geometric": np.geomspace, "linear": np.linspace}


def _parse_h(text: str) -> np.ndarray:
    try:
        start, stop, kind, n = text.split(":")
        ends = float(start), float(stop)
        if all(0 < end < math.inf for end in ends):  # then so is every h between them
            return _PROGRESSIONS[kind](*ends, int(n))
    except (ValueError, KeyError) as exc:
        raise ArgumentTypeError(
            f"malformed spec {text!r} (use start:stop:geometric:n or start:stop:linear:n)") from exc
    raise ArgumentTypeError(f"start and stop must be finite and positive, got {text!r}")


def _parse_t(text: str) -> np.ndarray:
    try:
        start, stop, n = text.split(":")
        return np.linspace(float(start), float(stop), int(n))
    except ValueError as exc:
        raise ArgumentTypeError(f"malformed spec {text!r} (use start:stop:n)") from exc


def _count(text: str) -> int:
    try:
        value = float(text)  # counts may be written as 1e6
    except ValueError as exc:
        raise ArgumentTypeError(f"not a count: {text!r}") from exc
    if not value.is_integer():  # 2.7, inf and nan are no counts
        raise ArgumentTypeError(f"not a whole count: {text!r}")
    return int(value)


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise ArgumentTypeError(f"not a seed: {text!r}") from exc
    if not 0 <= value < 1 << 64:
        raise ArgumentTypeError(f"a seed lies in [0, 2**64), got {text}")
    return value


def _positive(cast):
    def parse(text: str):
        value = cast(text)
        if not 0 < value < math.inf:
            raise ArgumentTypeError(f"must be finite and positive, got {text}")
        return value

    parse.__name__ = cast.__name__  # argparse names the type in its messages
    return parse


# -- commands ---------------------------------------------------------------------------

def _checked(options: str, make, *args, **kwargs):
    """make(*args, **kwargs), whose ValueError (a value out of range) becomes a
    usage error naming the options the values came from."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(f"{options}: {exc}") from exc


def _phi_context(ns):
    """The --field file's field on the domain the file names, else the
    closed-form field of a disk domain."""
    if ns.field:
        given = [flag for flag, value in (("--builtin", ns.builtin), ("--domain", ns.domain))
                 if value is not None]
        if given:
            raise UsageError(f"{' and '.join(given)}: the --field file names its own domain")
        phi = load_field(ns.field)
        return ExtensionContext(phi.dom, phi)
    dom, domain_ref = _resolve_domain(ns)
    if isinstance(dom, SupportDomain) and dom._disk_radius is not None:
        return ExtensionContext(dom, DiskPhi(dom._disk_radius))
    raise UsageError(
        f"{domain_ref}: no closed-form field; build one with field-build and pass --field")


def _save(report, ns):
    if ns.out:
        report.to_json(ns.out) if ns.format == "json" else report.to_csv(ns.out)


def cmd_solve(ns) -> int:
    dom, _ = _resolve_domain(ns)
    p = _checked("--alpha", StableParams, ns.alpha, ns.at.size)
    cfg = _checked("--walks or --max-steps", WalkConfig,
                   n_walks=ns.walks, max_steps=ns.max_steps, seed=ns.seed)
    est = estimate_phi(dom, p, ns.at, cfg)
    print(f"mean={est.mean:.6g} stderr={est.std_error:.6g} walks={est.n_walks} "
          f"truncated={est.truncated} mean_steps={est.mean_steps:.6g}")
    if est.truncated:
        print("warning: truncated walks present; estimate is biased low")
    if ns.out:
        header = ["mean", "std_error", "n_walks", "truncated", "mean_steps"]
        analysis.write_rows(ns.out, ns.format, header, [[getattr(est, k) for k in header]])
    return EXIT_OK


def cmd_field_build(ns) -> int:
    dom, ref = _resolve_domain(ns)
    if not isinstance(dom, SupportDomain):
        raise UsageError("field-build requires a support-function domain")
    p = _checked("--alpha", StableParams, ns.alpha, 2)
    cfg = _checked("--walks-per-node or --max-steps", WalkConfig,
                   n_walks=ns.walks_per_node, max_steps=ns.max_steps, seed=ns.seed)
    if ns.domain:  # the field file names its domain relative to itself
        ref = os.path.relpath(ns.domain, os.path.dirname(os.path.abspath(ns.out)))
    field = build_field(dom, p, ns.spacing, cfg, domain_ref=ref)
    save_field(field, ns.out)
    n_nodes = int(np.count_nonzero(field.reliable))
    print(f"field written to {ns.out}: {n_nodes} estimated nodes, spacing={ns.spacing:.6g}, "
          f"typical stderr={field.typical_stderr():.6g}")
    return EXIT_OK


def cmd_hessian_scan(ns) -> int:
    ctx = _phi_context(ns)
    (region, size), n_points = ns.region, ns.points
    if ns.include_reflected and region == "slab":
        raise UsageError("--include-reflected: slab points lie on x3 = 0 and have no reflection")
    if region == "cylinder":
        pts = _checked("--region", analysis.cylinder_points, size, n_points)
    else:
        pts = _checked("--region", analysis.slab_points, ctx.dom, n_points, margin=size)
    descriptor = f"{region} {_REGIONS[region][0]}={size:g}, halton {n_points}"
    if ns.include_reflected:
        pts = np.concatenate([pts, pts * np.array([1.0, 1.0, -1.0])])
        descriptor += " + reflected"
    which, eps, b = ns.which
    rep = analysis.hessian_scan(ctx, pts, which, eps=eps, b=b, descriptor=descriptor)
    print(rep.summary())
    _save(rep, ns)
    return EXIT_OK


def cmd_exponent_fit(ns) -> int:
    ctx = _phi_context(ns)
    try:
        fit = _checked("--probe or --quantity", analysis.boundary_exponent_fit,
                       ctx, ns.probe, ns.quantity, ns.h)
    except InsufficientRangeError as exc:
        raise UsageError(f"--h: {exc}") from exc
    target = analysis.target_slope(ns.probe, ns.quantity)
    extra = f" (target {target:+.2f})" if target is not None else " (no target)"
    print(fit.summary() + extra)
    _save(fit, ns)
    return EXIT_OK


def cmd_deform_sweep(ns) -> int:
    dom, _ = _resolve_domain(ns)
    if not isinstance(dom, SupportDomain):
        raise UsageError("deform-sweep requires a support-function domain")
    rep = _checked("--t", analysis.deformation_sweep, dom, ns.t)
    print(rep.summary())
    for t, (r1, k1, k2), verdict in zip(ns.t, rep.values[:, :3], rep.verdicts):
        print(f"  t={t:.3g}: R1={r1:.6g} kappa=[{k1:.6g}, {k2:.6g}] {verdict}")
    _save(rep, ns)
    return EXIT_OK if rep.n_fail == 0 else EXIT_NUMERIC


def cmd_cone_hunt(ns) -> int:
    cone = _checked("--theta or --dim", ConeDomain, ns.theta, ns.dim)
    p = _checked("--alpha", StableParams, ns.alpha, ns.dim)
    cfg = _checked("--walks", WalkConfig, n_walks=ns.walks, seed=ns.seed)
    rep = _checked("--alpha", analysis.cone_nonconcavity_hunt, cone, p, cfg)
    print(rep.summary())
    if rep.witnesses:
        best = max(rep.witnesses, key=lambda w: w["value"])
        print(f"witness: axis triple {best['point']} violates concavity at "
              f"{best['value']:.3g} sigma")
    else:
        print("no concavity-violation witness found at 5 sigma")
    if not rep.config["axis_profile_nondecreasing"]:
        print("note: axis profile not nondecreasing within 3 sigma")
    _save(rep, ns)
    return EXIT_OK


# -- options: flag, type, default, required -----------------------------------------------
# A default is text that argparse parses with the option's type, as if it had
# been given; a type of None makes a flag, and a tuple lists the choices.

_DOMAIN = [
    ("--builtin", str, None, False),  # with no --domain either, the unit disk
    ("--domain", str, None, False),
]
_SEED = [("--seed", _seed, "0", False)]
_OUT = [("--out", str, None, False), ("--format", ("csv", "json"), "csv", False)]
_MAX_STEPS = ("--max-steps", _count, "10000", False)

_COMMANDS = {
    "solve": (cmd_solve, [
        ("--alpha", float, None, True), ("--at", _parse_at, None, True),
        ("--walks", _count, "100000", False), _MAX_STEPS, *_DOMAIN, *_SEED, *_OUT]),
    "field-build": (cmd_field_build, [
        ("--alpha", float, None, True), ("--spacing", _positive(float), None, True),
        ("--walks-per-node", _count, "10000", False), _MAX_STEPS, ("--out", str, None, True),
        *_DOMAIN, *_SEED]),
    "hessian-scan": (cmd_hessian_scan, [
        ("--region", _parse_region, "cylinder", False),
        ("--points", _parse_points, "halton:500", False), ("--which", _parse_which, "u", False),
        ("--field", str, None, False), ("--include-reflected", None, None, False),
        *_DOMAIN, *_OUT]),
    "exponent-fit": (cmd_exponent_fit, [
        ("--probe", str, None, True), ("--quantity", str, None, True),
        ("--h", _parse_h, "0.005:0.05:geometric:6", False), ("--field", str, None, False),
        *_DOMAIN, *_OUT]),
    "deform-sweep": (cmd_deform_sweep, [("--t", _parse_t, "0:1:11", False), *_DOMAIN, *_OUT]),
    "cone-hunt": (cmd_cone_hunt, [  # the hunt builds its own cone: no domain options
        ("--alpha", float, None, True), ("--theta", float, None, True),
        ("--dim", int, "2", False), ("--walks", _count, "100000", False), *_SEED, *_OUT]),
}


def _build_parser():
    """The parser and its subcommand parsers by name."""
    parser = _Parser(prog="stabletau", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in _COMMANDS.items():
        sp = sub.add_parser(name)
        for flag, kind, default, _ in [*options, ("--config", str, None, False)]:
            if kind is None:
                sp.add_argument(flag, action="store_true")
            elif isinstance(kind, tuple):
                sp.add_argument(flag, choices=kind, default=default)
            else:
                sp.add_argument(flag, type=kind, default=default)
    return parser, sub.choices


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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser, subs = _build_parser()
        ns = parser.parse_args(argv)
        if ns.config:  # the file's arguments go first, so the command line's win
            ns = parser.parse_args([ns.command, *_config_args(ns, subs[ns.command]), *argv[1:]])
        command, options = _COMMANDS[ns.command]
        for flag, _, _, required in options:  # checked here: the file may supply them
            if required and getattr(ns, flag[2:].replace("-", "_")) is None:
                raise UsageError(f"missing required option {flag}")
        return command(ns)
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
