import ast
import csv
import inspect
import json
import filecmp
import textwrap

import numpy as np
import pytest

from stabletau import analysis, cli
from stabletau.cli import (
    EXIT_DOMAIN,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from stabletau.errors import NonConvergedError
from stabletau.geom import ConeDomain, SupportDomain, builtin_domain, save_domain


def run(args):
    return main(args)


def test_non_finite_domain_file_is_io_error(tmp_path, capsys):
    for name, row in (("inf", "inf 0"), ("nan", "0.1 nan")):
        path = tmp_path / f"{name}.sf"
        path.write_text(f"support-fourier v1\nn_modes=2\n1 0\n{row}\n")
        assert run(["solve", "--domain", str(path), "--alpha", "1", "--at", "0,0",
                    "--walks", "10"]) == EXIT_IO
        assert "coeffs must be finite" in capsys.readouterr().err


def test_builtin_domains():
    assert builtin_domain("disk")._disk_radius == 1.0
    assert builtin_domain("disk:0.5")._disk_radius == 0.5
    ell = builtin_domain("ellipse:0.8,0.5")
    assert ell.boundary_distance_batch(np.array([[0.79, 0.0]]))[0] > 0.0
    cone = builtin_domain("cone:0.1,3")
    assert isinstance(cone, ConeDomain) and cone.dim == 3
    for bad in ("bogus", "ellipse:0.8", "cone:2,3"):
        with pytest.raises(ValueError):
            builtin_domain(bad)
    assert run(["solve", "--builtin", "bogus", "--alpha", "1", "--at", "0,0"]) == EXIT_USAGE


def test_solve_ok(capsys):
    assert run(["solve", "--builtin", "disk", "--alpha", "1", "--at", "0,0",
                "--walks", "20000", "--seed", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "mean=0.6" in out and "truncated=0" in out


@pytest.mark.parametrize("walks", ["2e3", "2000.0", "2000"])
def test_counts_may_be_written_as_floats(walks, capsys):
    assert run(SOLVE + ["--alpha", "1", "--walks", walks]) == EXIT_OK
    assert "walks=2000 " in capsys.readouterr().out


def test_solve_point_outside():
    assert run(["solve", "--builtin", "disk", "--alpha", "1", "--at", "2,0",
                "--walks", "10"]) == EXIT_DOMAIN


@pytest.mark.parametrize("builtin", ["disk", "ellipse:0.8,0.5"])
def test_solve_point_of_wrong_dimension(builtin, capsys):
    assert run(["solve", "--builtin", builtin, "--alpha", "1", "--at", "0.1,0.2,0.3",
                "--walks", "2000"]) == EXIT_DOMAIN
    assert "coordinates" in capsys.readouterr().err


def test_hessian_scan_bad_field_file(tmp_path):
    bad = tmp_path / "bad.pf"
    bad.write_text("phifield v2\ndomain=builtin:disk\nalpha=1\nspacing=0.1\n")
    assert run(["hessian-scan", "--field", str(bad), "--points", "halton:2"]) == EXIT_IO


def test_hessian_scan_field_file_with_a_nan_node(tmp_path, capsys):
    # a NaN node value is caught on load, not by the Hessian's eigensolver
    fpath = tmp_path / "disk.pf"
    assert run(["field-build", "--builtin", "disk", "--alpha", "1", "--spacing", "0.16",
                "--walks-per-node", "200", "--out", str(fpath)]) == EXIT_OK
    lines = fpath.read_text().splitlines(keepends=True)
    i, j, _, s = lines[7].split()
    fpath.write_text("".join(lines[:7] + [f"{i} {j} nan {s}\n"] + lines[8:]))
    assert run(["hessian-scan", "--field", str(fpath), "--points", "halton:2"]) == EXIT_IO
    assert "node value is not finite" in capsys.readouterr().err


def test_solve_bad_domain_file():
    assert run(["solve", "--domain", "/nonexistent.sf", "--alpha", "1",
                "--at", "0,0", "--walks", "10"]) == EXIT_IO


def test_malformed_region_is_usage_error():
    assert run(["hessian-scan", "--builtin", "disk", "--region", "bogus",
                "--points", "halton:5"]) == EXIT_USAGE
    assert run(["hessian-scan", "--builtin", "disk", "--region",
                "cylinder:Q=3"]) == EXIT_USAGE
    assert run(["exponent-fit", "--builtin", "disk", "--probe", "S1",
                "--quantity", "u13", "--h", "1:2:3"]) == EXIT_USAGE


def test_hessian_scan_without_points_is_usage_error(tmp_path, capsys):
    out = tmp_path / "o.csv"
    assert run(["hessian-scan", "--builtin", "disk", "--points", "halton:0",
                "--out", str(out)]) == EXIT_USAGE
    assert "halton:0" in capsys.readouterr().err
    assert not out.exists()


SOLVE = ["solve", "--builtin", "disk", "--at", "0,0", "--walks", "100"]
EVERY_COMMAND = [
    ["hessian-scan", "--points", "halton:2"],
    ["exponent-fit", "--probe", "S1", "--quantity", "u13"],
    ["deform-sweep", "--builtin", "ellipse:0.8,0.5", "--t", "0:1:2"],
    SOLVE + ["--alpha", "1"],
    ["field-build", "--alpha", "1", "--spacing", "0.2"],
    ["cone-hunt", "--alpha", "1.5", "--theta", "0.1"],
]


@pytest.mark.parametrize("args, option", [
    (SOLVE + ["--alpha", "3"], "--alpha"),
    (SOLVE + ["--alpha", "1", "--walks", "0"], "--walks"),
    (SOLVE + ["--alpha", "1", "--max-steps", "0"], "--max-steps"),
    # the ball fraction is the walk's constant: no command takes it
    (SOLVE + ["--alpha", "1", "--ball-fraction", "1.5"], "--ball-fraction"),
    (SOLVE + ["--alpha", "1", "--threads", "0"], "--threads"),
    (SOLVE + ["--alpha", "1", "--threads", "-3"], "--threads"),
    (["cone-hunt", "--alpha", "1.5", "--theta", "2", "--walks", "100"], "--theta"),
    (["deform-sweep", "--builtin", "ellipse:0.8,0.5", "--t", "0:2:3"], "--t"),
    (["field-build", "--alpha", "1", "--spacing", "0"], "--spacing"),
    (["field-build", "--alpha", "1", "--spacing", "-0.1"], "--spacing"),
    (["hessian-scan", "--builtin", "disk", "--region", "cylinder:M=-1",
      "--points", "halton:5"], "--region"),
    (["hessian-scan", "--builtin", "disk", "--region", "slab:margin=-0.1",
      "--points", "halton:5"], "--region"),
    # region names match exactly, not as a prefix
    (["hessian-scan", "--builtin", "disk", "--region", "cylinders",
      "--points", "halton:5"], "--region"),
    (["hessian-scan", "--builtin", "disk", "--region", "slabby",
      "--points", "halton:5"], "--region"),
    (["deform-sweep", "--builtin", "ellipse:0.8,0.5", "--t", "0:1:0"], "--t"),
    # the probe and the quantity are checked before any evaluation
    (["exponent-fit", "--builtin", "disk", "--probe", "S9", "--quantity", "u13"], "--probe"),
    (["exponent-fit", "--builtin", "disk", "--probe", "S1", "--quantity", "u99"],
     "--quantity"),
    (["exponent-fit", "--builtin", "disk", "--probe", "S1", "--quantity", "u13",
      "--h", "0.005:0.05:geometric:3"], "--h"),
    # no point of the unit disk is 2 deep
    (["hessian-scan", "--builtin", "disk", "--region", "slab:margin=2",
      "--points", "halton:3"], "--region"),
    # the hunt targets alpha in (1, 2)
    (["cone-hunt", "--alpha", "0.5", "--theta", "0.1", "--walks", "100"], "--alpha"),
    # a count that does not parse
    (SOLVE + ["--alpha", "1", "--walks", "abc"], "--walks"),
    (["cone-hunt", "--alpha", "1.5", "--theta", "0.1", "--walks", "1e"], "--walks"),
    # no command takes --threads: it is an unrecognized argument
    (["hessian-scan", "--builtin", "disk", "--points", "halton:3", "--threads", "0"],
     "--threads"),
    # a required option that is missing
    (["solve", "--at", "0,0"], "--alpha"),
    (["solve", "--alpha", "1"], "--at"),
    (["field-build", "--alpha", "1", "--spacing", "0.2"], "--out"),
    (["exponent-fit", "--probe", "S1"], "--quantity"),
    (["cone-hunt", "--alpha", "1.5"], "--theta"),
    # a value that does not parse
    (SOLVE[:3] + ["--at", "0,x", "--alpha", "1"], "--at"),
    (SOLVE[:3] + ["--at", "", "--alpha", "1"], "--at"),
    (SOLVE + ["--alpha", "one"], "--alpha"),
    (SOLVE + ["--alpha", "1", "--walks", "inf"], "--walks"),
    (SOLVE + ["--alpha", "1", "--threads", "two"], "--threads"),
    (["hessian-scan", "--points", "halton:2", "--which", "psib:x"], "--which"),
    (["hessian-scan", "--points", "halton:2", "--which", "w"], "--which"),
    (["exponent-fit", "--probe", "S1", "--quantity", "u13", "--h", "0.01:0.1:cubic:6"], "--h"),
    (["deform-sweep", "--builtin", "ellipse:0.8,0.5", "--t", "0:1"], "--t"),
    (["cone-hunt", "--alpha", "1.5", "--theta", "0.1", "--dim", "2.5"], "--dim"),
    # --seed is parsed where it is read, and refused where it is not
    *[(args + ["--seed", "abc"], "--seed") for args in EVERY_COMMAND],
    # a count that is not a whole number
    (SOLVE + ["--alpha", "1", "--walks", "2.7"], "--walks"),
    (["field-build", "--alpha", "1", "--spacing", "0.2", "--walks-per-node", "150.5"],
     "--walks-per-node"),
    (SOLVE + ["--alpha", "1", "--max-steps", "12.5"], "--max-steps"),
    # options that the command would otherwise accept and ignore
    (["hessian-scan", "--region", "slab", "--points", "halton:2", "--include-reflected"],
     "--include-reflected"),
    (["cone-hunt", "--alpha", "1.5", "--theta", "0.1", "--builtin", "disk"], "--builtin"),
    (["cone-hunt", "--alpha", "1.5", "--theta", "0.1", "--domain", "cone.sf"], "--domain"),
    # values that are not finite
    (["field-build", "--alpha", "1", "--spacing", "inf"], "--spacing"),
    (["field-build", "--alpha", "1", "--spacing", "nan"], "--spacing"),
    (["hessian-scan", "--builtin", "disk", "--region", "cylinder:M=inf",
      "--points", "halton:5"], "--region"),
    (["hessian-scan", "--builtin", "disk", "--region", "slab:margin=nan",
      "--points", "halton:5"], "--region"),
    (["exponent-fit", "--builtin", "disk", "--probe", "S1", "--quantity", "u13",
      "--h", "0.005:inf:geometric:6"], "--h"),
    (["exponent-fit", "--builtin", "disk", "--probe", "S1", "--quantity", "u13",
      "--h", "-0.05:0.05:linear:6"], "--h"),
    # the --field file names its own domain: no domain option goes with it, and
    # neither the field file nor the domain file is read
    *[(args + ["--field", "never_read.pf", *dom], dom[0]) for args in (
        ["hessian-scan", "--points", "halton:2"],
        ["exponent-fit", "--probe", "S1", "--quantity", "u13"])
      for dom in (["--builtin", "ellipse:0.9,0.15"], ["--domain", "/nonexistent.sf"])],
    (["hessian-scan", "--points", "halton:2", "--which", "veps:inf"], "--which"),
    (["hessian-scan", "--points", "halton:2", "--which", "psib:nan"], "--which"),
    # domain sizes that are not finite
    *[(SOLVE[:1] + ["--builtin", spec, "--alpha", "1", "--at", "0,0", "--walks", "10"],
       "--builtin") for spec in ("disk:inf", "ellipse:inf,0.5", "disk:nan")],
    # a seed outside [0, 2**64), which would alias one inside it
    *[(args + ["--seed", seed], "--seed")
      for args in EVERY_COMMAND for seed in ("-1", str(1 << 64))],
    # domain sizes that are not positive are checked before the projection
    *[(SOLVE[:1] + ["--builtin", spec, "--alpha", "1", "--at", "0.1,0", "--walks", "10"],
       "--builtin") for spec in ("ellipse:-0.8,0.5", "disk:-1", "ellipse:0,0.5")],
    # options that the command does not read
    (["hessian-scan", "--points", "halton:2", "--seed", "1"], "--seed"),
    (["field-build", "--alpha", "1", "--spacing", "0.2", "--out", "never_written.pf",
      "--format", "json"], "--format"),
])
def test_out_of_range_value_is_usage_error(args, option, capsys):
    assert run(args) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and option in err, err


def _ns_reads(fn):
    """The ns.<name> attributes that fn reads, with those of the cli helpers
    that it passes ns to."""
    reads = set()
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(fn)))):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "ns":
            reads.add(node.attr)
        elif isinstance(node, ast.Call) and any(getattr(a, "id", None) == "ns"
                                                for a in node.args):
            reads |= _ns_reads(getattr(cli, node.func.id))
    return reads


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_every_declared_option_is_read(name):
    # main reads --config, which every command takes
    _, commands = cli._build_parser()
    declared = {a.dest for a in commands[name]._actions if a.option_strings}
    assert declared - {"help", "config"} == _ns_reads(cli._COMMANDS[name][0])


def test_field_file_names_its_domain_relative_to_itself(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_domain(SupportDomain.disk(1.0), "dom.sf")
    (tmp_path / "sub").mkdir()
    build = ["field-build", "--domain", "dom.sf", "--alpha", "1", "--spacing", "0.16",
             "--walks-per-node", "50"]
    for out, ref in (("x.pf", "dom.sf"), ("sub/x.pf", "../dom.sf")):
        assert run(build + ["--out", out]) == EXIT_OK
        assert (tmp_path / out).read_text().splitlines()[1] == f"domain={ref}"
        assert run(["hessian-scan", "--field", out, "--points", "halton:2"]) == EXIT_OK


def test_unknown_subcommand_is_usage_error():
    assert run(["frobnicate"]) == EXIT_USAGE


def test_solve_output_determinism(tmp_path):
    base = ["solve", "--builtin", "disk", "--alpha", "1.5", "--at", "0.2,0.1",
            "--walks", "30000", "--seed", "9", "--format", "csv"]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(base + ["--out", str(f1)]) == EXIT_OK
    assert run(base + ["--out", str(f2)]) == EXIT_OK
    assert filecmp.cmp(f1, f2, shallow=False)


def test_formats_encode_same_data(tmp_path):
    argv = ["solve", "--builtin", "disk", "--alpha", "1", "--at", "0,0",
            "--walks", "5000", "--seed", "3"]
    cpath, jpath = tmp_path / "s.csv", tmp_path / "s.json"
    assert run(argv + ["--out", str(cpath), "--format", "csv"]) == EXIT_OK
    assert run(argv + ["--out", str(jpath), "--format", "json"]) == EXIT_OK
    with open(cpath) as fh:
        rows = list(csv.reader(fh))
    payload = json.loads(jpath.read_text())[0]
    for key, raw in zip(rows[0], rows[1]):
        assert float(payload[key]) == pytest.approx(float(raw), abs=0)


def test_hessian_scan_csv_columns(tmp_path):
    out = tmp_path / "scan.csv"
    assert run(["hessian-scan", "--builtin", "disk", "--points", "halton:6",
                "--out", str(out)]) == EXIT_OK
    with open(out) as fh:
        header = next(csv.reader(fh))
    assert header == ["x1", "x2", "x3", "u11", "u12", "u13", "u22", "u23",
                      "u33", "det", "trace", "sig_pos", "sig_neg", "det_err", "verdict"]


def test_hessian_scan_veps_trace_unchanged(tmp_path):
    f_u = tmp_path / "u.csv"
    f_v = tmp_path / "v.csv"
    common = ["hessian-scan", "--builtin", "disk", "--points", "halton:5"]
    assert run(common + ["--which", "u", "--out", str(f_u)]) == EXIT_OK
    assert run(common + ["--which", "veps:0.001", "--out", str(f_v)]) == EXIT_OK

    def traces(path):
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        return [float(r["trace"]) for r in rows]

    for tu, tv in zip(traces(f_u), traces(f_v)):
        assert abs(tu - tv) <= 1e-12


def test_hessian_scan_include_reflected(tmp_path):
    common = ["hessian-scan", "--builtin", "disk", "--points", "halton:3", "--format", "json"]
    plain, both = tmp_path / "plain.json", tmp_path / "both.json"
    assert run(common + ["--out", str(plain)]) == EXIT_OK
    assert run(common + ["--include-reflected", "--out", str(both)]) == EXIT_OK
    up, rep = json.loads(plain.read_text()), json.loads(both.read_text())
    n = len(up["points"])
    assert len(rep["points"]) == len(rep["values"]) == len(rep["verdicts"]) == 2 * n
    assert rep["points"][:n] == up["points"] and rep["values"][:n] == up["values"]
    cols = rep["columns"]
    flipped = [cols.index("u13"), cols.index("u23")]
    for i in range(n):
        x, row = rep["points"][n + i], rep["values"][n + i]
        assert x == [*up["points"][i][:2], -up["points"][i][2]]
        for j, (lo, hi) in enumerate(zip(row, up["values"][i])):
            assert lo == (-hi if j in flipped else hi), cols[j]
        assert rep["verdicts"][n + i] == up["verdicts"][i]


def test_hessian_scan_needs_field_for_nondisk():
    assert run(["hessian-scan", "--builtin", "ellipse:0.8,0.5",
                "--points", "halton:4"]) == EXIT_USAGE


def test_hessian_scan_closed_form_on_any_disk():
    assert run(["hessian-scan", "--builtin", "disk:0.5", "--points", "halton:4"]) == EXIT_OK


def test_field_build_and_scan_roundtrip(tmp_path):
    fpath = tmp_path / "disk.pf"
    assert run(["field-build", "--builtin", "disk", "--alpha", "1",
                "--spacing", "0.15", "--walks-per-node", "2000",
                "--seed", "5", "--out", str(fpath)]) == EXIT_OK
    assert fpath.read_text().startswith("phifield v2")
    out = tmp_path / "scan.csv"
    assert run(["hessian-scan", "--field", str(fpath),
                "--points", "halton:4", "--out", str(out)]) == EXIT_OK


def test_field_build_determinism(tmp_path):
    args = ["field-build", "--builtin", "disk", "--alpha", "1",
            "--spacing", "0.16", "--walks-per-node", "1000", "--seed", "7"]
    f1, f2 = tmp_path / "a.pf", tmp_path / "b.pf"
    assert run(args + ["--out", str(f1)]) == EXIT_OK
    assert run(args + ["--out", str(f2)]) == EXIT_OK
    assert filecmp.cmp(f1, f2, shallow=False)


def test_exponent_fit_cli(tmp_path, capsys):
    out = tmp_path / "fit.csv"
    assert run(["exponent-fit", "--builtin", "disk", "--probe", "S1",
                "--quantity", "u13", "--h", "0.02:0.2:geometric:6",
                "--out", str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "slope" in text and "target -1.50" in text
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["h", "value", "sign"] and len(rows) == 7


def test_deform_sweep_cli(tmp_path):
    dom_path = tmp_path / "ellipse.sf"
    save_domain(SupportDomain.ellipse(0.8, 0.5), dom_path)
    out = tmp_path / "sweep.csv"
    assert run(["deform-sweep", "--domain", str(dom_path), "--t", "0:1:11",
                "--out", str(out)]) == EXIT_OK
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 11
    assert all(r["verdict"] == "pass" for r in rows)


def test_cone_hunt_cli(tmp_path, capsys):
    out = tmp_path / "hunt.json"
    assert run(["cone-hunt", "--alpha", "1.5", "--theta", "0.1",
                "--walks", "8000", "--seed", "2", "--out", str(out),
                "--format", "json"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "witness" in text
    payload = json.loads(out.read_text())
    assert payload["experiment"] == "cone_nonconcavity_hunt"


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[solve]\nalpha = 1\nwalks = 4000  # small runs\nat = 0,0\n")
    assert run(["solve", "--builtin", "disk", "--config", str(cfg),
                "--seed", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "walks=4000" in out
    # flags override the file
    assert run(["solve", "--builtin", "disk", "--config", str(cfg),
                "--walks", "2000", "--seed", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "walks=2000" in out


def test_config_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[solve]\nalpha = 1\nat = 0,0\nbogus_key = 3\n")
    assert run(["solve", "--builtin", "disk", "--config", str(cfg)]) == EXIT_USAGE


def test_config_key_of_an_option_the_command_does_not_read(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[deform-sweep]\nseed = 1\n")
    assert run(["deform-sweep", "--builtin", "ellipse:0.8,0.5", "--t", "0:1:2",
                "--config", str(cfg)]) == EXIT_USAGE
    assert "unknown config key 'seed' in [deform-sweep]" in capsys.readouterr().err


@pytest.mark.parametrize("text, code, says", [
    ("walks = 5\n", EXIT_IO, "section"),  # no section header
    ("[solve]\nalpha = 1\nat = 0,0\nwalks = 5%\n", EXIT_USAGE, "--walks"),  # read raw
    ("[solve]\nalpha = 1\nat = 0,0\nthreads = 2\n", EXIT_USAGE, "unknown config key 'threads'"),
    ("[solve]\nalpha = 1\nat = 0,0\nball-fraction = 0.3\n", EXIT_USAGE,
     "unknown config key 'ball-fraction'"),
])
def test_config_file_errors_exit_with_a_message(tmp_path, capsys, text, code, says):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert run(["solve", "--builtin", "disk", "--config", str(cfg)]) == code
    assert says in capsys.readouterr().err


SCAN_CFG = "[hessian-scan]\nbuiltin = disk\npoints = halton:2\n"


@pytest.mark.parametrize("value, rows", [("true", 4), ("yes", 4), ("false", 2), ("0", 2)])
def test_config_flag_parses_as_on_the_command_line(tmp_path, value, rows):
    cfg, out = tmp_path / "run.cfg", tmp_path / "scan.csv"
    cfg.write_text(SCAN_CFG + f"include-reflected = {value}\n")
    assert run(["hessian-scan", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    with open(out) as fh:
        assert len(list(csv.DictReader(fh))) == rows


def test_config_flag_rejects_a_value_that_is_not_boolean(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SCAN_CFG + "include-reflected = maybe\n")
    assert run(["hessian-scan", "--config", str(cfg)]) == EXIT_USAGE
    assert "include-reflected" in capsys.readouterr().err


def test_config_choice_is_checked_as_on_the_command_line(tmp_path, capsys):
    cfg, out = tmp_path / "run.cfg", tmp_path / "scan.out"
    cfg.write_text(SCAN_CFG + "format = xml\n")
    assert run(["hessian-scan", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "--format" in err and "xml" in err, err
    assert not out.exists()
    # a valid choice from the file is used, and the command line's wins over it
    cfg.write_text(SCAN_CFG + "format = json\n")
    assert run(["hessian-scan", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["experiment"] == "hessian_scan[u]"
    assert run(["hessian-scan", "--config", str(cfg), "--out", str(out),
                "--format", "csv"]) == EXIT_OK
    assert out.read_text().startswith("x1,x2,x3,")


def test_required_option_may_come_from_the_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[solve]\nalpha = 1\n")
    assert run(["solve", "--config", str(cfg), "--at", "0,0", "--walks", "100"]) == EXIT_OK
    assert run(["solve", "--config", str(cfg), "--walks", "100"]) == EXIT_USAGE
    assert "--at" in capsys.readouterr().err


def test_missing_config_file_is_io_error(tmp_path, capsys):
    assert run(["solve", "--config", str(tmp_path / "absent.cfg")]) == EXIT_IO
    assert "not found" in capsys.readouterr().err


def test_nonconverged_numerics_exit_5(monkeypatch, capsys):
    def stall(*args, **kwargs):
        raise NonConvergedError(0.0, 1.0)

    monkeypatch.setattr(analysis, "hessian_scan", stall)
    assert run(["hessian-scan", "--points", "halton:2"]) == EXIT_NUMERIC
    assert "converge" in capsys.readouterr().err


def test_hessian_scan_slab_psib(tmp_path):
    out = tmp_path / "slab.json"
    assert run(["hessian-scan", "--region", "slab:margin=0.05", "--points", "halton:4",
                "--which", "psib:0.3", "--format", "json", "--out", str(out)]) == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["experiment"] == "hessian_scan[psib]"
    assert rep["descriptor"] == "slab margin=0.05, halton 4"
    pts = np.array(rep["points"])
    assert pts.shape == (4, 3) and np.all(pts[:, 2] == 0.0)
    assert np.all(np.hypot(pts[:, 0], pts[:, 1]) <= 1.0 - 0.05)


def test_exponent_fit_linear_h_and_json(tmp_path):
    out = tmp_path / "fit.json"
    assert run(["exponent-fit", "--probe", "S1", "--quantity", "u13",
                "--h", "0.02:0.2:linear:6", "--format", "json", "--out", str(out)]) == EXIT_OK
    fit = json.loads(out.read_text())
    assert fit["probe"] == "S1" and fit["quantity"] == "u13"
    assert fit["h"] == pytest.approx(np.linspace(0.02, 0.2, 6).tolist(), abs=0)
    assert len(fit["values"]) == len(fit["signs"]) == 6
    assert fit["slope"] == pytest.approx(-1.5, abs=0.2)
