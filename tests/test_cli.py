"""Command-line interface: reports, determinism, exit codes."""

import io
import json
import os
import time
from contextlib import redirect_stderr, redirect_stdout
from importlib import import_module, resources

import pytest

from segrekit import cli
from segrekit.cli import main, parse_point, InputError
from segrekit.gaussian import GaussianRational as QI


def data_path(fname):
    return str(resources.files("segrekit.data").joinpath(fname))


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# The README commands on the bundled data, keyed by command line, with the
# exit code and the stdout report of the reference version.  A deliberate
# change of a report means writing the new stdout back into this file.
GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "cli_golden.json")
with open(GOLDEN_PATH) as _fh:
    GOLDEN = json.load(_fh)


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_readme_commands_match_golden(command, monkeypatch):
    for var in ("SEGREKIT_SEED", "SEGREKIT_MAX_DEGREE", "SEGREKIT_MAX_BASIS"):
        monkeypatch.delenv(var, raising=False)
    argv = [data_path(a) if a.endswith((".mfd", ".map")) else a
            for a in command.split()]
    code, out, _ = run_cli(*argv)
    assert code == GOLDEN[command]["exit"]
    assert out == GOLDEN[command]["stdout"]


def test_parse_point():
    p = parse_point("1,0")
    assert p == (QI.from_value(1), QI.from_value(0))
    p = parse_point("1/2+1/2*i, -3")
    assert str(p[0].re) == "1/2" and str(p[0].im) == "1/2"
    with pytest.raises(InputError):
        parse_point("1,,2")
    with pytest.raises(InputError):
        parse_point("z1")


def test_segre_report():
    code, out, err = run_cli("segre", data_path("sphere_C2.mfd"),
                             "--point", "1,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["results"]["generators"] == ["z1-1"]
    assert doc["status"] == "ok"
    assert "segre: ok" in err


def test_segre_symbolic():
    code, out, _ = run_cli("segre", data_path("sphere_C2.mfd"), "--symbolic")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["parameter"] == "symbolic"


def test_reports_are_byte_identical():
    args = ("essfin", data_path("power_r2_n2.mfd"), "--point", "1,1")
    _, out1, _ = run_cli(*args)
    _, out2, _ = run_cli(*args)
    assert out1 == out2


def test_essfin_report():
    code, out, _ = run_cli("essfin", data_path("power_r2_n2.mfd"),
                           "--point", "1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["essentially_finite"] is True
    assert doc["results"]["degree"] == 4
    assert "excluded" in doc


def test_minimal_report():
    code, out, _ = run_cli("minimal", data_path("sphere_C2.mfd"),
                           "--point", "1,0")
    doc = json.loads(out)
    assert code == 0
    assert doc["results"]["minimal"] is True
    assert doc["results"]["index"] == 2


def test_levi_report():
    code, out, _ = run_cli("levi", data_path("hyperquadric_k1_n3.mfd"),
                           "--point", "1,0,0", "--conormal", "1")
    doc = json.loads(out)
    assert code == 0
    assert doc["results"]["signature"] == [1, 1, 0]
    assert doc["results"]["mixed"] is True


def test_correspond_report():
    code, out, _ = run_cli(
        "correspond", data_path("power_r2_n2.mfd"),
        data_path("hyperquadric_k1_n2.mfd"), data_path("square_n2.map"),
        "--fiber", "1,4", "--reverse")
    doc = json.loads(out)
    assert code == 0
    assert doc["results"]["reverse_fiber_degree"] == 4
    assert len(doc["results"]["reverse_fiber_solutions"]) == 4


def test_suite_single_entry():
    code, out, _ = run_cli("suite", "sphere_C2")
    doc = json.loads(out)
    assert code == 0
    assert doc["results"]["all_ok"] is True
    assert doc["results"]["sphere_C2"]["ok"] is True


def test_exit_code_input_error():
    code, out, _ = run_cli("segre", "no_such_file.mfd", "--point", "1,0")
    assert code == 2
    doc = json.loads(out)
    assert doc["status"].startswith("input-error")


def test_exit_code_bad_point():
    code, _, _ = run_cli("segre", data_path("sphere_C2.mfd"),
                         "--point", "1")
    assert code == 2


@pytest.mark.parametrize("argv, n", [
    (["segre", "sphere_C2.mfd", "--point", "1,0,99"], 3),
    (["minimal", "tube_C2.mfd", "--point", "1"], 1),
    (["correspond", "power_r2_n2.mfd", "hyperquadric_k1_n2.mfd", "square_n2.map",
      "--fiber", "1,4,9", "--reverse"], 3),
], ids=["segre", "minimal", "reverse-fiber"])
def test_wrong_length_point_is_an_input_error(argv, n):
    code, out, _ = run_cli(*[data_path(a) if a.endswith((".mfd", ".map")) else a
                             for a in argv])
    assert code == 2
    assert json.loads(out)["status"] == \
        f"input-error: point has {n} coordinates, expected 2"


def test_bad_conormal_is_an_input_error():
    code, out, _ = run_cli("levi", data_path("hyperquadric_k1_n3.mfd"),
                           "--point", "1,0,0", "--conormal", "1/0")
    assert code == 2
    assert "conormal" in json.loads(out)["status"]


def test_non_holomorphic_map_is_an_input_error(tmp_path):
    bad = tmp_path / "conj.map"
    bad.write_text("vars z1 z2\ncomponent: z1^2\ncomponent: ~z1\n")
    code, out, _ = run_cli("correspond", data_path("power_r2_n2.mfd"),
                           data_path("hyperquadric_k1_n2.mfd"), str(bad),
                           "--fiber", "1,4")
    assert code == 2
    status = json.loads(out)["status"]
    assert status.startswith("input-error: bad map file") and "(line 3, column 12)" in status


def test_correspondence_error_is_an_input_error():
    code, out, _ = run_cli(
        "correspond", data_path("power_r2_n2.mfd"),
        data_path("hyperquadric_k1_n2.mfd"), data_path("square_n2.map"),
        "--fiber", "0,1")
    assert code == 2
    assert json.loads(out)["status"] == \
        "input-error: point lies on the excluded locus wb_z1^2"


def test_exit_code_inconclusive():
    code, out, _ = run_cli("minimal", data_path("tube_C2.mfd"), "--point", "1,0",
                           "--jmax", "1")
    assert code == 3
    assert json.loads(out)["status"].startswith("inconclusive: Segre set chain")


def test_exit_code_unknown_entry():
    code, _, _ = run_cli("suite", "unknown_entry")
    assert code == 2


def test_an_expansion_over_the_term_cap_exits_3_at_once(tmp_path):
    """Parsing refuses 0*(...)^60, C(64, 4) = 635376 terms, before expanding it."""
    path = tmp_path / "big.mfd"
    path.write_text("vars z1 z2\nrho: z1*~z1 + z2*~z2 - 1 + 0*(z1+z2+~z1+~z2+1)^60\n")
    start = time.perf_counter()
    code, out, _ = run_cli("segre", str(path), "--point", "1,0")
    assert time.perf_counter() - start < 1
    assert code == 3
    doc = json.loads(out)
    assert doc["status"] == "resource-limit"
    assert doc["results"]["limit_stats"] == {"terms_bound": 635376, "cap": 10000}


# 2^40000 has 12042 digits; Python 3.11 refuses to print an int of more
# than 4300, and segrekit refuses to parse one


@pytest.mark.parametrize("point", ["1,2^40000", "1,1/2^40000"], ids=["power", "reciprocal"])
def test_a_point_with_a_number_over_the_digit_cap_exits_3(point):
    code, out, _ = run_cli("segre", data_path("sphere_C2.mfd"), "--point", point)
    assert code == 3
    doc = json.loads(out)
    assert doc["status"] == "resource-limit"
    assert doc["results"]["limit_stats"] == {"digits_bound": 12042, "cap": 4300}


def test_a_point_literal_over_the_digit_cap_is_an_input_error():
    code, out, _ = run_cli("segre", data_path("sphere_C2.mfd"), "--point", "1," + "7" * 5000)
    assert code == 2
    status = json.loads(out)["status"]
    assert status.startswith("input-error: bad coordinate")
    assert status.endswith("number literal longer than 4300 digits (column 1)")


@pytest.mark.parametrize("argv, named", [
    (["segre", "sphere_C2.mfd", "--point", "1," + "7" * 5000], "bad coordinate 2: "),
    (["segre", "sphere_C2.mfd", "--point", "1,," + "7" * 5000], "coordinate 2 is empty"),
    (["levi", "hyperquadric_k1_n3.mfd", "--point", "1,0,0", "--conormal", "7" * 5000],
     "bad conormal entry 1: number literal longer than 4300 digits"),
    (["levi", "hyperquadric_k1_n3.mfd", "--point", "1,0,0", "--conormal", "1," + "x" * 5000],
     "conormal entry 2 is not a rational"),
], ids=["long-literal", "empty", "long-conormal", "conormal-not-rational"])
def test_a_bad_coordinate_is_named_by_its_position(argv, named):
    code, out, _ = run_cli(*[data_path(a) if a.endswith(".mfd") else a for a in argv])
    assert code == 2
    status = json.loads(out)["status"]
    assert named in status and len(status) < 200


def nested(depth):
    return "(" * depth + "1" + ")" * depth


def test_a_point_nested_too_deep_is_an_input_error():
    code, out, _ = run_cli("segre", data_path("sphere_C2.mfd"), "--point", "1," + nested(250))
    assert code == 2
    assert json.loads(out)["status"] == \
        "input-error: bad coordinate 2: parentheses nested deeper than 100 (column 101)"


def test_a_manifold_nested_too_deep_is_an_input_error(tmp_path):
    path = tmp_path / "deep.mfd"
    path.write_text("vars z1 z2\nrho: z1*~z1 + z2*~z2 - 1 + 0*" + nested(250) + "\n")
    code, out, _ = run_cli("segre", str(path), "--point", "1,0")
    assert code == 2
    status = json.loads(out)["status"]
    assert status.startswith("input-error: bad manifold file")
    assert status.endswith("parentheses nested deeper than 100 (line 2, column 130)")


def test_a_point_with_a_thousand_minus_signs_is_read():
    code, out, _ = run_cli("segre", data_path("sphere_C2.mfd"), "--point",
                           "1," + "-" * 1000 + "1")
    assert code == 0
    assert json.loads(out)["results"]["parameter"] == ["1", "1"]


def test_a_coefficient_too_long_to_print_exits_3(tmp_path):
    """~z1 bound to 2 makes 2^20000, 6021 digits, which no report prints."""
    path = tmp_path / "big.mfd"
    path.write_text("vars z1 z2\nrho: z1^20000*~z1^20000 + z2*~z2 - 1\n")
    code, out, _ = run_cli("segre", str(path), "--point", "2,0")
    assert code == 3
    doc = json.loads(out)
    assert doc["status"] == "resource-limit"
    assert doc["results"]["limit_stats"] == {"digits_bound": 6021, "cap": 4300}


def test_a_conormal_too_long_to_print_exits_3():
    code, out, _ = run_cli("levi", data_path("hyperquadric_k1_n3.mfd"), "--point", "1,0,0",
                           "--conormal", "1e5000")
    assert code == 3
    assert json.loads(out)["results"]["limit_stats"] == {"digits_bound": 5001, "cap": 4300}


def test_a_manifold_with_a_number_over_the_digit_cap_exits_3(tmp_path):
    path = tmp_path / "big.mfd"
    path.write_text("vars z1 z2\nrho: z1*~z1 + z2*~z2 - 2^40000\n")
    code, out, _ = run_cli("segre", str(path), "--symbolic")
    assert code == 3
    doc = json.loads(out)
    assert doc["status"] == "resource-limit"
    assert doc["results"]["limit_stats"] == {"digits_bound": 12042, "cap": 4300}


@pytest.mark.parametrize("module, name, code, status", [
    ("parsing", "ParseError", 2, "input-error: "),
    ("manifold", "ManifoldError", 2, "input-error: "),
    ("correspond", "CorrespondenceError", 2, "input-error: "),
    ("correspond", "ExcludedLocusError", 2, "input-error: "),
    ("orders", "ResourceLimitError", 3, "resource-limit"),
    ("segre", "InconclusiveError", 3, "inconclusive: "),
    ("correspond", "SamplingError", 3, "inconclusive: "),
])
def test_an_error_exits_by_its_base_class(module, name, code, status, monkeypatch):
    """``main`` knows three base classes; each error class reaches its exit
    code through its base, whatever module raised it."""
    cls = getattr(import_module("segrekit." + module), name)
    error = cls("refused", {"cap": 1}) if name == "ResourceLimitError" else cls("refused")

    def command(args, rep):
        raise error

    monkeypatch.setattr(cli, "cmd_segre", command)
    got, out, _ = run_cli("segre", data_path("sphere_C2.mfd"), "--symbolic")
    assert got == code
    assert json.loads(out)["status"].startswith(status)


def test_exit_code_resource_limit(monkeypatch):
    monkeypatch.delenv("SEGREKIT_MAX_DEGREE", raising=False)
    monkeypatch.delenv("SEGREKIT_MAX_BASIS", raising=False)
    code, out, _ = run_cli("--max-degree", "1", "essfin",
                           data_path("power_r2_n2.mfd"), "--point", "1,1")
    assert code == 3
    doc = json.loads(out)
    assert doc["status"] == "resource-limit"
    assert doc["results"]["limit_stats"]["max_degree"] == 1
    # the caps hold for that one call only: a following call in the same
    # process runs under the defaults again
    code, out, _ = run_cli("essfin", data_path("power_r2_n2.mfd"),
                           "--point", "1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["limits"] == {"max_basis": 400, "max_degree": 80}


def test_seed_env_override(monkeypatch):
    monkeypatch.setenv("SEGREKIT_SEED", "42")
    code, out, _ = run_cli("segre", data_path("sphere_C2.mfd"),
                           "--point", "1,0")
    assert code == 0
    assert json.loads(out)["seed"] == 42


@pytest.mark.parametrize("var", ["SEGREKIT_SEED", "SEGREKIT_MAX_DEGREE",
                                 "SEGREKIT_MAX_BASIS"])
def test_malformed_environment_variable_is_an_input_error(var, monkeypatch):
    monkeypatch.setenv(var, "abc")
    code, out, _ = run_cli("segre", data_path("sphere_C2.mfd"), "--symbolic")
    assert code == 2
    status = json.loads(out)["status"]
    assert status.startswith("input-error") and var in status


@pytest.mark.parametrize("argv, name", [
    (["minimal", "tube_C2.mfd", "--point", "1,0", "--jmax", "0"], "--jmax"),
    (["minimal", "tube_C2.mfd", "--point", "1,0", "--jmax", "-3"], "--jmax"),
    (["--max-degree", "-1", "segre", "sphere_C2.mfd", "--symbolic"], "--max-degree"),
    (["--max-basis", "0", "segre", "sphere_C2.mfd", "--symbolic"], "--max-basis"),
    (["segre", "sphere_C2.mfd", "--symbolic"], "SEGREKIT_MAX_BASIS"),
])
def test_numeric_options_below_one_are_input_errors(argv, name, monkeypatch):
    for var in ("SEGREKIT_MAX_DEGREE", "SEGREKIT_MAX_BASIS"):
        monkeypatch.delenv(var, raising=False)
    if name.startswith("SEGREKIT_"):
        monkeypatch.setenv(name, "0")
    argv = [data_path(a) if a.endswith(".mfd") else a for a in argv]
    code, out, _ = run_cli(*argv)
    assert code == 2
    status = json.loads(out)["status"]
    assert status.startswith("input-error") and name in status


def test_exit_code_exponent_too_large_for_the_engine(tmp_path):
    """An exponent wider than a packed monomial field is a resource limit,
    exit code 3, and not a wrong answer."""
    mfd = tmp_path / "big.mfd"
    mfd.write_text("vars z1 z2\nrho: z1^40000*~z1^40000 + z2*~z2 - 1\n")
    code, out, _ = run_cli("essfin", str(mfd), "--point", "1,0")
    assert code == 3
    doc = json.loads(out)
    assert doc["status"] == "resource-limit"
    assert doc["results"]["limit_stats"] == {"exponent": 40000, "max_exponent": 32767}


NON_REAL = "vars z1 z2\nrho: i*z1*~z1 + z2*~z2 - 1\n"


@pytest.mark.parametrize("argv", [
    ["essfin", "{m}", "--point", "0,1"],
    ["segre", "{m}", "--symbolic"],
    ["minimal", "{m}", "--point", "0,1"],
    ["correspond", "{m}", "sphere_C2.mfd", "identity_C2.map"],
    ["correspond", "sphere_C2.mfd", "{m}", "identity_C2.map", "--fiber", "1,4"],
    ["levi", "{m}", "--point", "0,1", "--conormal", "1"],
], ids=["essfin", "segre", "minimal", "correspond-source", "correspond-target", "levi"])
def test_non_real_manifold_is_an_input_error(argv, tmp_path):
    mfd = tmp_path / "non_real.mfd"
    mfd.write_text(NON_REAL)
    argv = [str(mfd) if a == "{m}" else data_path(a) if a.endswith((".mfd", ".map")) else a
            for a in argv]
    code, out, _ = run_cli(*argv)
    assert code == 2
    assert json.loads(out)["status"] == "input-error: defining polynomials are not real"


@pytest.mark.parametrize("text, argv", [
    ("vars i z2\nrho: i*~i + z2*~z2 - 1\n", ["segre", "{m}", "--point", "0,1"]),
    ("vars z1 wb_z1\nrho: z1*~z1 + wb_z1*~wb_z1 - 1\n", ["segre", "{m}", "--symbolic"]),
    ("vars z1 z1\nrho: z1*~z1 - 1\n", ["essfin", "{m}", "--point", "1,0"]),
], ids=["i", "reserved-prefix", "repeated"])
def test_bad_vars_names_are_input_errors(text, argv, tmp_path):
    mfd = tmp_path / "bad.mfd"
    mfd.write_text(text)
    code, out, _ = run_cli(*[str(mfd) if a == "{m}" else a for a in argv])
    assert code == 2
    status = json.loads(out)["status"]
    assert status.startswith("input-error: bad manifold file") and "(line 1, column" in status


def _correspond(*flags):
    return run_cli("correspond", data_path("power_r2_n2.mfd"),
                   data_path("hyperquadric_k1_n2.mfd"), data_path("square_n2.map"), *flags)


def test_correspond_splits_at_a_forward_fiber_point():
    code, out, _ = _correspond("--fiber", "1,4", "--splits")
    assert code == 0
    assert json.loads(out)["results"]["splits"] is True


@pytest.mark.parametrize("flags, named", [
    (["--splits"], ["--splits", "--fiber"]),
    (["--reverse"], ["--reverse", "--fiber"]),
    (["--fiber", "1,4", "--reverse", "--splits"], ["--splits", "--reverse"]),
], ids=["splits-alone", "reverse-alone", "reverse-splits"])
def test_correspond_flags_that_would_do_nothing_are_input_errors(flags, named):
    code, out, _ = _correspond(*flags)
    status = json.loads(out)["status"]
    assert code == 2
    assert status.startswith("input-error: ")
    assert all(flag in status for flag in named)


@pytest.mark.parametrize("target, text, named", [
    ("hyperquadric_k1_n3.mfd", None, "map has 2 components but the target has dimension 3"),
    ("sphere_C2.mfd", "vars z1 z2\ncomponent: z1\ncomponent: z2\ncomponent: z1*z2\n",
     "map has 3 components but the target has dimension 2"),
    ("sphere_C2.mfd", "vars z1 z2\ncomponent: z1/z2/2\ncomponent: z2\n",
     "(line 2, column 14)"),
], ids=["two-onto-C3", "three-onto-C2", "two-slashes"])
def test_a_map_that_does_not_fit_or_parse_is_an_input_error(target, text, named, tmp_path):
    path = data_path("identity_C2.map")
    if text is not None:
        path = tmp_path / "f.map"
        path.write_text(text)
    code, out, _ = run_cli("correspond", data_path("sphere_C2.mfd"), data_path(target),
                           str(path))
    assert code == 2
    status = json.loads(out)["status"]
    assert status.startswith("input-error: ") and named in status
