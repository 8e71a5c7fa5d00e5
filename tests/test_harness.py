"""Verification harness reports and the command-line interface."""

import hashlib
import json

from mpmath import mp, mpf

import pytest

import qseries.cli as cli
from qseries import (
    IdentityEntry,
    QDomainError,
    QPoint,
    RunConfig,
    SeriesValue,
    UnknownIdentityError,
    eval_identity,
    full_registry,
    run,
)
from qseries.harness import render_json, render_text, report_passed


def _synthetic_offset_entry(num=2, den=1):
    """An identity whose lhs is exactly num/den times its rhs at every
    point."""

    def lhs(p, ctx):
        return SeriesValue.of(num * (1 + p.q) / den)

    def rhs(p, ctx):
        return SeriesValue.of(1 + p.q)

    return IdentityEntry(
        id="synthetic-offset",
        paper_ref="synthetic test entry",
        param_names=(),
        constraints=(),
        lhs=lhs,
        rhs=rhs,
        sampler=lambda rng: QPoint(rng.uniform(0.1, 0.6), {}),
    )


# --- report structure -----------------------------------------------------------

def test_reports_are_byte_identical():
    config = RunConfig(identities=("eq-1.1", "eq-3.2"), points_per_identity=3,
                       seed=7, digits=30)
    first = render_json(run(config))
    second = render_json(run(config))
    assert first == second
    parsed = json.loads(first)
    assert parsed["version"]
    assert [r["id"] for r in parsed["results"]] == ["eq-1.1", "eq-3.2"]


def test_gate_report_hash():
    # every digit of the full seed-7 report, pinned for mpmath 1.3.0: a
    # change meant to leave the values alone must leave this hash alone
    report = render_json(run(RunConfig(points_per_identity=3, seed=7)))
    assert hashlib.sha256(report.encode()).hexdigest() == (
        "e45556a6e829fa6b8bc2216c67bd6a60f193412ee1dfff67354172a4f25df579")


def test_report_hash_at_100_digits():
    # every entry at one seed-1 point and 100 digits, pinned like the gate:
    # a libmpf path that rounds at the wrong precision moves this hash
    report = render_json(run(RunConfig(points_per_identity=1, seed=1,
                                       digits=100)))
    assert hashlib.sha256(report.encode()).hexdigest() == (
        "012d38748d61c7cd8b389e5ddcc7f3dad86eb88e33d849ce2d8c2abb8a8a56b0")


def test_text_report_prints_rel_errors_to_three_digits(capsys):
    # at 300 digits the JSON report keeps every digit of each relErr, and
    # its bytes do not move; the text report prints 3 significant digits
    config = RunConfig(identities=("eq-5.12",), points_per_identity=2,
                       digits=300)
    report = render_json(run(config))
    assert hashlib.sha256(report.encode()).hexdigest() == (
        "03c17685e5b73fab05fc49baa404a2f91dbc0f88999e3d6837ebc3bb88d09ee4")
    assert cli.main(["verify", "--identity", "eq-5.12", "--points", "2",
                     "--digits", "300"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert max(map(len, lines)) < 120, lines
    assert "worst relErr 2.63e-311 " in lines[2]
    failing = render_text(run(RunConfig(identities=("synthetic-offset",),
                                        points_per_identity=2, digits=300),
                              registry=[_synthetic_offset_entry()]))
    rel_errs = [line.split("relErr ")[1].split()[0]
                for line in failing.splitlines() if "relErr" in line]
    assert rel_errs == ["0.5"] * 3
    # a failing point's params and a suspected offset print to 17 digits
    thirds = render_text(run(RunConfig(identities=("synthetic-offset",),
                                       points_per_identity=2, digits=300),
                             registry=[_synthetic_offset_entry(2, 3)]))
    assert "offset lhs/rhs = 0.66666666666666667\n" in thirds
    for text in (failing, thirds):
        assert max(map(len, text.splitlines())) < 120, text


def test_seed_changes_sampled_points():
    base = RunConfig(identities=("eq-1.1",), points_per_identity=3, digits=30)
    r1 = run(RunConfig(identities=("eq-1.1",), points_per_identity=3,
                       seed=1, digits=30))
    r2 = run(RunConfig(identities=("eq-1.1",), points_per_identity=3,
                       seed=2, digits=30))
    del base
    p1 = [pt["params"] for pt in r1["results"][0]["points"]]
    p2 = [pt["params"] for pt in r2["results"][0]["points"]]
    assert p1 != p2


def test_unknown_identity_rejected():
    with pytest.raises(UnknownIdentityError):
        run(RunConfig(identities=("eq-99.9",)))


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(points_per_identity=0)
    with pytest.raises(ValueError, match="digits must be >= 10"):
        RunConfig(digits=5)
    # a count or seed that is not an int, or a single id given as a str,
    # is refused when the config is built, not midway through a run
    with pytest.raises(ValueError, match="seed must be an integer"):
        RunConfig(seed=1.5)
    with pytest.raises(ValueError,
                       match="points_per_identity must be an integer"):
        RunConfig(points_per_identity=1.5)
    with pytest.raises(ValueError, match="sequence of ids"):
        RunConfig(identities="eq-3.2")
    with pytest.raises(ValueError, match="tolerance: cannot read 'abc'"):
        RunConfig(tolerance="abc")
    # an explicit point that is no QPoint is refused when the config is
    # built, not with an AttributeError when the report is written
    with pytest.raises(ValueError, match="explicit_points must be"):
        RunConfig(identities=("eq-3.2",), explicit_points=(0.5,))
    with pytest.raises(ValueError, match="explicit_points must be"):
        RunConfig(explicit_points=QPoint(0.5, {}))


def test_synthetic_offset_detected():
    report = run(RunConfig(identities=("synthetic-offset",),
                           points_per_identity=4, digits=30),
                 registry=[_synthetic_offset_entry()])
    agg = report["results"][0]["aggregate"]
    assert not agg["pass"]
    assert agg["passCount"] == 0
    offset = mpf(agg["suspectedConstantOffset"])
    assert abs(offset - 2) < mpf("1e-20")
    assert not report_passed(report)
    text = render_text(report)
    assert "FAIL" in text and "suspected constant offset" in text
    assert text.rstrip().endswith("overall: FAIL")


def test_synthetic_offset_carries_requested_digits():
    report = run(RunConfig(identities=("synthetic-offset",),
                           points_per_identity=4, digits=30),
                 registry=[_synthetic_offset_entry(1, 3)])
    offset = report["results"][0]["aggregate"]["suspectedConstantOffset"]
    with mp.workdps(40):
        assert abs(mpf(offset) - mpf(1) / 3) < mpf("1e-29")


def test_explicit_point_bypasses_sampler():
    point = QPoint(mpf("0.3"), {"a": mpf("0.5"), "b": mpf("0.05"),
                                "z": mpf("0.4")})
    report = run(RunConfig(identities=("eq-1.1",), explicit_points=(point,),
                           digits=30))
    res = report["results"][0]
    assert len(res["points"]) == 1
    assert res["points"][0]["params"]["a"].startswith("0.5")
    assert res["aggregate"]["pass"]
    assert len(report["config"]["explicitPoints"]) == 1


def test_point_errors_recorded_not_fatal():
    # out-of-domain explicit point: recorded as a per-point error
    point = QPoint(mpf("0.3"), {"a": mpf("0.5"), "b": mpf("0.05"),
                                "z": mpf("0.01")})  # |b/a| < |z| violated
    report = run(RunConfig(identities=("eq-1.1",), explicit_points=(point,),
                           digits=30))
    pt = report["results"][0]["points"][0]
    assert pt["pass"] is False
    assert "error" in pt
    assert not report["results"][0]["aggregate"]["pass"]


# --- CLI --------------------------------------------------------------------------

def test_cli_list(capsys):
    assert cli.main(["list"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 24
    assert any(line.startswith("eq-1.1") for line in lines)


def test_cli_verify_pass_json(capsys):
    code = cli.main(["verify", "--identity", "eq-3.2", "--points", "3",
                     "--digits", "30", "--report", "json"])
    out = capsys.readouterr().out
    assert code == 0
    parsed = json.loads(out)
    assert parsed["results"][0]["aggregate"]["pass"]


def test_cli_verify_failing_identity(capsys):
    # eq-4.3 as printed does not hold, so verify reports FAIL (exit 1)
    code = cli.main(["verify", "--identity", "eq-4.3", "--points", "2",
                     "--digits", "30"])
    out = capsys.readouterr().out
    assert code == 1
    assert "overall: FAIL" in out


@pytest.mark.parametrize("digits", ["10", "15"])
def test_cli_verify_low_digits_fails_only_the_false_identities(capsys,
                                                               digits):
    # the default tolerance 10^(5 - digits) follows --digits: every identity
    # that holds passes, and only eq-4.3 and eq-5.7 as printed FAIL
    code = cli.main(["verify", "--points", "2", "--digits", digits,
                     "--report", "json"])
    results = json.loads(capsys.readouterr().out)["results"]
    assert code == 1
    assert sorted(r["id"] for r in results
                  if not r["aggregate"]["pass"]) == ["eq-4.3", "eq-5.7"]
    assert not [p for r in results for p in r["points"] if "error" in p]


def test_cli_verify_unknown_identity(capsys):
    assert cli.main(["verify", "--identity", "nope"]) == 2
    assert capsys.readouterr().err == (
        "qseries: error: no identity registered as 'nope'\n")


def test_cli_eval_unknown_identity(capsys):
    # the same lookup, and so the same line, as verify's
    assert cli.main(["eval", "--identity", "nope", "--side", "lhs",
                     "--q", "0.5"]) == 2
    assert capsys.readouterr().err == (
        "qseries: error: no identity registered as 'nope'\n")


def test_cli_verify_explicit_point(capsys):
    code = cli.main(["verify", "--identity", "eq-1.1", "--digits", "30",
                     "--q", "0.3", "--set", "a=0.5", "--set", "b=0.05",
                     "--set", "z=0.4"])
    assert code == 0


@pytest.mark.parametrize("ident, sets, named", [
    ("eq-2.6", ["a=0.5", "b=0.4", "z=0"], "|b/(az)| < 1 violated"),
    ("eq-2.9", ["a=0.5", "b=0.4", "z=0"], "|b/(az)| < 1 violated"),
    ("eq-1.1", ["a=0", "b=0.05", "z=0.4"], "|b/a| < |z| violated"),
    ("eq-1.1", ["a=0.5"], "missing parameter b"),
])
def test_cli_verify_bad_point_is_a_point_error(capsys, ident, sets, named):
    argv = ["verify", "--identity", ident, "--q", "0.3", "--report", "json"]
    for item in sets:
        argv += ["--set", item]
    assert cli.main(argv) == 1
    (result,) = json.loads(capsys.readouterr().out)["results"]
    (point,) = result["points"]
    assert point["pass"] is False
    assert named in point["error"]


def test_cli_verify_exact_pole_is_a_point_error(capsys):
    # a = q^2 reaches psi and prodquot as the exact monomial: a pole, not a
    # PASS from two rounded values of about 3.9e50
    assert cli.main(["verify", "--identity", "eq-1.1", "--q", "0.3",
                     "--set", "a=q^2", "--set", "b=0.01", "--set", "z=0.9",
                     "--report", "json"]) == 1
    out = capsys.readouterr().out
    point = json.loads(out)["results"][0]["points"][0]
    assert "bilateral pole: 1 - q^2/a1 vanishes at m = 2" in point["error"]
    assert '"pass": true' not in out
    # each side names its vanishing factor: a1's at m = 2, and q/a = q^-1's
    for side, named in (("lhs", "1 - q^2/a1"), ("rhs", "1 - (q^-1)*q^1")):
        assert cli.main(["eval", "--identity", "eq-1.1", "--side", side,
                         "--q", "0.3", "--set", "a=q^2", "--set", "b=0.01",
                         "--set", "z=0.9"]) == 1
        err = capsys.readouterr().err
        assert "pole" in err and named in err


def test_cli_set_requires_q(capsys):
    assert cli.main(["verify", "--identity", "eq-1.1", "--set", "a=0.5"]) == 2
    assert capsys.readouterr().err == "qseries: error: --set requires --q\n"


def test_cli_explicit_point_requires_single_identity(capsys):
    code = cli.main(["verify", "--q", "0.3", "--set", "a=0.5"])
    assert code == 2


def test_cli_eval(capsys):
    code = cli.main(["eval", "--identity", "eq-3.2", "--side", "rhs",
                     "--q", "0.5", "--digits", "30"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert abs(mpf(out) - mpf("7.5")) < mpf("1e-25")


def test_cli_eval_parses_q_at_working_precision(capsys):
    # the rhs of eq-3.2 is (1+q^2)(1+q)/(q(1-q)) = 1417/210 at q = 3/10;
    # the nearest double to 0.3 is off from the 17th digit
    code = cli.main(["eval", "--identity", "eq-3.2", "--side", "rhs",
                     "--q", "0.3", "--digits", "40"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    with mp.workdps(60):
        exact = mpf(1417) / 210
        assert abs(mpf(out) - exact) / exact < mpf("1e-38")


def test_cli_eval_parses_set_at_working_precision(capsys):
    # rhs of eq-1.1: (az, q/(az), q, b/a; q)_inf / (z, b/(az), b, q/a; q)_inf
    code = cli.main(["eval", "--identity", "eq-1.1", "--side", "rhs",
                     "--q", "0.3", "--digits", "40", "--set", "a=0.1",
                     "--set", "b=0.01", "--set", "z=0.4"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    with mp.workdps(60):
        a, b, z, q = mpf("0.1"), mpf("0.01"), mpf("0.4"), mpf("0.3")
        num = (mp.qp(a * z, q) * mp.qp(q / (a * z), q) * mp.qp(q, q)
               * mp.qp(b / a, q))
        den = (mp.qp(z, q) * mp.qp(b / (a * z), q) * mp.qp(b, q)
               * mp.qp(q / a, q))
        exact = num / den
        assert abs(mpf(out) - exact) / abs(exact) < mpf("1e-38")


def test_cli_eval_missing_param(capsys):
    # a point error, as under verify: exit 1 with the catalog's message
    code = cli.main(["eval", "--identity", "eq-1.1", "--side", "lhs",
                     "--q", "0.3", "--set", "a=0.5"])
    assert code == 1
    assert capsys.readouterr().err == (
        "qseries: error: eq-1.1: missing parameter b; missing parameter z\n")


@pytest.mark.parametrize("ident, sets, named", [
    ("eq-2.6", ["a=0.5", "b=0.4", "z=0"], "|b/(az)| < 1 violated"),
    ("eq-2.1", ["a=0.5", "b=0", "c=0.2", "z=0.5"], "0 < |b| < 1 violated"),
])
def test_cli_eval_out_of_domain_is_typed_error(capsys, ident, sets, named):
    # a zero divisor is refused by the domain check, not raised by a side
    argv = ["eval", "--identity", ident, "--side", "rhs", "--q", "0.3"]
    for item in sets:
        argv += ["--set", item]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"qseries: error: {ident}: {named}\n"
    assert not captured.out


def test_cli_eval_param_expressions(capsys):
    # q-power expressions: a = -q^1/2, b = q^2, z = 0.5
    code = cli.main(["eval", "--identity", "eq-1.1", "--side", "lhs",
                     "--q", "0.25", "--digits", "30",
                     "--set", "a=-q^1/2", "--set", "b=q^2",
                     "--set", "z=0.5"])
    assert code == 0
    assert capsys.readouterr().out.strip()


def test_cli_digits_env(monkeypatch, capsys):
    monkeypatch.setenv("QSERIES_DIGITS", "25")
    code = cli.main(["verify", "--identity", "eq-3.2", "--points", "2",
                     "--report", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["config"]["digits"] == 25


@pytest.mark.parametrize("argv", [
    ["verify", "--identity", "eq-3.2", "--points", "1", "--digits", "5"],
    ["eval", "--identity", "eq-3.2", "--side", "rhs", "--q", "0.5",
     "--digits", "5"],
])
def test_cli_low_digits_is_usage_error(capsys, argv):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "qseries: error: digits must be >= 10\n"


@pytest.mark.parametrize("env, message", [
    ("abc", "QSERIES_DIGITS must be an integer, got 'abc'"),
    ("5", "digits must be >= 10"),
])
@pytest.mark.parametrize("command", [
    ["verify", "--identity", "eq-3.2", "--points", "1"],
    ["eval", "--identity", "eq-3.2", "--side", "rhs", "--q", "0.5"],
])
def test_cli_bad_digits_env_is_usage_error(monkeypatch, capsys, env, message,
                                           command):
    monkeypatch.setenv("QSERIES_DIGITS", env)
    assert cli.main(command) == 2
    captured = capsys.readouterr()
    assert captured.err == f"qseries: error: {message}\n"
    assert not captured.out


def test_cli_verify_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = cli.main(["verify", "--identity", "eq-3.2", "--points", "2",
                     "--digits", "30", "--report", "json",
                     "--out", str(out_path)])
    assert code == 0
    parsed = json.loads(out_path.read_text())
    assert parsed["results"][0]["id"] == "eq-3.2"


def test_cli_bad_q(capsys):
    assert cli.main(["eval", "--identity", "eq-3.2", "--side", "lhs",
                     "--q", "zap"]) == 2
    assert capsys.readouterr().err == "qseries: error: invalid --q value 'zap'\n"


def test_cli_argparse_error_is_returned(capsys):
    # argparse's own errors come back through main as exit 2 and one line
    assert cli.main(["verify", "--points", "x"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "qseries: error: argument --points: invalid int value: 'x'\n")
    assert not captured.out


_BAD_TOLS = ["inf", "nan", "0", "-1", "1"]


@pytest.mark.parametrize("tol", _BAD_TOLS)
def test_cli_bad_tol_is_usage_error(capsys, tol):
    # relErr is at most 2, so a tolerance of 1 or more would pass eq-4.3
    code = cli.main(["verify", "--identity", "eq-4.3", "--points", "1",
                     "--tol", tol])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("qseries: error: tolerance must satisfy")
    assert captured.err.count("\n") == 1
    assert not captured.out


@pytest.mark.parametrize("tol", _BAD_TOLS)
def test_bad_tolerance_rejected(tol):
    with pytest.raises(ValueError):
        RunConfig(tolerance=float(tol))
    with pytest.raises(QDomainError):
        eval_identity("eq-3.2", QPoint(mpf("0.5"), {}), tol=float(tol))


def test_cli_unwritable_out_is_usage_error(tmp_path, capsys):
    out_path = tmp_path / "missing" / "r.json"
    code = cli.main(["verify", "--identity", "eq-3.2", "--points", "1",
                     "--out", str(out_path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("qseries: error: cannot write --out")
    assert str(out_path) in captured.err
    assert captured.err.count("\n") == 1
    assert not captured.out
