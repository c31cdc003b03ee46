import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pshlab.cli import main

RUN = [sys.executable, "-m", "pshlab"]


def run_cli(args, **kwargs):
    return subprocess.run(RUN + args, capture_output=True, text=True, **kwargs)


def test_analyze_m4(capsys):
    rc = main(["analyze", "--preset", "theorem1", "--m", "4",
               "--no-timestamp"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    result = payload["results"][0]
    assert result["ideal"] == {"b": [2, 2, 2], "e": 7, "p": 1}
    assert result["generators"] == ["(x*y*(x+y))^2 * x", "(x*y*(x+y))^2 * y"]
    assert result["class"] == {"gamma": ["1/2", "1/2", "1/2"], "delta": "1/4"}
    assert result["lelong"] == "7/4"
    assert "generated_at" not in payload


def test_analyze_point_preset(capsys):
    rc = main(["analyze", "--preset", "point", "--m", "2", "--no-timestamp"])
    assert rc == 0
    result = json.loads(capsys.readouterr().out)["results"][0]
    assert result["ideal"] == {"b": [], "e": 1, "p": 1}
    assert result["class"]["delta"] == "1/2"


def test_analyze_rejects_m0():
    proc = run_cli(["analyze", "--preset", "theorem1", "--m", "0"])
    assert proc.returncode == 2
    assert "must be >= 1" in proc.stderr


@pytest.mark.parametrize("m_max", ["0", "-3"])
def test_analyze_rejects_empty_m_range(m_max, capsys):
    rc = main(["analyze", "--preset", "theorem1", "--m-max", m_max])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert "--m-max must be >= 1" in err


def test_sequence_reports_violations(capsys):
    rc = main(["sequence", "--preset", "theorem1", "--m-max", "40",
               "--no-timestamp"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    violations = [tuple(v) for v in payload["violations"]]
    assert (3, 4) in violations and (6, 7) in violations


def test_sequence_smooth_no_violations(capsys):
    rc = main(["sequence", "--preset", "smooth", "--m-max", "40",
               "--no-timestamp"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["violations"] == []


def test_sequence_pow2_indices(capsys):
    rc = main(["sequence", "--preset", "theorem1", "--indices", "pow2",
               "--k-max", "10", "--no-timestamp"])
    assert rc == 0
    sub = json.loads(capsys.readouterr().out)["subsequence"]
    assert sub["decreasing"] is True
    assert sub["indices"][:3] == [2, 4, 8]


def test_compare_command(capsys):
    rc = main(["compare", "--preset", "theorem1", "--m1", "4", "--m2", "3",
               "--no-timestamp"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["comparison"]["relation"] == "second_more_singular"


def test_lct_command(capsys):
    rc = main(["lct", "--preset", "theorem1", "--format", "md"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "lct = 1"


def test_output_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["lct", "--preset", "point", "--no-timestamp",
               "--output", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["lct"] == "2"


def test_verify_paper_exit_codes(capsys):
    rc = main(["verify-paper", "--no-timestamp"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0 and payload["all_passed"] is True
    assert len(payload["claims"]) == 8
    rc = main(["verify-paper", "--claims", "prop2", "--no-timestamp"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0 and len(payload["claims"]) == 1


def test_verify_paper_unknown_claim():
    proc = run_cli(["verify-paper", "--claims", "bogus"])
    assert proc.returncode == 2


def test_verify_paper_failing_claim_exits_1(monkeypatch, capsys):
    import pshlab.sequence as seq

    def broken():
        return seq.ClaimResult("broken", "always fails", False, {})

    monkeypatch.setitem(seq.CLAIMS, "broken", broken)
    rc = main(["verify-paper", "--claims", "broken", "--no-timestamp"])
    assert rc == 1
    assert json.loads(capsys.readouterr().out)["all_passed"] is False


def test_corrupted_arrangement_file(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"lines": [[[1, 0]]]', encoding="utf-8")
    proc = run_cli(["lct", "--file", str(bad)])
    assert proc.returncode == 2
    assert "line" in proc.stderr  # parse diagnostic with position info


@pytest.mark.parametrize("field, value", [
    ("coeffs", ["1e100000"]),
    ("coeffs", ["1/1e400"]),
    ("coeffs", [str(2 ** 1000)]),
    ("point_mass", "1e-1001"),
    ("lines", [[["1", "0"], ["1", "3e400"]]]),
], ids=["weight-exponent", "weight-exponent-denominator", "weight-digits",
        "point-mass", "line-coefficient"])
def test_oversized_rationals_exit_2(tmp_path, field, value):
    # a huge rational used to end in a ValueError traceback from str(int)
    record = {"lines": [[["1", "0"], ["0", "0"]]], "coeffs": ["1"],
              "point_mass": "0", field: value}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    proc = run_cli(["lct", "--file", str(path)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_rationals_at_the_size_cap_load(tmp_path, capsys):
    # 1000-bit numerators and denominators load and print
    big = str(2 ** 1000 - 1)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "lines": [[["1", "0"], ["0", "0"]],
                  [[big, f"-1/{big}"], [f"{big}/7", big]]],
        "coeffs": [f"1/{big}", "2/3"],
    }), encoding="utf-8")
    assert main(["lct", "--file", str(path), "--no-timestamp"]) == 0
    assert json.loads(capsys.readouterr().out)["lct"] == "3/2"


def test_analyze_refuses_huge_generator_expansion(tmp_path):
    # A weight of 10^300 - 1 asks for ell^b with b ~ 10^300: analyze used to
    # expand it until killed.  The reports print only the factored
    # generators, so no format expands it.  The subprocess timeout makes a
    # hang a failure.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "lines": [[["1", "0"], ["0", "0"]], [["0", "0"], ["1", "0"]]],
        "coeffs": ["9" * 300, "1/2"],
    }), encoding="utf-8")
    for args in (["lct"], ["sequence", "--m-max", "3"],
                 ["analyze", "--m", "1"],
                 ["analyze", "--m", "1", "--format", "csv"]):
        done = run_cli(args + ["--file", str(path)], timeout=60)
        assert done.returncode == 0 and done.stdout, args
        assert "Traceback" not in done.stderr, args


def test_analyze_md_refuses_too_many_generators(tmp_path):
    # One line x of weight 1 with point mass M has p = M - 1 at m = 1, and
    # the md table lists all p + 1 generator strings: M = 10^6 printed
    # 25 MB and M = 10^12 ran until killed.  The timeout makes a hang fail.
    def analyze_md(mass):
        path = tmp_path / f"mass{mass}.json"
        path.write_text(json.dumps({"lines": [[["1", "0"], ["0", "0"]]],
                                    "coeffs": ["1"], "point_mass": mass}),
                        encoding="utf-8")
        return run_cli(["analyze", "--file", str(path), "--m", "1",
                        "--format", "md", "--no-timestamp"], timeout=60)

    at_cap = analyze_md("1001")  # p = 1000 = MAX_GENERATOR_DEGREE
    assert at_cap.returncode == 0
    _, ideal, gens, *_ = at_cap.stdout.splitlines()[-1].split(" | ")
    assert ideal == "[1]; 1000" and len(gens.split(", ")) == 1001
    for mass in ("1002", str(10 ** 12)):
        proc = analyze_md(mass)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
        assert "MAX_GENERATOR_DEGREE" in proc.stderr


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="Python < 3.11 has no int-to-str digit limit")
def test_analyze_json_refuses_unprintable_coefficients(tmp_path):
    # (x + 2^999*y)^15 has coefficients beyond the 4,300-digit int-to-str
    # limit: the JSON report used to end in a ValueError traceback, then in
    # exit 2.  It prints the factored generators only, so it needs none.
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "lines": [[["1", "0"], ["0", "0"]], [["1", "0"], [str(2 ** 999), "0"]]],
        "coeffs": ["1", "3"],
    }), encoding="utf-8")
    for fmt in ("json", "csv", "md"):
        done = run_cli(["analyze", "--file", str(path), "--m", "5",
                        "--format", fmt], timeout=60)
        assert done.returncode == 0 and done.stdout, fmt
        assert "Traceback" not in done.stderr, fmt


def test_analyze_json_prints_each_generator_once(tmp_path):
    # One line x + y of weight 1 with point mass 1: at m = 500 the JSON
    # report repeated the expansion of (x + y)^b in each of the p + 1
    # generators, 50 MB in all; the factored generators take 19 KB.
    path = tmp_path / "line.json"
    path.write_text(json.dumps({"lines": [[["1", "0"], ["1", "0"]]],
                                "coeffs": ["1"], "point_mass": "1"}),
                    encoding="utf-8")
    proc = run_cli(["analyze", "--file", str(path), "--m", "500",
                    "--no-timestamp"], timeout=60)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr
    assert len(proc.stdout.encode()) < 100_000
    (result,) = json.loads(proc.stdout)["results"]
    assert len(result["generators"]) == result["ideal"]["p"] + 1


def test_arrangement_file_round_trip(tmp_path, capsys):
    path = tmp_path / "arr.json"
    path.write_text(json.dumps({
        "lines": [[["1", "0"], ["0", "0"]]],
        "coeffs": ["1"],
        "point_mass": "0",
    }), encoding="utf-8")
    rc = main(["lct", "--file", str(path), "--format", "md"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "lct = 1"


def test_bergman_rejects_small_samples():
    proc = run_cli(["bergman", "--preset", "theorem1", "--m1", "3",
                    "--m2", "4", "--samples", "100"])
    assert proc.returncode == 2
    assert "sphere_samples" in proc.stderr


def test_bergman_scan_and_determinism(tmp_path):
    args = ["bergman", "--preset", "theorem1", "--m1", "3", "--m2", "4",
            "--curve", "x=y", "--tmin", "1e-3", "--tmax", "1e-1",
            "--samples", "20000", "--seed", "42", "--max-degree", "8",
            "--no-timestamp"]
    first = run_cli(args)
    second = run_cli(args)
    assert first.returncode == 0
    assert first.stdout == second.stdout  # byte-identical with equal seeds
    payload = json.loads(first.stdout)
    assert payload["verdict"] == "UNBOUNDED"
    assert payload["slope"] < -0.1


def test_bergman_ray_mode(capsys):
    rc = main(["bergman", "--preset", "point", "--m", "2", "--samples",
               "20000", "--seed", "1", "--max-degree", "6",
               "--rays", "4", "--no-timestamp"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["symbolic_lelong"] == "1/2"
    assert abs(payload["lelong_estimate"] - 0.5) < 0.05


@pytest.mark.parametrize("m", [50, 200])
def test_bergman_large_m(m, capsys):
    rc = main(["bergman", "--preset", "theorem1", "--m", str(m),
               "--audit-gram", "--no-timestamp"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    symbolic = float(Fraction(payload["symbolic_lelong"]))
    assert math.isfinite(payload["lelong_estimate"])
    assert abs(payload["lelong_estimate"] - symbolic) < 0.05
    gram = payload["gram"]
    degrees = gram["degrees"]
    cross = [(j, k) for j, dj in enumerate(degrees)
             for k, dk in enumerate(degrees) if dj != dk]
    assert cross and all(gram["gram_re"][j][k] == gram["gram_im"][j][k]
                         == gram["stderr"][j][k] == 0.0 for j, k in cross)


def test_bergman_reports_quadrature_nodes(capsys):
    # the deterministic rule reports its node count: one per Gram of a
    # scan, one for the ray slopes; theorem1 has the same nodes at any m
    base = ["bergman", "--preset", "theorem1", "--samples", "10000",
            "--max-degree", "8", "--no-timestamp"]
    assert main(base + ["--m1", "3", "--m2", "4"]) == 0
    scan = json.loads(capsys.readouterr().out)
    assert scan["quadrature_nodes"] == [9216, 9216]
    assert main(base + ["--m", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["quadrature_nodes"] == 9216


def test_bergman_csv_table(capsys):
    rc = main(["bergman", "--preset", "smooth", "--m1", "2", "--m2", "3",
               "--samples", "10000", "--seed", "3", "--max-degree", "6",
               "--points", "5", "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,phi_m1,phi_m2,delta"
    assert len(lines) == 6


def test_bergman_scan_grid_defaults_to_the_slope_window(monkeypatch, capsys):
    # the default t grid of a scan is bergman.SLOPE_WINDOW, read when the
    # command runs, not a copy of it
    import numpy as np

    from pshlab import bergman

    monkeypatch.setattr(bergman, "SLOPE_WINDOW", (1e-2, 1e-1, 7))
    rc = main(["bergman", "--preset", "theorem1", "--m1", "3", "--m2", "4",
               "--samples", "10000", "--max-degree", "8", "--format", "csv"])
    assert rc == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    t = [float(row.split(",")[0]) for row in rows]
    assert t == np.geomspace(1e-2, 1e-1, 7).tolist()


def test_usage_requires_m_flags():
    proc = run_cli(["bergman", "--preset", "theorem1"])
    assert proc.returncode == 2


@pytest.mark.parametrize("command", ["analyze", "sequence", "compare", "lct",
                                     "verify-paper", "bergman"])
def test_one_command_parser_matches_the_full_parser(command, capsys):
    # main adds the arguments of the subcommand it runs alone; its help and
    # its parse must be those of the parser holding every subcommand's
    from pshlab import cli

    assert main([command, "--help"]) == 0
    alone = capsys.readouterr()
    with pytest.raises(SystemExit):
        cli._build_parser().parse_args([command, "--help"])
    assert capsys.readouterr() == alone
    argv = [command, *(["--m1", "4", "--m2", "3"] if command == "compare"
                       else [])]
    assert cli._build_parser(command).parse_args(argv) == \
        cli._build_parser().parse_args(argv)


@pytest.mark.parametrize("flags", [
    # y = 0 is a line of theorem1: phi_hat is -inf all along it; the NaN
    # slope must come back without a numpy warning
    pytest.param(["--m1", "3", "--m2", "4", "--curve", "dir:1,0,0,0"],
                 marks=pytest.mark.filterwarnings("error")),
    ["--m1", "3", "--m2", "4", "--points", "0"],
    ["--m1", "3", "--m2", "4", "--points", "1"],
    ["--m", "3", "--rays", "0"],
    # cofactor degrees beyond the angular exactness of the rule
    ["--m", "1", "--max-degree", "48"],
], ids=["curve-in-line", "points-0", "points-1", "rays-0", "cutoff-48"])
def test_bergman_degenerate_input_exits_2(flags, capsys):
    rc = main(["bergman", "--preset", "theorem1", "--samples", "10000",
               *flags])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""  # no verdict, no estimate
    assert err.startswith("error:")


@pytest.mark.parametrize("flags, reason", [
    (["--m1", "3", "--m2", "4", "--slope-tol", "nan"], "--slope-tol"),
    (["--m1", "3", "--m2", "4", "--slope-tol", "-5"], "--slope-tol"),
    (["--m1", "3", "--m2", "4", "--slope-tol", "inf"], "--slope-tol"),
    (["--m1", "3", "--m2", "4", "--points", "100001"], "--points"),
    (["--m", "3", "--rays", "100001"], "--rays"),
    (["--m1", "3", "--m2", "4", "--curve", "dir:inf,0,1,0"], "non-finite"),
    (["--m1", "3", "--m2", "4", "--curve", "dir:1,nan,1,0"], "non-finite"),
    # a flag of the other mode changes nothing
    (["--m1", "3", "--m2", "4", "--m", "5", "--rays", "3", "--audit-gram",
      "--max-degree", "8"], "--m, --rays, --audit-gram not used by a scan"),
    (["--m1", "3", "--m2", "4", "--rays", "8"], "--rays"),
    (["--m1", "3", "--m2", "4", "--audit-gram"], "--audit-gram"),
    (["--m", "3", "--curve", "x=y"], "--curve not used by ray slopes"),
    (["--m", "3", "--tmin", "1e-3", "--tmax", "0.1"], "--tmin, --tmax"),
    (["--m", "3", "--points", "25"], "--points"),
    (["--m", "3", "--slope-tol", "0.02"], "--slope-tol"),
    (["--curve", "x=y"], "--curve"),
    # the audited Gram is printed in JSON only
    (["--m", "3", "--audit-gram", "--format", "csv"], "--audit-gram"),
    (["--m", "3", "--audit-gram", "--format", "md"], "--audit-gram"),
], ids=["slope-tol-nan", "slope-tol-negative", "slope-tol-inf", "points-cap",
        "rays-cap", "curve-inf", "curve-nan", "scan-with-ray-flags",
        "scan-rays", "scan-audit-gram", "rays-curve", "rays-t-range",
        "rays-points", "rays-slope-tol", "curve-without-m", "audit-gram-csv",
        "audit-gram-md"])
def test_bergman_refuses_flags_before_any_estimate(flags, reason, monkeypatch,
                                                   capsys):
    # a NaN or negative --slope-tol flipped the scan verdict under exit 0,
    # --points and --rays had no cost cap, a non-finite direction printed a
    # numpy warning before its error line, and the flags of the other mode
    # were ignored under exit 0, as was --audit-gram outside JSON
    from pshlab import bergman

    def no_estimate(*args, **kwargs):
        raise AssertionError("estimate run")

    monkeypatch.setattr(bergman, "curve_scan", no_estimate)
    monkeypatch.setattr(bergman, "lelong_estimate", no_estimate)
    monkeypatch.setattr(bergman, "gram_matrix", no_estimate)
    rc = main(["bergman", "--preset", "theorem1", *flags])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith("error:") and reason in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("fmt", ["json", "csv", "md"])
@pytest.mark.parametrize("mode", ["rays", "scan"])
def test_non_finite_report_is_refused(mode, fmt, monkeypatch, capsys,
                                      tmp_path):
    # a NaN the per-value checks do not read (the ray mean, a scan's t)
    # used to print as NaN, which is not JSON, or as nan under exit 0
    from types import SimpleNamespace

    from pshlab import bergman

    gram = SimpleNamespace(m=1, nodes=0, spec=SimpleNamespace(max_degree=12))

    def nan_rays(*args, **kwargs):
        return bergman.RaySlopes(gram, math.nan, [1.0, 1.0])

    def nan_scan(arr, m1, m2, curve, t, quad, **kwargs):
        return bergman.CurveScan((gram, gram), t * math.nan, t * 0.0,
                                 t * 0.0, -1.0)

    monkeypatch.setattr(bergman, "lelong_estimate", nan_rays)
    monkeypatch.setattr(bergman, "curve_scan", nan_scan)
    flags = ["--m", "1"] if mode == "rays" else ["--m1", "1", "--m2", "2"]
    target = tmp_path / "report.out"
    for output in ([], ["--output", str(target)]):
        rc = main(["bergman", "--preset", "theorem1", *flags, "--format",
                   fmt, *output])
        out, err = capsys.readouterr()
        assert rc == 2 and out == "" and not target.exists()
        assert err.startswith("error:") and "non-finite" in err
        assert len(err.splitlines()) == 1


def test_non_finite_json_payload_is_refused(monkeypatch, capsys):
    # a float outside the checked values, here in the audited Gram, is
    # caught by the JSON encoder, which no longer writes NaN
    from types import SimpleNamespace

    from pshlab import bergman

    gram = SimpleNamespace(m=1, nodes=0, spec=SimpleNamespace(max_degree=12),
                           to_dict=lambda: {"gram_re": [[math.inf]]})
    monkeypatch.setattr(bergman, "lelong_estimate", lambda *args, **kwargs:
                        bergman.RaySlopes(gram, 1.0, [1.0]))
    rc = main(["bergman", "--preset", "theorem1", "--m", "1",
               "--audit-gram"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == "" and "non-finite" in err


def test_bergman_subnormal_t_is_one_error_line():
    # subnormal t used to send numpy RuntimeWarnings to stderr before the
    # error line; the range is now refused before any numpy work
    proc = run_cli(["bergman", "--m1", "3", "--m2", "4", "--tmin", "1e-320",
                    "--tmax", "1e-300"], timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


def test_bergman_huge_degree_cutoff_exits_2(monkeypatch, capsys):
    # the cofactor degree is compared with its cap before the monomial
    # list (about 5e15 tuples here) could be built
    from pshlab import bergman

    def no_list(degrees):
        raise AssertionError("monomial list built")

    monkeypatch.setattr(bergman, "_cofactor_monomials", no_list)
    rc = main(["bergman", "--preset", "theorem1", "--m", "3",
               "--max-degree", "100000000"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "cofactor degree" in err


@pytest.mark.parametrize("flags, reason", [
    (["--indices", ","], "the index family names no index"),
    (["--indices", "pow2", "--k-max", "0"], "the index family names no index"),
    (["--indices", "pow2", "--k-max", "-1"], "--k-max must be >= 0"),
    (["--indices", "4,2"], "strictly increasing"),
], ids=["empty-list", "pow2-k-max-0", "k-max-negative", "not-increasing"])
def test_sequence_empty_index_family_exits_2(flags, reason, capsys):
    # an index family that names no index used to print "subsequence": null
    # under exit 0, the requested check dropped without a word; a negative
    # --k-max was clamped to 0.  An empty family is told apart from one
    # that is not strictly increasing
    rc = main(["sequence", "--preset", "theorem1", "--m-max", "4", *flags])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith("error:") and reason in err


@pytest.mark.parametrize("command, flags, reason", [
    ("sequence", ["--indices", "pow2", "--k-max", "100000"], "bits"),
    ("sequence", ["--indices", "3k+2", "--k-max", "1000000000"],
     "indices exceed"),
    ("sequence", ["--indices", "3," + str(2 ** 1200)], "bits"),
    ("sequence", ["--m-max", "300000"], "indices exceed"),
    ("analyze", ["--m-max", "300000"], "indices exceed"),
    ("analyze", ["--m", str(2 ** 1200)], "bits"),
    ("compare", ["--m1", str(2 ** 1200), "--m2", "3"], "bits"),
    ("bergman", ["--m", str(2 ** 1200)], "bits"),
    ("bergman", ["--m1", str(2 ** 1200), "--m2", "1"], "bits"),
], ids=["pow2-bits", "3k+2-count", "list-bits", "sequence-m-max",
        "analyze-m-max", "analyze-m-bits", "compare-bits", "bergman-m-bits",
        "bergman-scan-bits"])
def test_sequence_index_family_cost_guard(command, flags, reason, capsys,
                                          monkeypatch):
    # refused from the family's size, or a single index from its bits,
    # before any index, entry or Gram is built
    from pshlab import bergman, cli

    def no_entries(*args, **kwargs):
        raise AssertionError("entries built")

    monkeypatch.setattr(cli, "entry", no_entries)
    monkeypatch.setattr(cli, "_entries", no_entries)
    monkeypatch.setattr(cli, "monotonicity_report", no_entries)
    monkeypatch.setattr(bergman, "gram_matrix", no_entries)
    rc = main([command, "--preset", "theorem1", *flags])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith("error:") and reason in err


def test_huge_single_index_exits_2(tmp_path):
    # weight 2^999/3 times an index of 4,201 digits printed past the
    # int-to-str digit limit: compare and analyze ended in a ValueError
    # traceback and exit 1.  A single index is capped like --indices
    path = tmp_path / "weights.json"
    path.write_text(json.dumps({
        "lines": [[["1", "0"], ["0", "0"]], [["0", "0"], ["1", "0"]]],
        "coeffs": [f"{2 ** 999}/3", "1/2"]}), encoding="utf-8")
    m = str(10 ** 4200)
    for args in (["compare", "--m1", m, "--m2", "3"], ["analyze", "--m", m],
                 ["analyze", "--m", m, "--format", "csv"]):
        proc = run_cli([*args, "--file", str(path)], timeout=60)
        assert proc.returncode == 2 and proc.stdout == "", args
        assert proc.stderr.startswith("error:") and "bits" in proc.stderr
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


HUGE_LINE = {
    "lines": [[["1", "0"], ["0", "0"]], [["1", "0"], [str(10 ** 300), "0"]]],
    "coeffs": ["1/2", "3/4"]}
TINY_EXPONENT = {**HUGE_LINE, "coeffs": ["1/2", "99/100"]}
HUGE_NORM = {"lines": [["1", "0"], ["1/" + str(2 ** 999), str(2 ** 999)]],
             "coeffs": ["1/2", "3/4"]}


@pytest.mark.parametrize("data, flags, key, want", [
    (HUGE_LINE, ["--m", "2"], "lelong_estimate", 1.0),
    (HUGE_LINE, ["--m1", "2", "--m2", "3"], "slope", 0.0),
    (TINY_EXPONENT, ["--m", "1"], "lelong_estimate", 0.0),
    (TINY_EXPONENT, ["--m1", "1", "--m2", "2"], "slope", None),
    (HUGE_NORM, ["--m", "2"], "lelong_estimate", 1.0),
    (HUGE_NORM, ["--m1", "2", "--m2", "3"], "slope", 0.0),
], ids=["rays", "scan", "exponent-rays", "exponent-scan", "norm-rays",
        "norm-scan"])
def test_bergman_huge_line_coefficient(data, flags, key, want, tmp_path):
    # x + 10^300 y once overflowed the Hopf rule: a numpy warning on
    # stderr, then exit 2 blaming --radius.  The Gram's weight then still
    # read the raw coefficients: the exponent -0.99 on that line underflowed
    # it to 0, and x + 2^1998 y overflowed its float conversion
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    proc = run_cli(["bergman", "--file", str(path), *flags, "--no-timestamp"],
                   timeout=300)
    assert proc.returncode == 0 and proc.stderr == ""
    out = json.loads(proc.stdout)
    numbers = out.get("per_ray", []) + [
        v for row in out.get("rows", []) for v in row.values()]
    assert all(map(math.isfinite, numbers + [out[key]]))
    if want is not None:
        assert abs(out[key] - want) <= 0.05


def test_bergman_audit_gram_beyond_float_scale(tmp_path, capsys):
    # x + 2^1998 y with weight 99/100 has log_scale -2742 at m = 1: the
    # audited Gram once printed as all zeros (exp underflow) under exit 0
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps({**HUGE_NORM, "coeffs": ["1/2", "99/100"]}),
                    encoding="utf-8")
    flags = ["bergman", "--file", str(path), "--m", "1"]
    rc = main([*flags, "--audit-gram", "--format", "json"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "log_scale" in err
    assert len(err.splitlines()) == 1
    # the slopes need no dense view: the default report is unchanged
    assert main([*flags, "--format", "md"]) == 0
    assert capsys.readouterr().out.startswith("lelong(phi_1) ~ ")


def test_bergman_audit_gram_is_built_once(monkeypatch, capsys):
    from pshlab import bergman

    built = []

    def counted(*args, **kwargs):
        built.append(args[1])
        return real(*args, **kwargs)

    real = bergman.gram_matrix
    monkeypatch.setattr(bergman, "gram_matrix", counted)
    rc = main(["bergman", "--preset", "theorem1", "--m", "4", "--rays", "4",
               "--audit-gram", "--no-timestamp"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0 and built == [4]
    assert payload["gram"]["max_degree"] == payload["max_degree_used"]


def test_bergman_basis_degree_cap(tmp_path, monkeypatch, capsys):
    # a weight of 2^999 puts the basis near degree 3 * 2^999 at m = 3:
    # refused by its degree before any list or array is built
    from pshlab import bergman

    def no_list(degrees):
        raise AssertionError("monomial list built")

    monkeypatch.setattr(bergman, "_cofactor_monomials", no_list)
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps({"lines": [["1", "0"]],
                                "coeffs": [str(2 ** 999)]}), encoding="utf-8")
    rc = main(["bergman", "--file", str(path), "--m", "3"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "reaches degree 2^1000" in err
    assert len(err.splitlines()) == 1 and "--radius" not in err


_EXACT_COMMANDS = [
    ["lct", "--preset", "theorem1"],
    ["compare", "--preset", "theorem1", "--m1", "4", "--m2", "3"],
    ["sequence", "--preset", "theorem1", "--m-max", "20", "--format", "csv"],
    ["verify-paper", "--claims", "thm1"],
    ["analyze", "--preset", "theorem1", "--m", "4"],
]


def test_exact_paths_do_not_import_numpy():
    probe = (
        "import sys\n"
        "import pshlab\n"
        "assert 'numpy' not in sys.modules, 'import pshlab loaded numpy'\n"
        "assert pshlab.gram_matrix is pshlab.bergman.gram_matrix\n"
        "assert pshlab.bergman.MIN_SPHERE_SAMPLES > 0\n"
        "from pshlab import integrability_estimate, QuadratureSpec\n"
        "ns = {}\n"
        "exec('from pshlab import *', ns)\n"
        "missing = set(pshlab.__all__) - set(ns)\n"
        "assert not missing, missing\n"
        "assert 'numpy' in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for args in _EXACT_COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "pshlab", *args,
             "--no-timestamp"], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        imported = {line.rsplit("|", 1)[-1].strip()
                    for line in proc.stderr.splitlines()
                    if line.startswith("import time:")}
        assert "pshlab.cli" in imported
        assert "numpy" not in imported, args


def test_lazy_names_read_the_submodule_binding(monkeypatch):
    # a lazy name is looked up in its imported submodule on every access,
    # so a monkeypatch (or a tracer) is seen, and so is its undoing
    import pshlab
    from pshlab import bergman, integrability

    for module, name in ((integrability, "integrability_estimate"),
                         (bergman, "gram_matrix")):
        original = getattr(module, name)
        assert getattr(pshlab, name) is original
        with monkeypatch.context() as patch:
            patch.setattr(module, name, stub := object())
            assert getattr(pshlab, name) is stub
        assert getattr(pshlab, name) is original


def _rows_from_json(text):
    payload = json.loads(text)
    rows = []
    for i, ent in enumerate(payload["entries"]):
        verdict = payload["comparisons"][i - 1]["relation"] if i else None
        rows.append((ent["m"], tuple(ent["ideal"]["b"]), ent["ideal"]["p"],
                     tuple(ent["class"]["gamma"]), ent["class"]["delta"],
                     ent["lelong"], verdict))
    return rows, [tuple(v) for v in payload["violations"]]


def _rows_from_csv(text):
    import csv
    table = list(csv.reader(text.splitlines()))
    assert table[0] == ["m", "b", "p", "gamma", "delta", "nu", "vs_previous"]
    rows = [(int(m), tuple(int(v) for v in b.split(";")), int(p),
             tuple(gamma.split(";")), delta, nu, verdict or None)
            for m, b, p, gamma, delta, nu, verdict in table[1:]]
    violations = [(prev[0], row[0]) for prev, row in zip(rows, rows[1:])
                  if row[6] in ("second_more_singular", "incomparable")]
    return rows, violations


_MD_VERDICTS = {
    "-": None,
    "equivalent": "equivalent",
    "more singular (ok)": "first_more_singular",
    "less singular (VIOLATION)": "second_more_singular",
    "incomparable (VIOLATION)": "incomparable",
}


def _rows_from_md(text):
    lines = text.splitlines()
    rows, violations = [], []
    for line in lines[2:]:
        if line.startswith("Violating steps: "):
            for pair in line[len("Violating steps: "):].split(", "):
                a, b = pair.strip("()").split(",")
                violations.append((int(a), int(b)))
        if not line.startswith("|"):
            continue
        m, b, p, gamma, delta, nu, verdict = (
            cell.strip() for cell in line.strip("|").split("|"))
        rows.append((int(m), tuple(int(v) for v in b.strip("[]").split(",")),
                     int(p), tuple(gamma.strip("()").split(", ")), delta, nu,
                     _MD_VERDICTS[verdict]))
    return rows, violations


def test_sequence_formats_agree(capsys):
    parsed = {}
    for fmt, parse in (("json", _rows_from_json), ("csv", _rows_from_csv),
                       ("md", _rows_from_md)):
        rc = main(["sequence", "--preset", "theorem1", "--m-max", "60",
                   "--format", fmt, "--no-timestamp"])
        assert rc == 0
        parsed[fmt] = parse(capsys.readouterr().out)
    rows, violations = parsed["json"]
    assert len(rows) == 60 and (3, 4) in violations
    assert parsed["csv"] == parsed["json"]
    assert parsed["md"] == parsed["json"]


# Stdout of three reports in md and csv, and of two JSON reports whose
# comparisons carry witnesses (the JSON stored under tests/golden).  The
# renderers in cli.py must reproduce these bytes exactly.
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_REPORTS = {
    ("sequence --preset theorem1 --m-max 7 --indices 2,4,8", "md"): """\
| m | b | p | gamma | delta | nu | vs previous |
|---|---|---|-------|-------|----|-------------|
| 1 | [0, 0, 0] | 1 | (0, 0, 0) | 1 | 1 | - |
| 2 | [1, 1, 1] | 0 | (1/2, 1/2, 1/2) | 0 | 3/2 | more singular (ok) |
| 3 | [2, 2, 2] | 0 | (2/3, 2/3, 2/3) | 0 | 2 | more singular (ok) |
| 4 | [2, 2, 2] | 1 | (1/2, 1/2, 1/2) | 1/4 | 7/4 | less singular (VIOLATION) |
| 5 | [3, 3, 3] | 0 | (3/5, 3/5, 3/5) | 0 | 9/5 | more singular (ok) |
| 6 | [4, 4, 4] | 0 | (2/3, 2/3, 2/3) | 0 | 2 | more singular (ok) |
| 7 | [4, 4, 4] | 1 | (4/7, 4/7, 4/7) | 1/7 | 13/7 | less singular (VIOLATION) |

Violating steps: (3,4), (6,7)

Subsequence [2, 4, 8]...: decreasing=True, strictly=True, converges=True
""",
    ("sequence --preset theorem1 --m-max 7 --indices 2,4,8", "csv"): """\
m,b,p,gamma,delta,nu,vs_previous
1,0;0;0,1,0;0;0,1,1,
2,1;1;1,0,1/2;1/2;1/2,0,3/2,first_more_singular
3,2;2;2,0,2/3;2/3;2/3,0,2,first_more_singular
4,2;2;2,1,1/2;1/2;1/2,1/4,7/4,second_more_singular
5,3;3;3,0,3/5;3/5;3/5,0,9/5,first_more_singular
6,4;4;4,0,2/3;2/3;2/3,0,2,first_more_singular
7,4;4;4,1,4/7;4/7;4/7,1/7,13/7,second_more_singular
""",
    ("analyze --preset theorem1 --m 2 4", "md"): """\
| m | ideal (b; p) | generators | gamma | delta | nu |
|---|--------------|------------|-------|-------|----|
| 2 | [1, 1, 1]; 0 | x*y*(x+y) | (1/2, 1/2, 1/2) | 0 | 3/2 |
| 4 | [2, 2, 2]; 1 | (x*y*(x+y))^2 * x, (x*y*(x+y))^2 * y | (1/2, 1/2, 1/2) | 1/4 | 7/4 |
""",
    ("analyze --preset theorem1 --m 2 4", "csv"): """\
m,b,p,gamma,delta,nu
2,1;1;1,0,1/2;1/2;1/2,0,3/2
4,2;2;2,1,1/2;1/2;1/2,1/4,7/4
""",
    ("verify-paper --claims thm1 prop2", "md"): """\
| claim | status | description |
|-------|--------|-------------|
| adjacent-violation-3-4 | PASS | phi_4 is not at least as singular as phi_3 (no constants can fix the step) |
| pow2-subsequence-decreasing | PASS | the powers-of-two subsequence decreases for k = 1..10, with the two alternating exponent patterns |

Overall: PASS
""",
    ("verify-paper --claims thm1 prop2", "csv"): """\
claim,passed
adjacent-violation-3-4,True
pow2-subsequence-decreasing,True
""",
    ("sequence --preset theorem1 --m-max 7 --indices 2,4,8 --no-timestamp",
     "json"): (GOLDEN_DIR / "sequence_theorem1_m7.json").read_text(
         encoding="utf-8"),
    ("compare --preset theorem1 --m1 4 --m2 3 --no-timestamp", "json"): (
        GOLDEN_DIR / "compare_theorem1_4_3.json").read_text(encoding="utf-8"),
}


@pytest.mark.parametrize("command, fmt", list(GOLDEN_REPORTS))
def test_report_bytes_are_pinned(command, fmt, capsys):
    assert main([*command.split(), "--format", fmt]) == 0
    assert capsys.readouterr().out == GOLDEN_REPORTS[command, fmt]
