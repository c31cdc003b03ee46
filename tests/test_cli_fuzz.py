"""Fuzz the CLI: the exact subcommands over small arrangement files,
malformed arrangement files and claim filters, and the `bergman` flags."""

import contextlib
import copy
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from pshlab.cli import MAX_INDICES, main
from pshlab.sequence import CLAIM_ALIASES, CLAIMS

# x, y, x+y, x-y, x+(1/2+i/3)y, x+(i/2)y, and 2x+2y (a duplicate of x+y)
LINES = [[["1", "0"], ["0", "0"]], [["0", "0"], ["1", "0"]],
         [["1", "0"], ["1", "0"]], [["1", "0"], ["-1", "0"]],
         [["1", "0"], ["1/2", "1/3"]], [["2", "0"], ["0", "1"]],
         [["2", "0"], ["2", "0"]]]
weight = st.integers(1, 9).flatmap(
    lambda q: st.integers(0, 2 * q).map(lambda k: f"{k}/{q}"))
arrangement = st.integers(1, 4).flatmap(lambda n: st.fixed_dictionaries({
    "lines": st.lists(st.sampled_from(range(len(LINES))), min_size=n,
                      max_size=n, unique=True).map(
        lambda picks: [LINES[i] for i in picks]),
    "coeffs": st.lists(weight, min_size=n, max_size=n),
    "point_mass": weight,
}))
index = st.integers(0, 60)
command = st.one_of(
    st.just(["lct"]),
    st.tuples(index, index).map(
        lambda m: ["compare", "--m1", str(m[0]), "--m2", str(m[1])]),
    st.tuples(index, st.sampled_from([[], ["--indices", "pow2"],
                                      ["--indices", "3k+2"],
                                      ["--indices", "2,4,8"]])).map(
        lambda a: ["sequence", "--m-max", str(a[0]), "--k-max", "5", *a[1]]),
    st.integers(0, 4).map(lambda m: ["analyze", "--m-max", str(m)]),
)


@st.composite
def malformed(draw):
    """A valid record with one fault: a string or an object where an array
    belongs, a boolean, a float or null for a number, a line or an
    [re, im] pair of the wrong length, or a missing key."""
    data = copy.deepcopy(draw(arrangement))
    line = draw(st.sampled_from(data["lines"]))
    fault = draw(st.sampled_from(["array", "line", "pair", "number",
                                  "missing"]))
    if fault == "array":
        key = draw(st.sampled_from(["lines", "coeffs"]))
        data[key] = draw(st.sampled_from([
            json.dumps(data[key]), "".join(map(str, data[key])),
            {str(i): v for i, v in enumerate(data[key])}]))
    elif fault == "line":
        data["lines"][data["lines"].index(line)] = draw(st.sampled_from([
            json.dumps(line), "10", {"cx": line[0], "cy": line[1]},
            line[:1], line + [line[0]]]))
    elif fault == "pair":
        j = draw(st.integers(0, 1))
        line[j] = draw(st.sampled_from([
            line[j][:1], line[j] + ["0"], {"re": line[j][0], "im": line[j][1]},
            []]))
    elif fault == "number":
        bad = draw(st.sampled_from([True, False, 0.5, 1.0, None]))
        where = draw(st.sampled_from(["coeff", "point_mass", "re", "im"]))
        if where == "coeff":
            data["coeffs"][draw(st.integers(0, len(data["coeffs"]) - 1))] = bad
        elif where == "point_mass":
            data["point_mass"] = bad
        else:
            line[draw(st.integers(0, 1))][where == "im"] = bad
    else:
        del data[draw(st.sampled_from(["lines", "coeffs"]))]
    return data


claim_name = st.sampled_from(
    [*CLAIMS, *CLAIM_ALIASES, "thm2", "Generators", "pow3", "", "ideal",
     "adjacent-violation-3-5", "all"])


def _run(argv: list[str], data=None) -> tuple[int, str, str]:
    """main(argv) in process, with `data` as its --file; (rc, out, err)."""
    with tempfile.TemporaryDirectory() as tmp:
        if data is not None:
            path = Path(tmp) / "arrangement.json"
            path.write_text(json.dumps(data), encoding="utf-8")
            argv = [*argv, "--file", str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([*argv, "--no-timestamp"])
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(arrangement, command, st.sampled_from(["json", "csv", "md"]))
def test_exact_commands_exit_cleanly(data, argv, fmt):
    rc, out, err = _run([*argv, "--format", fmt], data)
    assert rc in (0, 1, 2)
    assert "Traceback" not in err
    assert "Warning" not in err
    if rc == 0 and fmt == "json":
        json.loads(out)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(malformed(), st.sampled_from([["lct"], ["sequence", "--m-max", "3"],
                                     ["analyze", "--m", "1"]]))
def test_malformed_files_exit_2(data, argv):
    rc, out, err = _run(argv, data)
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.lists(claim_name, min_size=1, max_size=3),
       st.sampled_from(["json", "csv", "md"]))
def test_verify_paper_claim_filters_exit_cleanly(names, fmt):
    rc, out, err = _run(["verify-paper", "--claims", *names, "--format", fmt])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err and "Warning" not in err
    if out and fmt == "json":
        json.loads(out)


# lines x and x + 3y with weights 1/2 and 99/100: the exponent e = b - m a
# of the second line is -0.99 at m = 1; and lines x, x + 10^300 y
NEAR_MINUS_ONE = {"lines": [[["1", "0"], ["0", "0"]], [["1", "0"], ["3", "0"]]],
                  "coeffs": ["1/2", "99/100"]}
HUGE_COEFFICIENT = {"lines": [[["1", "0"], ["0", "0"]],
                              [["1", "0"], [str(10 ** 300), "0"]]],
                    "coeffs": ["1/2", "3/4"]}
# a valid value of each bergman flag, then per flag the bad or extreme
# values one case may swap in (None drops the flag)
CURVES = ["x=y", "diag", "dir:1,0,1,0", "dir:1,2,-3,0.5"]
FAULTS = {
    "--m": [-1, 0], "--m1": [-1, 0], "--m2": [None, 0],
    "--curve": ["dir:1,0,0,0", "dir:0,0,0,0", "dir:1e300,0,1e300,0",
                "dir:inf,0,1,0", "dir:1,nan,0,1", "dir:1,0", "dir:a,b,c,d",
                "circle"],
    "--tmin": ["0", "-1", "1e-320", "0.5", "inf", "nan"],
    "--tmax": ["1e-4", "1e300", "inf", "nan"],
    "--points": [-1, 0, 1, MAX_INDICES + 1],
    "--rays": [0, MAX_INDICES + 1],
    "--slope-tol": ["-5", "nan", "inf"],
    "--max-degree": [-1, 10 ** 12],
}


@st.composite
def bergman_command(draw):
    """Ray slopes or a curve scan with valid flags, and in half the cases
    one flag swapped for a value from FAULTS."""
    if draw(st.booleans()):
        flags = {"--m1": draw(st.integers(1, 6)),
                 "--m2": draw(st.integers(1, 6)),
                 "--curve": draw(st.sampled_from(CURVES)),
                 "--tmin": draw(st.sampled_from(["1e-3", "1e-2"])),
                 "--tmax": draw(st.sampled_from(["0.1", "2"])),
                 "--points": draw(st.integers(2, 12)),
                 "--slope-tol": draw(st.sampled_from(["0.02", "0", "1e300"]))}
    else:
        flags = {"--m": draw(st.integers(1, 6)),
                 "--rays": draw(st.integers(1, 4))}
    flags["--max-degree"] = draw(st.sampled_from([0, 4, 8, 12]))
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(flags)))
        flags[key] = draw(st.sampled_from(FAULTS[key]))
    argv = ["bergman", *(["--audit-gram"] if draw(st.booleans()) else [])]
    for key, value in flags.items():
        if value is not None:
            argv += [key, str(value)]
    return argv


def _no_constant(name):
    raise ValueError(f"non-finite number {name} in the JSON report")


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.one_of(arrangement, st.sampled_from([NEAR_MINUS_ONE,
                                               HUGE_COEFFICIENT])),
       bergman_command(), st.sampled_from(["json", "csv", "md"]))
def test_bergman_flags_exit_cleanly(data, argv, fmt):
    rc, out, err = _run([*argv, "--format", fmt], data)
    assert rc in (0, 2)
    assert "Traceback" not in err and "Warning" not in err
    if rc == 2:
        assert out == "" and len(err.splitlines()) == 1
        return
    # every number printed with exit 0 is finite
    if fmt == "json":
        json.loads(out, parse_constant=_no_constant)
    else:
        assert not re.search(r"(?i)\b(nan|inf)", out), out
