"""Fuzz the exact subcommands of the CLI over small arrangement files."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from pshlab.cli import main

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


@settings(max_examples=60, derandomize=True, deadline=None)
@given(arrangement, command, st.sampled_from(["json", "csv", "md"]))
def test_exact_commands_exit_cleanly(data, argv, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "arrangement.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([*argv, "--file", str(path), "--format", fmt,
                       "--no-timestamp"])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert "Warning" not in err.getvalue()
    if rc == 0 and fmt == "json":
        json.loads(out.getvalue())
