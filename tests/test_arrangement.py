import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pshlab import integrability
from pshlab.arrangement import (
    ArrangementError,
    DuplicateLineError,
    Line,
    NegativeCoefficientError,
    ZeroFormError,
    ZeroWeightError,
    arrangement_from_dict,
    hopf_charts,
    lct,
    load_arrangement,
    new_arrangement,
    phi_value,
    preset,
    save_arrangement,
)
from pshlab.gaussian import GaussianRational
from pshlab.multiplier_ideal import ideal_of, is_trivial
from pshlab.polynomials import BivariatePolynomial

THEOREM1 = preset("theorem1")


def test_theorem1_preset():
    assert THEOREM1.total_mass == 2
    assert all(a == Fraction(2, 3) for a in THEOREM1.coeffs)
    assert [line.label() for line in THEOREM1.lines] == ["x", "y", "x+y"]


def test_duplicate_lines_rejected():
    with pytest.raises(DuplicateLineError):
        new_arrangement([(1, 0), (1, 0)], [1, 1])
    # 2x normalizes to x
    with pytest.raises(DuplicateLineError):
        new_arrangement([(1, 0), (2, 0)], [1, 1])


def test_zero_form_and_negative_weight():
    with pytest.raises(ZeroFormError):
        new_arrangement([(0, 0)], [1])
    with pytest.raises(NegativeCoefficientError):
        new_arrangement([(1, 0)], ["-1/2"])
    with pytest.raises(NegativeCoefficientError):
        new_arrangement([], [], "-1")
    with pytest.raises(ArrangementError):
        new_arrangement([(1, 0)], [1, 2])


def test_phi_value_examples():
    # direct evaluation of the defining formula at (1, 1)
    assert phi_value(THEOREM1, (1, 1)) == pytest.approx(2 / 3 * math.log(2), abs=1e-12)
    assert phi_value(THEOREM1, (0, 1)) == float("-inf")
    assert phi_value(THEOREM1, (0, 0)) == float("-inf")
    zero = new_arrangement([(1, 0)], [0])
    assert phi_value(zero, (0.3, -0.2)) == 0.0


@settings(max_examples=100, derandomize=True)
@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=8),
    st.fractions(min_value=-3, max_value=3, max_denominator=8),
    st.fractions(min_value=-3, max_value=3, max_denominator=8),
    st.fractions(min_value=-3, max_value=3, max_denominator=8),
)
def test_normalization_idempotent(a, b, c, d):
    cx = GaussianRational(a, b)
    cy = GaussianRational(c, d)
    if cx.is_zero and cy.is_zero:
        return
    once = Line.normalized(cx, cy)
    twice = Line.normalized(once.cx, once.cy)
    assert once == twice


def test_phi_logarithmic_homogeneity():
    rng = random.Random(5)
    for _ in range(25):
        z = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
             complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(lam) < 1e-3 or phi_value(THEOREM1, z) == float("-inf"):
            continue
        scaled = phi_value(THEOREM1, (lam * z[0], lam * z[1]))
        expected = phi_value(THEOREM1, z) + float(THEOREM1.total_mass) * math.log(abs(lam))
        assert scaled == pytest.approx(expected, abs=1e-10)


def test_lct_examples():
    assert lct(THEOREM1) == 1
    assert lct(preset("smooth")) == 1
    assert lct(preset("point")) == 2
    with pytest.raises(ZeroWeightError):
        lct(new_arrangement([(1, 0)], [0]))


def _random_arrangement(rng: random.Random):
    k = rng.randint(1, 5)
    lines = []
    seen = set()
    while len(lines) < k:
        coeffs = [rng.randint(-2, 2) for _ in range(4)]
        if coeffs[:2] == [0, 0] and coeffs[2:] == [0, 0]:
            continue
        cx = GaussianRational(Fraction(coeffs[0]), Fraction(coeffs[1]))
        cy = GaussianRational(Fraction(coeffs[2]), Fraction(coeffs[3]))
        if cx.is_zero and cy.is_zero:
            continue
        line = Line.normalized(cx, cy)
        if line in seen:
            continue
        seen.add(line)
        lines.append(line)
    weights = [Fraction(rng.randint(1, 36), 12) for _ in lines]
    return new_arrangement(lines, weights, 0)


def first_nontrivial_parameter(arr, step: Fraction, c_max: Fraction):
    """Sweep c over multiples of `step` up to c_max and return the first
    at which J(c*phi) is nontrivial, or None."""
    c = step
    while c <= c_max:
        if not is_trivial(ideal_of(arr, c)):
            return c
        c += step
    return None


def test_lct_matches_ideal_sweep():
    # first nontrivial c on the 1/60 grid brackets the exact threshold
    rng = random.Random(60)
    step = Fraction(1, 60)
    for _ in range(50):
        arr = _random_arrangement(rng)
        threshold = lct(arr)
        first = first_nontrivial_parameter(arr, step, Fraction(25))
        assert first is not None
        assert first - step < threshold <= first
        assert not is_trivial(ideal_of(arr, first))
        if first > step:
            assert is_trivial(ideal_of(arr, first - step))


def test_hash_is_computed_once_and_keys_equal_arrangements(monkeypatch):
    lines = [(1, 0), (0, 1), (1, GaussianRational(Fraction(5, 17), Fraction(-3, 19)))]
    first = new_arrangement(lines, ["3/7", "5/7", "2/7"])
    second = new_arrangement(lines, ["3/7", "5/7", "2/7"])
    assert first == second and first is not second
    assert hash(first) == hash(
        (first.lines, first.coeffs, first.point_mass, first.total_mass))
    calls = []
    line_hash = Line.__hash__
    monkeypatch.setattr(Line, "__hash__",
                        lambda line: calls.append(line) or line_hash(line))
    hash(first)
    assert calls == []
    hash(second)  # its first hash reads every line
    assert len(calls) == 3
    # equal arrangements built apart, and an equal component reached from
    # two different f, share one cache entry; hopf_charts first, since
    # integrability._charts reads it, and _charts before _log_form
    x, y = BivariatePolynomial.x(), BivariatePolynomial.y()
    form, same = ((x * y + f).homogeneous_components()[0]
                  for f in (x ** 3, y ** 5))
    assert form == same and form is not same
    for cache, key, equal_key in (
            (hopf_charts, (first,), (second,)),
            (integrability._charts, (first,), (second,)),
            (integrability._log_form, (first, form), (second, same))):
        before = cache.cache_info()
        assert cache(*key) is cache(*equal_key)
        after = cache.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses + 1)
    with pytest.raises(ValueError):  # the cached grid is read-only
        integrability._log_form(first, form)[0, 0, 0] = 0.0


def test_json_round_trip(tmp_path):
    path = tmp_path / "arr.json"
    save_arrangement(THEOREM1, path)
    loaded = load_arrangement(path)
    assert loaded == THEOREM1


def test_file_schema():
    data = {
        "lines": [[["1", "0"], ["0", "0"]], [["0", "0"], ["1", "0"]]],
        "coeffs": ["2/3", "1/3"],
        "point_mass": "1/2",
    }
    arr = arrangement_from_dict(data)
    assert arr.total_mass == Fraction(3, 2)


def test_parse_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ArrangementError, match="line 1"):
        load_arrangement(bad)
    with pytest.raises(ArrangementError):
        arrangement_from_dict({"lines": "nope", "coeffs": []})


X_LINE = [["1", "0"], ["0", "0"]]


# Each record loaded before the file reader required JSON arrays and
# refused booleans: strings and objects iterated as lists, a third entry
# of a line was dropped, and a boolean read as 0 or 1.
@pytest.mark.parametrize("data", [
    {"lines": ["10", "01"], "coeffs": "12"},
    {"lines": [X_LINE], "coeffs": "1"},
    {"lines": {"10": 1}, "coeffs": ["1"]},
    {"lines": ["10"], "coeffs": ["1"]},
    {"lines": [["1", "0", "5"]], "coeffs": ["1"]},
    {"lines": [X_LINE], "coeffs": ["1"], "point_mass": False},
    {"lines": [X_LINE], "coeffs": [True]},
    {"lines": [[True, "0"]], "coeffs": ["1"]},
    {"lines": [[["1", False], "0"]], "coeffs": ["1"]},
])
def test_file_reader_requires_arrays_and_refuses_booleans(data):
    with pytest.raises(ArrangementError):
        arrangement_from_dict(data)


def test_unknown_preset():
    with pytest.raises(ArrangementError):
        preset("missing")


# x + 2^1998 y: each coefficient fits a file, the normalized form does not
# fit a float
HUGE_NORM_LINE = (Fraction(1, 2 ** 999), 2 ** 999)


@pytest.mark.parametrize("spec, norm2", [
    ((1, 1), Fraction(2)),
    ((1, ("1/3", "-2/7")), 1 + Fraction(1, 9) + Fraction(4, 49)),
    (HUGE_NORM_LINE, 1 + 2 ** 3996),
], ids=["x+y", "gaussian-rational", "huge-norm"])
def test_line_unit_form(spec, norm2):
    # log_norm restores the normalization the unit form leaves out; the
    # modulus is the unit form's, against exact |ell(z)|^2 / |ell|^2
    line = Line.normalized(*spec)
    assert line.log_norm == pytest.approx(0.5 * math.log(norm2), rel=1e-15)
    if norm2 > 10 ** 6:
        return
    for x, y in [(Fraction(3, 7), (Fraction(-1, 5), Fraction(2, 3))),
                 ((Fraction(5, 4), Fraction(1, 9)), Fraction(-7, 3))]:
        x, y = GaussianRational.of(x), GaussianRational.of(y)
        want = math.sqrt((line.cx * x + line.cy * y).abs2() / norm2)
        got = line.modulus(complex(x), complex(y))
        assert got == pytest.approx(want, rel=1e-15)


def test_phi_value_huge_line_norm():
    # once an OverflowError: the raw coefficient 2^1998 became a float
    arr = new_arrangement([(1, 0), HUGE_NORM_LINE], ["1/2", "3/4"])
    x, y = 0.3 + 0.1j, -0.2 + 0.5j
    got = phi_value(arr, (x, y))
    want = 0.5 * math.log(abs(x)) + 0.75 * (
        1998 * math.log(2) + math.log(abs(2.0 ** -1998 * x + y)))
    assert math.isfinite(got)
    assert got == pytest.approx(want, rel=1e-12)


def _chordal2(a: Line, b: Line) -> Fraction:
    """|a_x b_y - a_y b_x|^2 / (|a|^2 |b|^2) on the exact coefficients."""
    cross = a.cx * b.cy - a.cy * b.cx
    return cross.abs2() / ((a.cx.abs2() + a.cy.abs2())
                           * (b.cx.abs2() + b.cy.abs2()))


@pytest.mark.parametrize("lines", [
    [(1, 1), (1, 1 + Fraction(1, 2 ** 40))],
    [(1, ("1/3", "-2/7")), (("5/2", "1/9"), ("-3/4", "2/5")), (0, 1)],
    [(1, 0), (1, 10 ** 300)],
], ids=["close", "gaussian-rational", "huge"])
def test_hopf_chart_pairs(lines):
    # the chart pairs are exact before they are rounded: 0 on the chart's
    # own line, the chordal distance elsewhere (close lines in float
    # coordinates cancel to about 1e-4 relative), unit norm, no overflow
    arr = new_arrangement(lines, [1] * len(lines))
    charts = hopf_charts(arr)
    assert hopf_charts(arr) is charts  # built once per arrangement
    for j, chart in enumerate(charts):
        for i, (a, b) in enumerate(chart.pairs):
            assert abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) <= 1e-15
            if i == j:
                assert a == 0.0
            else:
                want = float(_chordal2(arr.lines[i], arr.lines[j]))
                assert abs(a) ** 2 == pytest.approx(want, rel=1e-12)
        assert chart.spacing == min(_chordal2(arr.lines[j], other)
                                    for other in arr.lines
                                    if other != arr.lines[j])
