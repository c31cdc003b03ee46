import importlib.util
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from oracle_reference import reference_estimate

from pshlab import integrability
from pshlab.arrangement import new_arrangement, preset
from pshlab.gaussian import GaussianRational
from pshlab.integrability import integrability_estimate
from pshlab.multiplier_ideal import contains, ideal_of
from pshlab.polynomials import BivariatePolynomial as P
from pshlab.polynomials import HomogeneousForm
from pshlab.polynomials import ZeroPolynomialError

THEOREM1 = preset("theorem1")
X, Y = P.x(), P.y()


def test_radial_threshold_of_point_mass():
    # |1|^2 |z|^(-2c) is integrable near 0 in C^2 iff c < 2
    point = preset("point")
    assert integrability_estimate(point, P.one(), Fraction(7, 4)).integrable
    assert not integrability_estimate(point, P.one(), Fraction(9, 4)).integrable
    # boundary c = 2 is log-divergent: the exact radial margin d + 2 - cT is 0
    verdict = integrability_estimate(point, P.one(), 2)
    assert not verdict.integrable
    assert verdict.radial_margin == 0


def test_log_divergence_along_a_line():
    # x^2 y^2 (x+y) vanishes to order 1 < 2 along x+y=0 at c=3: the
    # transverse integral is exactly log-divergent
    f = P({(3, 2): 1, (2, 3): 1})
    verdict = integrability_estimate(THEOREM1, f, 3)
    assert not verdict.integrable
    assert abs(verdict.line_margins[2]) <= verdict.resolution
    # order 2 along x and y: margin 2 - 3 * 2/3 + 1 = 1
    assert verdict.line_margins[:2] == pytest.approx((1.0, 1.0), abs=1e-6)


def test_power_divergence_grows_past_threshold():
    # clearly past the threshold, the margins sit far below 0
    verdict = integrability_estimate(preset("point"), P.one(), 3)
    assert not verdict.integrable
    assert verdict.radial_margin == -1
    verdict = integrability_estimate(THEOREM1, P.one(), 3)
    assert not verdict.integrable
    assert verdict.line_margins == pytest.approx((-1.0,) * 3, abs=1e-6)


def test_matches_membership_on_spot_checks():
    for c in (1, Fraction(3, 2), 2, 3):
        ideal = ideal_of(THEOREM1, c)
        for f in (P.one(), X * Y, (X * Y * (X + Y)) ** 2, P.monomial(4, 1)):
            assert integrability_estimate(THEOREM1, f, c).integrable == \
                contains(THEOREM1, ideal, f)


def test_below_threshold_is_integrable():
    # J(c*phi) trivial at c = 1/2, and the direct integral agrees
    assert integrability_estimate(THEOREM1, P.one(), Fraction(1, 2)).integrable


def test_zero_weight_always_integrable():
    zero = new_arrangement([(1, 0)], [0])
    assert integrability_estimate(zero, P.one(), 5).integrable


def test_input_validation():
    with pytest.raises(ZeroPolynomialError):
        integrability_estimate(THEOREM1, P.zero(), 1)
    with pytest.raises(ValueError):
        integrability_estimate(THEOREM1, P.one(), -1)
    with pytest.raises(ValueError, match="float range"):
        integrability_estimate(THEOREM1, P.one(), Fraction(10 ** 400))


def test_nan_fault_case_is_decided():
    # lines x, x+y, 2x+y of weight 1/2 at f = 1, c = 3/2: c * T = 9/4 >= 2,
    # so divergent; a tube mesh once put nodes on x+y and read NaN as
    # integrable
    arr = new_arrangement([(1, 0), (1, 1), (2, 1)], [Fraction(1, 2)] * 3)
    c = Fraction(3, 2)
    verdict = integrability_estimate(arr, P.one(), c)
    assert not contains(arr, ideal_of(arr, c), P.one())
    assert not verdict.integrable and not verdict.undecided
    assert verdict.radial_margin == Fraction(-1, 4)
    assert verdict.line_margins == pytest.approx((0.25,) * 3, abs=1e-6)
    assert all(math.isfinite(k) for k in verdict.line_margins)


@pytest.mark.parametrize("name, c, integrable", [
    ("smooth", Fraction(15, 16), True), ("smooth", Fraction(31, 32), True),
    ("smooth", Fraction(255, 256), True), ("smooth", Fraction(1), False),
    ("point", Fraction(31, 16), True), ("point", Fraction(2), False),
])
def test_near_threshold_cases(name, c, integrable):
    # margins down to 1/256 are decided; the tail-ratio oracle called the
    # first three smooth cases and point at 31/16 divergent
    arr = preset(name)
    verdict = integrability_estimate(arr, P.one(), c)
    assert verdict.integrable is integrable
    assert verdict.integrable == contains(arr, ideal_of(arr, c), P.one())
    assert not verdict.undecided
    if name == "smooth":
        assert verdict.line_margins[0] == pytest.approx(float(1 - c), abs=1e-9)


def test_zero_of_high_order():
    # x^200 vanishes to order 200 along x = 0: s^100 underflows a double at
    # the sampled scales, yet the margin 200 - c + 1 is measured
    smooth = preset("smooth")
    for c, integrable in ((100, True), (200, True), (201, False)):
        verdict = integrability_estimate(smooth, P.monomial(200, 0), c)
        assert verdict.integrable is integrable and not verdict.undecided
        assert verdict.line_margins[0] == pytest.approx(201 - c, abs=1e-6)


def test_resolution():
    # margins 1e-3 .. 1e-7 on one line are resolved; 1e-9 lies below the
    # resolution 1e-7 and reads as divergent
    smooth = preset("smooth")
    for k in (3, 5, 7):
        c = 1 - Fraction(1, 10 ** k)
        assert integrability_estimate(smooth, P.one(), c).integrable
    verdict = integrability_estimate(smooth, P.one(), 1 - Fraction(1, 10 ** 9))
    assert not verdict.integrable
    assert verdict.resolution == 1e-7


def test_components_are_decided_separately():
    # Parseval: x + y^3 fails along x = 0 at c = 1 through its y^3 part,
    # while x + x*y passes, each as contains says
    smooth = preset("smooth")
    ideal = ideal_of(smooth, 1)
    for f in (X + Y ** 3, X + X * Y, X ** 2 + Y ** 5):
        verdict = integrability_estimate(smooth, f, 1)
        assert verdict.integrable == contains(smooth, ideal, f)
    assert not integrability_estimate(smooth, X + Y ** 3, 1).integrable


def test_zero_near_a_line_point_is_undecided():
    # f vanishes at squared chordal distance 2.7e-5 from the point of
    # x + 3i y, inside the sampled scales, so the slopes have not settled:
    # reported, not guessed
    arr = new_arrangement([(1, GaussianRational(0, -2)),
                           (1, GaussianRational(0, 3))], ["5/4", "7/4"])
    f = P({(3, 0): 1, (1, 2): 7, (0, 3): GaussianRational(0, -5)})
    verdict = integrability_estimate(arr, f, Fraction(11, 3))
    assert verdict.undecided
    assert verdict.resolution > 1e-4


def _oracle_sweep():
    path = Path(__file__).resolve().parents[1] / "tools" / "oracle_sweep.py"
    spec = importlib.util.spec_from_file_location("oracle_sweep", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return sweep


def test_sweep_smoke():
    wrong, _undecided = _oracle_sweep().sweep(100, seed=1)
    assert wrong == []


def _close_lines(e: int):
    """Lines x, x + 2^-e y and y of weight 1/2."""
    return new_arrangement([(1, 0), (1, Fraction(1, 2 ** e)), (0, 1)],
                           [Fraction(1, 2)] * 3)


@pytest.mark.parametrize("e", [540, 1000])
def test_close_line_points_are_decided(e):
    # s = spacing 2^-k underflows to 0 for lines closer than about
    # 2^-528, so beta is taken from log s; beta turns subnormal near 2^-1013
    close = _close_lines(e)
    for f in (P.one(), X * Y + Y ** 3, P.one() + X):
        for c in (1, Fraction(3, 2)):
            verdict = integrability_estimate(close, f, c)
            assert all(math.isfinite(k) for k in verdict.line_margins)
            assert not verdict.undecided
            assert verdict.integrable == contains(close, ideal_of(close, c), f)
            assert repr(verdict) == repr(reference_estimate(close, f, c))
    margins = integrability_estimate(close, P.one(), 1).line_margins
    assert margins == pytest.approx((0.5,) * 3, abs=1e-6)


def test_c_scan_substitutes_each_component_once(monkeypatch):
    # only c * log_weight depends on c: a scan over c substitutes each
    # (component, chart) pair once, and every verdict stays bit-identical
    # to the per-pair reference, from a cold cache, a warm one, and after
    # more components than the cache holds have evicted it
    f, scan = X * Y * (X + Y) + X ** 4 + Y ** 5, (1, Fraction(3, 2), 2, 3, 4)
    calls = []
    substitute = HomogeneousForm.substitute
    monkeypatch.setattr(HomogeneousForm, "substitute", lambda form, *xy: (
        calls.append(form) or substitute(form, *xy)))
    want = [repr(reference_estimate(THEOREM1, f, c)) for c in scan]
    for _ in range(2):
        integrability._log_form.cache_clear()
        calls.clear()
        assert [repr(integrability_estimate(THEOREM1, f, c))
                for c in scan] == want
        assert len(calls) == 3 * len(THEOREM1.lines)
    size = integrability._log_form.cache_info().maxsize
    evict = [X ** k for k in range(size + 1)]
    first = [repr(integrability_estimate(THEOREM1, g, 1)) for g in evict]
    assert [repr(integrability_estimate(THEOREM1, g, 1)) for g in evict] == \
        first == [repr(reference_estimate(THEOREM1, g, 1)) for g in evict]
    assert [repr(integrability_estimate(THEOREM1, f, c)) for c in scan] == want


def test_batched_margins_match_per_chart_reference():
    # the one broadcast pass performs the per-(component, chart) loop's
    # arithmetic in the same order, so every verdict is equal bit for bit;
    # float reprs round-trip, so equal reprs mean equal bits, NaN included
    cases = [(THEOREM1, X * Y * (X + Y) + X ** 4 + Y ** 5, c)
             for c in (1, Fraction(3, 2), 2, 3)]
    cases += [(preset("point"), f, c) for f in (P.one(), X + Y ** 2)
              for c in (1, 2)]
    # every weight 0: the weight's log is the scalar -0.0, not a grid
    weightless = new_arrangement([(1, 0), (0, 1), (1, 1)], [0, 0, 0])
    cases += [(weightless, X * Y + Y ** 3, c) for c in (0, 1)]
    draw, sweep = random.Random("oracle-sweep:0"), _oracle_sweep()
    cases += [sweep.draw_case(draw) for _ in range(200)]
    # 10^300 underflows some scaled chart coefficients to 0.0, so the
    # float order of vanishing exceeds the exact one; its line points lie
    # about 2^-997 apart, so s underflows there and beta comes from log s
    big = new_arrangement([(1, 0), (1, 10 ** 300), (0, 1)],
                          [Fraction(2, 3)] * 3)
    f = (X + 10 ** 300 * Y) ** 2 * (X + Y) + X ** 4
    assert integrability_estimate(big, f, 1).integrable
    assert contains(big, ideal_of(big, 1), f)
    cases.append((big, f, 1))
    # non-finite margins: lines 2^-1100 apart make z underflow to 0 on
    # their charts
    close = _close_lines(1100)
    odd = [(close, P.one(), 1), (close, X * Y + Y ** 3, 1)]
    for arr, f, c in odd:
        margins = integrability_estimate(arr, f, c).line_margins
        assert not all(math.isfinite(k) for k in margins)
    for arr, f, c in cases + odd:
        assert repr(integrability_estimate(arr, f, c)) == \
            repr(reference_estimate(arr, f, c)), (arr.describe(), str(f), c)


def test_nan_margins_reach_the_verdict(monkeypatch):
    # lines 2^-1100 apart: z underflows to 0 on their two charts, whose
    # margins are NaN; the resolution and each such line margin must say
    # so (Python's max and min skipped a NaN that did not come first)
    close = _close_lines(1100)
    for f in (P.one(), P.one() + X):  # one and two components
        verdict = integrability_estimate(close, f, 1)
        assert math.isnan(verdict.resolution)
        assert [math.isnan(k) for k in verdict.line_margins] == \
            [True, True, False]
        assert verdict.line_margins[2] == pytest.approx(0.5, abs=1e-6)
        assert verdict.undecided and not verdict.integrable
    # a NaN margin of the second component at one line point, the first
    # one finite there
    nan = math.nan
    monkeypatch.setattr(integrability, "_margins", lambda *args: (
        np.array([[0.5, 0.5, 0.5], [nan, 0.25, 1.5]]),
        np.array([[0.0, 0.0, 0.0], [nan, 0.0, 0.0]])))
    verdict = integrability_estimate(THEOREM1, P.one() + X, 1)
    assert math.isnan(verdict.line_margins[0])
    assert verdict.line_margins[1:] == (0.25, 0.5)
    assert math.isnan(verdict.resolution)
