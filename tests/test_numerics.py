"""The level-set search against plain bisection on random monotone functions.

``bisection`` below is the search's contract spelled out the slow way:
the same eightfold growth, then midpoints until the bracket is within
``X_RTOL`` of its upper end.  Each random function is a sum of terms
that are non-increasing in floating point (no transcendental calls), so
the level-set supremum is well defined, and the scalar and array paths
see bit-identical values.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import solarmkt.markets as markets
from solarmkt import clear_cb, solve_ne
from solarmkt.numerics import (ITP_N0, MAX_GROWTHS, X_RTOL, ConvergenceError,
                               sup_level_set)
from conftest import desk_scenario


def bisection(fn, target, lo, hi):
    """(root, growths, midpoint steps) of the sup of {x >= lo: fn(x) >= target}."""
    growths = 0
    while fn(hi) >= target:
        if growths == MAX_GROWTHS:
            raise ConvergenceError("unbounded")
        lo, hi, growths = hi, 8.0 * hi, growths + 1
    steps = 0
    while True:
        mid = 0.5 * (lo + hi)
        if not (hi - lo > X_RTOL * hi and lo < mid < hi):
            return mid, growths, steps
        if fn(mid) >= target:
            lo = mid
        else:
            hi = mid
        steps += 1


def level_set_top(fn, target, lo, hi):
    """The last float of {x >= lo: fn(x) >= target} and the float after
    it, by bisection until no float lies between the ends."""
    while fn(hi) >= target:
        lo, hi = hi, 8.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo, hi
        if fn(mid) >= target:
            lo = mid
        else:
            hi = mid


def smooth(scale, a, b):
    return lambda x: a / (1.0 + x / scale) - b * (x / scale)


def piecewise_linear(scale, knots, widths, slopes):
    """Flat between the ramps, so a target on a flat top is hit exactly."""
    def fn(x):
        total = 1.0
        for k, w, s in zip(knots, widths, slopes):
            total = total - s * np.minimum(np.maximum(x / scale - k, 0.0), w)
        return total
    return fn


def staircase(scale, knots, drops):
    def fn(x):
        total = 1.0
        for k, d in zip(knots, drops):
            total = total - d * (x >= scale * k)
        return total
    return fn


def exact_crossing(root, slope, target):
    """Linear, equal to the target exactly at a dyadic root."""
    return lambda x: target + slope * (root - x)


positive = st.floats(0.05, 5.0)


@st.composite
def problems(draw):
    """(fn, targets, hi): lo is 0, fn(0) >= every target, roots bounded."""
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    hi = scale * 10.0 ** draw(st.floats(-2.5, 2.5))  # roots above it grow
    kind = draw(st.sampled_from(["smooth", "piecewise", "staircase", "exact"]))
    n = draw(st.integers(1, 4))
    if kind == "smooth":
        fn = smooth(scale, draw(positive), draw(positive))
        points = scale * np.array(draw(st.lists(st.floats(0.01, 20.0),
                                                min_size=n, max_size=n)))
        return fn, [float(fn(x)) for x in points], hi
    if kind == "exact":
        target = draw(st.floats(-5.0, 5.0))
        root = hi * draw(st.integers(1, 1024)) / 64.0
        fn = exact_crossing(root, draw(positive) / scale, target)
        return fn, [target], hi
    m = draw(st.integers(1, 5))
    knots = np.cumsum(draw(st.lists(st.floats(0.01, 3.0), min_size=m, max_size=m)))
    if kind == "piecewise":
        widths = draw(st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m))
        slopes = draw(st.lists(positive, min_size=m, max_size=m))
        fn = piecewise_linear(scale, knots, widths, slopes)
        ends = np.append(knots, knots[-1] + 1.0)
    else:
        fn = staircase(scale, knots, draw(st.lists(positive, min_size=m, max_size=m)))
        ends = knots
    # targets on the flat tops and in between, all above the final value
    tail = float(fn(scale * (ends[-1] + 1.0)))
    flat = [float(fn(scale * x)) for x in np.append(0.0, ends[:-1])]
    mixed = [float(fn(scale * x * draw(st.floats(0.0, 1.0)))) for x in ends]
    targets = [t for t in flat + mixed if t > tail]
    return fn, targets or [1.0], hi


@settings(max_examples=300, deadline=None)
@given(problems())
def test_search_matches_bisection_within_its_count(problem):
    fn, targets, hi = problem
    roots, _, evals, _ = sup_level_set(fn, np.array(targets), 0.0, hi)
    most = 0
    for t, root in zip(targets, roots):
        scalar, (lo, up), n, (g_lo, g_up) = sup_level_set(fn, t, 0.0, hi)
        assert scalar == root  # the two paths take the same steps
        # the final bracket certifies the root: lo is in the level set
        # (or is the start, never evaluated) and up is not
        assert lo < up and (lo == 0.0 or fn(lo) >= t) and fn(up) < t
        # with fn - t there (unknown at the untried start)
        assert g_up == fn(up) - t
        assert g_lo == fn(lo) - t or (lo == 0.0 and np.isnan(g_lo))
        top, after = level_set_top(fn, t, 0.0, hi)
        assert lo <= top and after <= up
        ref, growths, steps = bisection(fn, t, 0.0, hi)
        assert abs(scalar - ref) <= 1.01 * X_RTOL * max(scalar, ref)
        assert n <= growths + 1 + steps + ITP_N0
        most = max(most, n)
    # fn sees every element each step: the array path runs to the slowest
    assert evals >= most


@settings(max_examples=100, deadline=None)
@given(problems())
def test_values_handed_in_replace_evaluations(problem):
    fn, targets, hi = problem
    for t in targets:
        # fn(hi) - t handed in saves exactly its evaluation and moves no
        # step
        root, bracket, n, gaps = sup_level_set(fn, t, 0.0, hi)
        g_hi = float(fn(hi)) - t
        again = sup_level_set(fn, t, 0.0, hi, g_hi=g_hi)
        assert again[:2] == (root, bracket) and again[2] == n - 1
        np.testing.assert_array_equal(again[3], gaps)
        arrays = sup_level_set(fn, np.array([t]), 0.0, hi,
                               g_hi=np.array([g_hi]))
        assert arrays[0][0] == root and arrays[2] == n - 1
        np.testing.assert_array_equal(np.ravel(arrays[3]), gaps)
        # fn(lo) - t handed in starts regula falsi at once, under the same
        # certificate and count bound
        root, (lo, up), n, (g_lo, g_up) = sup_level_set(
            fn, t, 0.0, hi, g_lo=float(fn(0.0)) - t)
        assert lo < up and fn(lo) >= t and fn(up) < t
        assert g_lo == fn(lo) - t and g_up == fn(up) - t
        ref, growths, steps = bisection(fn, t, 0.0, hi)
        assert abs(root - ref) <= 1.01 * X_RTOL * max(root, ref)
        assert n <= growths + 1 + steps + ITP_N0


def test_a_bracket_handed_in_at_tolerance_costs_no_evaluation():
    def fn(x):
        raise AssertionError("no evaluation needed")

    lo, hi = 3.0, 3.0 * (1.0 + 0.5 * X_RTOL)
    assert sup_level_set(fn, 1.0, lo, hi, g_lo=0.0, g_hi=-0.5)[1:] == \
        ((lo, hi), 0, (0.0, -0.5))
    _, (los, his), evals, (g_lo, g_hi) = sup_level_set(
        fn, np.array([1.0, 0.75]), lo, hi, g_lo=np.array([0.0, 1.25]),
        g_hi=np.array([-0.5, -0.75]))
    assert evals == 0 and list(los) == [lo, lo] and list(his) == [hi, hi]
    assert list(g_lo) == [0.0, 1.25] and list(g_hi) == [-0.5, -0.75]


@settings(max_examples=50, deadline=None)
@given(st.floats(-5.0, 5.0), st.floats(1e-6, 1e6))
def test_unbounded_level_set_raises(target, hi):
    fn = lambda x: target + 0.0 * x
    with pytest.raises(ConvergenceError, match="unbounded"):
        sup_level_set(fn, target, 0.0, hi)
    with pytest.raises(ConvergenceError, match="unbounded"):
        sup_level_set(fn, np.array([target + 1.0, target]), 0.0, hi)


def test_a_point_bracket_that_falls_short_is_closed():
    # fn(lo) >= target is the caller's promise; rounding in fn can break
    # it at lo == hi, and the search then returns lo instead of dividing
    # by the bracket's zero width
    fn = lambda x: 2.0 - x
    root, bracket, evals, (g_lo, g_hi) = sup_level_set(fn, 1.5, 1.0, 1.0)
    assert (root, bracket, evals, g_hi) == (1.0, (1.0, 1.0), 1, -0.5)
    assert np.isnan(g_lo)  # lo is the untried start
    root, (lo, hi), _, _ = sup_level_set(fn, np.array([1.5, 0.5]), 1.0, 1.0)
    assert root[0] == lo[0] == hi[0] == 1.0
    assert root[1] == pytest.approx(1.5, rel=X_RTOL)


def test_an_infinite_fall_returns_the_lower_end():
    # a step down to -inf (a unit past its last cut covers nothing) has
    # no crossing to interpolate: the midpoint may lie past the step, the
    # lower end is in the level set
    for step in (0.3, 1.0 / 3.0, 2.0 ** -40):
        fn = lambda x: np.where(x <= step, 1.0, -np.inf)
        root, (lo, hi), _, _ = sup_level_set(lambda x: float(fn(x)), 0.5,
                                             0.0, 1.0)
        assert root == lo <= step < hi
        roots, (los, _), _, _ = sup_level_set(fn, np.array([0.5, 0.75]),
                                              0.0, 1.0)
        np.testing.assert_array_equal(roots, [root, root])
        np.testing.assert_array_equal(los, [lo, lo])


def test_desk_searches_take_a_fraction_of_the_bisection_steps(monkeypatch):
    """Bisection took 48 steps for each of these; a smooth crossing needs far fewer."""
    desk = desk_scenario()
    assert solve_ne(desk, "srt").iterations <= 16
    calls = []
    demand = markets.aggregate_demand_cb
    monkeypatch.setattr(markets, "aggregate_demand_cb",
                        lambda scn, pi: calls.append(pi) or demand(scn, pi))
    clear_cb(desk, solve_ne(desk, "cb").capacity)
    assert len(calls) <= 20
