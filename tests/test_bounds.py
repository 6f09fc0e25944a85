"""Tests for the search cost-bound expressions and comparison tables."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vtsearch.bounds import (BOUND_KINDS, PromiseDescriptor, bound,
                             compare_table, full_report)
from vtsearch.grover import CostProfile
from vtsearch.phase import regime_pairs
from vtsearch.subroutines import stopping_moments, subroutine_pair


def _unique_promise(t_max):
    return PromiseDescriptor(unique_marked=True, t_max=float(t_max))


def test_l2_reduces_to_plain_search():
    profile = CostProfile.deterministic(np.ones(16))
    assert bound("l2", profile, _unique_promise(1)) == pytest.approx(4.0, abs=1e-12)


def test_table_spot_values():
    """N = 4, T_i = i, T_max = 4 (uniform sampling, unique marked)."""
    profile = CostProfile.deterministic(np.array([1.0, 2.0, 3.0, 4.0]))
    promise = _unique_promise(4)
    assert bound("l2", profile, promise) == pytest.approx(math.sqrt(30), abs=1e-12)
    assert bound("l1", profile, promise) == pytest.approx(math.sqrt(40), abs=1e-12)
    assert bound("l0", profile, promise) == pytest.approx(8.0, abs=1e-12)
    assert bound("straight_line", profile, promise) == pytest.approx(13.0, abs=1e-12)
    assert bound("naive", profile, promise) == pytest.approx(8.0, abs=1e-12)


def test_degenerate_equal_times_collapse():
    c = 3.0
    profile = CostProfile.deterministic(np.full(9, c))
    promise = _unique_promise(c)
    vals = [bound(k, profile, promise) for k in ("l2", "l1", "l0")]
    assert np.allclose(vals, 3.0 * c, atol=1e-12)  # sqrt(N) * c


@pytest.mark.parametrize("n", [8, 64])
def test_ordering_sweep(n):
    rng = np.random.default_rng(n)
    for _ in range(100):
        times = rng.uniform(1.0, 12.0, size=n)
        profile = CostProfile.deterministic(times)
        report = compare_table(profile, _unique_promise(float(times.max())))
        assert report.ordering_holds
        assert report.naive + 1e-12 >= report.l2


@given(st.lists(st.floats(1.0, 50.0), min_size=2, max_size=32))
@settings(max_examples=50, deadline=None)
def test_naive_dominates_l2(times):
    profile = CostProfile.deterministic(np.asarray(times))
    promise = _unique_promise(float(max(times)))
    assert bound("naive", profile, promise) + 1e-9 >= bound("l2", profile, promise)


def test_compare_table_reports_a_broken_ordering(l2_above_l1):
    """An l2 above l1 is a report with ordering_holds False, not an exception."""
    profile = CostProfile.deterministic(np.array([1.0, 2.0, 3.0, 4.0]))
    report = compare_table(profile, _unique_promise(4.0))
    assert not report.ordering_holds
    assert (report.l2, report.l1) == (pytest.approx(math.sqrt(40)),
                                      pytest.approx(math.sqrt(30)))


def test_compare_table_rejects_mismatched_promise():
    profile = CostProfile.deterministic(np.array([1.0, 5.0]))
    with pytest.raises(ValueError):
        compare_table(profile, _unique_promise(2.0))  # cap below max E[T]
    with pytest.raises(ValueError):
        compare_table(profile, PromiseDescriptor(
            marked_sets=(frozenset({0}),), t_max=5.0))
    spread = CostProfile(exp_t=np.array([1.0, 4.0]), exp_t2=np.array([1.0, 25.0]),
                         pi=np.full(2, 0.5))
    with pytest.raises(ValueError):
        compare_table(spread, _unique_promise(4.0))  # E[T^2] > t_max E[T]


def test_bound_input_validation():
    profile = CostProfile.deterministic(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        bound("unknown", profile, _unique_promise(2.0))
    with pytest.raises(ValueError):
        bound("regime_i_a", profile, _unique_promise(2.0))  # needs marked sets
    with pytest.raises(ValueError):
        PromiseDescriptor()  # neither promise form
    with pytest.raises(ValueError):
        PromiseDescriptor(marked_sets=(frozenset(),))


def test_full_report_has_every_kind():
    profile = CostProfile.deterministic(np.array([1.0, 2.0, 3.0, 4.0]))
    values = full_report(profile, _unique_promise(4.0))
    assert list(values) == list(BOUND_KINDS)
    # unique-marked promise cannot evaluate the regime radicals
    assert math.isnan(values["regime_i_a"])
    assert values["l2"] == pytest.approx(math.sqrt(30))


def test_explicit_marked_sets_promise():
    profile = CostProfile.deterministic(np.array([1.0, 2.0, 3.0, 4.0]))
    promise = PromiseDescriptor(marked_sets=(frozenset({0}), frozenset({3})))
    # epsilon = worst-case marked mass = 1/4 either way
    assert bound("naive", profile, promise) == pytest.approx(8.0, abs=1e-12)
    # regime radicals become available
    assert bound("regime_i_a", profile, promise) == pytest.approx(
        math.sqrt(30.0), abs=1e-12)


def test_regime_radical_takes_the_least_promise_parameter():
    """k({0}) = 1 and k({1, 2}) = 1/4 + 1/16 = 0.3125 for E[T] = (1, 2, 4)."""
    profile = CostProfile.deterministic(np.array([1.0, 2.0, 4.0]))
    promise = PromiseDescriptor(marked_sets=(frozenset({0}), frozenset({1, 2})))
    assert bound("regime_i_b", profile, promise) == pytest.approx(
        math.sqrt(3 / 0.3125), abs=1e-12)


def test_promise_rejects_marked_sets_with_the_unique_marked_promise():
    """Both forms at once would mix marked-set l1/l0 into the unique-marked table."""
    with pytest.raises(ValueError, match="exclude each other"):
        PromiseDescriptor(marked_sets=(frozenset({0}),), t_max=4.0,
                          unique_marked=True)


@pytest.mark.parametrize("regime,kind", [
    ("i-a", "regime_i_a"), ("i-b", "regime_i_b"), ("ii-a", "regime_ii_a"),
    ("ii-b", "regime_ii_b"), ("ii-c", "regime_ii_c"),
])
def test_regime_bound_consistent_with_instances(regime, kind):
    """sqrt(c_plus * C_minus) from built witnesses tracks the regime radical.

    The analysis drops constants; the tracked factor must stay within 8.
    """
    worst = 0.0
    for seed in (0, 1, 2, 3, 4):
        n, t_max, w = 2, 3, 3
        pair, = regime_pairs(*subroutine_pair(seed, n, t_max, w), [regime])
        c_minus = pair.negative.closed_norm_sq

        exp_t_e, exp_t2_e = stopping_moments(pair.empty)
        profile = CostProfile(exp_t=exp_t_e, exp_t2=exp_t2_e,
                              pi=np.full(n, 1 / n))
        promise = PromiseDescriptor(marked_sets=(frozenset({0}),),
                                    t_max=float(t_max))
        radical = bound(kind, profile, promise)
        ratio = math.sqrt(pair.c_plus * c_minus) / radical
        worst = max(worst, ratio, 1 / ratio)
        assert 1 / 8 <= ratio <= 8.0, (regime, seed, ratio)
    assert worst <= 8.0
