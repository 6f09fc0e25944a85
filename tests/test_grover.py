"""Tests for the amplitude-rotation loop and its query-weight accounting."""

import math

import numpy as np
import pytest

from vtsearch.grover import (AverageQueryCost, CostProfile, OracleSpec,
                             average_query_cost, closed_form_weights,
                             grover_state, iteration_count, lagrange_cos_sum,
                             query_weights, success_probability)

# frozen independent-oracle value: sin^2(7 * arcsin(1/4))
SUCCESS_16_3 = 0.9613189697265625


def test_initial_state_is_uniform():
    psi = grover_state(OracleSpec(size=8, marked=frozenset({2})), 0)
    assert np.allclose(psi, np.full(8, 1 / math.sqrt(8)), atol=1e-14)


def test_empty_marked_set_is_fixed_point():
    oracle = OracleSpec(size=8, marked=frozenset())
    for t in (1, 3, 7):
        psi = grover_state(oracle, t)
        assert np.allclose(psi, np.full(8, 1 / math.sqrt(8)), atol=1e-12)


@pytest.mark.parametrize("n", [4, 16, 64])
def test_closed_form_state_agreement(n):
    m = 1
    oracle = OracleSpec(size=n, marked=frozenset({m}))
    a = math.asin(1 / math.sqrt(n))
    for t in range(iteration_count(n) + 1):
        psi = grover_state(oracle, t)
        good = math.sin((2 * t + 1) * a)
        bad = math.cos((2 * t + 1) * a) / math.sqrt(n - 1)
        expected = np.full(n, bad)
        expected[m] = good
        assert np.max(np.abs(psi - expected)) < 1e-10


def test_success_probability_examples():
    assert success_probability(4, 1) == pytest.approx(1.0, abs=1e-12)
    assert success_probability(16, 3) == pytest.approx(SUCCESS_16_3, abs=1e-6)
    assert success_probability(16, 0) == pytest.approx(1 / 16, abs=1e-12)
    # agrees with the simulated amplitude
    psi = grover_state(OracleSpec(size=16, marked=frozenset({5})), 3)
    assert abs(psi[5]) ** 2 == pytest.approx(SUCCESS_16_3, abs=1e-10)


def test_reflections_are_involutions():
    oracle = OracleSpec(size=8, marked=frozenset({1, 4}))
    uf = oracle.phase_matrix()
    up = oracle.diffusion_matrix()
    assert np.max(np.abs(uf @ uf - np.eye(8))) < 1e-12
    assert np.max(np.abs(up @ up - np.eye(8))) < 1e-12


@pytest.mark.parametrize("n", [2, 5, 64, 1024])
def test_linear_time_steps_match_dense_matrices(n):
    """Sign flip plus 2 mean(v) - v against diffusion_matrix() @ phase_matrix()."""
    for marked in (frozenset({0}), frozenset({0, n - 1}), frozenset()):
        oracle = OracleSpec(size=n, marked=marked)
        g = oracle.diffusion_matrix() @ oracle.phase_matrix()
        psi = np.full(n, 1 / math.sqrt(n))
        dense = []
        for t in range(iteration_count(n) + 1):
            assert np.max(np.abs(grover_state(oracle, t) - psi)) <= 1e-12
            dense.append(np.abs(psi) ** 2)
            psi = g @ psi
        table = query_weights(oracle)
        assert np.max(np.abs(table.q - np.array(dense[:-1]).T)) <= 1e-12


@pytest.mark.parametrize("n", [4, 16, 64])
def test_query_weight_columns_normalize(n):
    table = query_weights(OracleSpec(size=n, marked=frozenset({0})))
    assert table.column_sum_residual() < 1e-12
    assert np.allclose(table.q_bar, table.q.mean(axis=1), atol=1e-14)


@pytest.mark.parametrize("n", [4, 16, 64])
def test_query_weights_match_closed_forms(n):
    m = n // 2
    table = query_weights(OracleSpec(size=n, marked=frozenset({m})))
    assert table.closed_form_checked
    assert np.max(np.abs(table.q - closed_form_weights(n, m))) < 1e-10


def test_query_weights_empty_marked_uniform():
    table = query_weights(OracleSpec(size=4, marked=frozenset()))
    assert np.allclose(table.q, 0.25, atol=1e-12)


def test_query_weight_spot_values():
    table = query_weights(OracleSpec(size=4, marked=frozenset({2})))
    # before query 1 the state is uniform: all weights 1/4
    assert table.q[2, 0] == pytest.approx(0.25, abs=1e-12)
    assert table.q[0, 0] == pytest.approx(0.25, abs=1e-12)
    # before query 2 all amplitude sits on the marked branch
    assert table.q[2, 1] == pytest.approx(1.0, abs=1e-12)
    assert table.q[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_multi_marked_numeric_only():
    table = query_weights(OracleSpec(size=8, marked=frozenset({0, 3})))
    assert not table.closed_form_checked
    assert table.column_sum_residual() < 1e-12


def test_average_cost_constant_profile_is_exact():
    oracle = OracleSpec(size=16, marked=frozenset({3}))
    costs = CostProfile.deterministic(np.full(16, 5.0))
    acc = average_query_cost(oracle, costs)
    assert acc.numeric == pytest.approx(5.0, abs=1e-12)


def test_average_cost_closed_form_identity():
    rng = np.random.default_rng(0)
    for n in (4, 16, 64):
        for _ in range(5):
            times = rng.uniform(1.0, 20.0, size=n)
            m = int(rng.integers(n))
            acc = average_query_cost(OracleSpec(size=n, marked=frozenset({m})),
                                     CostProfile.deterministic(times))
            assert abs(acc.numeric - acc.closed_form) < 1e-8


@pytest.mark.parametrize("n", [16, 64])
def test_average_cost_ratio_bounds(n):
    """Ratio of L_f to the symmetric reference stays within [1/4, 4]."""
    rng = np.random.default_rng(n)
    for _ in range(100):
        times = rng.uniform(1.0, 50.0, size=n)
        m = int(rng.integers(n))
        acc = average_query_cost(OracleSpec(size=n, marked=frozenset({m})),
                                 CostProfile.deterministic(times))
        others = np.delete(times, m)
        reference = float(others.mean() + times[m])
        assert 0.25 <= acc.numeric / reference <= 4.0


def test_lagrange_sum_small_case_value():
    numeric, _ = lagrange_cos_sum(4)
    assert numeric == pytest.approx(-0.5, abs=1e-12)
    with pytest.raises(ValueError):
        lagrange_cos_sum(2)


@pytest.mark.parametrize("n", [16, 64, 256, 1024])
def test_lagrange_sum_bounded(n):
    numeric, bound = lagrange_cos_sum(n)
    assert abs(numeric) <= bound + 1e-9
    assert abs(numeric) / math.sqrt(n) <= 1.0


def test_cost_profile_validation():
    with pytest.raises(ValueError):
        CostProfile(exp_t=np.array([1.0, 2.0]), exp_t2=np.array([1.0, 3.0]),
                    pi=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        CostProfile.deterministic([0.5, 2.0])
    with pytest.raises(ValueError):
        CostProfile(exp_t=np.ones(2), exp_t2=np.ones(2),
                    pi=np.array([0.7, 0.7]))


def test_oracle_validation():
    with pytest.raises(ValueError):
        OracleSpec(size=1, marked=frozenset())
    with pytest.raises(ValueError):
        OracleSpec(size=4, marked=frozenset({4}))
    with pytest.raises(ValueError):
        grover_state(OracleSpec(size=4, marked=frozenset()), -1)
