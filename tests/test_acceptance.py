"""Acceptance gate: the nine headline checks, one pass/fail line each.

Each test prints `criterion <n> (<label>): PASS` (or FAIL) and asserts the
corresponding property at its stated tolerance.
"""

import math

import numpy as np
import pytest

import vtsearch as vt

from conftest import dense_reflection_factorization_residual

# frozen independent-oracle value: sin^2(7 * arcsin(1/4))
SUCCESS_16_3 = 0.9613189697265625


def _report(num, label, ok):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


# ---------------------------------------------------------------------------
# Shared instance pools (criteria 6 and 7 reuse the same built instances)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def decision_pool():
    """Simple and general instances with their decision constants."""
    pool = []
    for marked in (frozenset({0}), frozenset()):
        oracle = vt.OracleSpec(size=4, marked=marked)
        inst = vt.build_simple_instance(oracle, 4.0)
        pool.append(("simple", bool(marked), inst, 4.0, 13.0))
    marked_spec, empty_spec = vt.subroutine_pair(7, 2, 2, 2)
    for pair in vt.regime_pairs(marked_spec, empty_spec, vt.REGIMES):
        for label, inst in pair.instances().items():
            pool.append((f"general/{pair.regime}", label == "marked", inst,
                         pair.c_plus_decide, pair.c_minus))
    return pool


def test_criterion_1_rotation_closed_form():
    ok = True
    for n in (4, 16, 64):
        oracle = vt.OracleSpec(size=n, marked=frozenset({0}))
        a = math.asin(1.0 / math.sqrt(n))
        for t in range(vt.iteration_count(n) + 1):
            amp = vt.grover_state(oracle, t)[0]
            ok &= abs(abs(amp) ** 2 - math.sin((2 * t + 1) * a) ** 2) <= 1e-10
    ok &= abs(vt.success_probability(16, 3) - SUCCESS_16_3) <= 1e-6
    _report(1, "rotation closed form", ok)


def test_criterion_2_query_weights():
    ok = True
    for n in (4, 16, 64):
        m = n // 2
        table = vt.query_weights(vt.OracleSpec(size=n, marked=frozenset({m})))
        ok &= table.column_sum_residual() <= 1e-12
        ok &= float(np.max(np.abs(table.q - vt.closed_form_weights(n, m)))) <= 1e-10
    _report(2, "query weights", ok)


def test_criterion_3_average_cost_ratio():
    ok = True
    for n in (16, 64):
        rng = np.random.default_rng(n)
        for _ in range(100):
            times = rng.uniform(1.0, 50.0, size=n)
            m = int(rng.integers(n))
            acc = vt.average_query_cost(
                vt.OracleSpec(size=n, marked=frozenset({m})),
                vt.CostProfile.deterministic(times))
            reference = float(np.delete(times, m).mean() + times[m])
            ok &= 0.25 <= acc.numeric / reference <= 4.0
    for n in (16, 64, 256, 1024):
        numeric, cap = vt.lagrange_cos_sum(n)
        ok &= abs(numeric) <= cap + 1e-9
    _report(3, "average query cost ratio", ok)


def test_criterion_4_simple_witnesses():
    ok = True
    for n in (4, 16):
        for marked in (frozenset({0}), frozenset(range(min(4, n)))):
            mu = len(marked)
            omega = n / mu
            oracle = vt.OracleSpec(size=n, marked=marked)
            inst = vt.build_simple_instance(oracle, omega)
            report = vt.verify_witnesses(inst, vt.simple_witnesses(oracle, omega))
            ok &= abs(report.overlap - 1.0) <= 1e-10
            ok &= abs(report.norm_sq_measured
                      - (1.0 + 3.0 * n / (mu * omega))) <= 1e-10
            ok &= max(report.residual_a, report.residual_b) <= 1e-10
            ok &= abs(report.c_plus_effective - 4.0) <= 1e-10
        oracle0 = vt.OracleSpec(size=n, marked=frozenset())
        inst0 = vt.build_simple_instance(oracle0, float(n))
        report0 = vt.verify_witnesses(inst0, vt.simple_witnesses(oracle0, float(n)))
        ok &= report0.decomposition_residual == 0.0
        ok &= abs(report0.norm_sq_measured - (1.0 + 3.0 * n)) <= 1e-10
        ok &= max(report0.residual_a, report0.residual_b) <= 1e-8
    _report(4, "simple-loop witnesses", ok)


def test_criterion_5_general_witness_sizes():
    ok = True
    worst_cap = 0.0
    rng = np.random.default_rng(2024)
    for trial in range(50):
        n = int(rng.integers(2, 5))
        t_max = int(rng.integers(2, 5))
        workspace = int(rng.integers(2, 5))
        marked, empty = vt.subroutine_pair(trial, n, t_max, workspace)
        for pair in vt.regime_pairs(marked, empty, vt.REGIMES):
            # history-state norm identities
            for i in range(n):
                h = vt.history_states(marked, i, pair.weights_pos.alpha)
                ok &= abs(np.linalg.norm(h.w_plus) ** 2
                          - h.norm_plus_closed) <= 1e-8
                ok &= abs(np.linalg.norm(h.w_minus) ** 2
                          - h.norm_minus_closed) <= 1e-8
            ok &= abs(pair.c_plus - pair.positive.closed_norm_sq) <= 1e-8
            ok &= pair.c_plus <= pair.c_plus_cap + 1e-9
            worst_cap = max(worst_cap, pair.c_plus / pair.c_plus_cap)
            neg = pair.negative
            ok &= abs(float(np.linalg.norm(neg.w_a) ** 2)
                      - neg.closed_norm_sq) <= 1e-8
    _report(5, f"general witness sizes (worst c_plus/cap {worst_cap:.3f})", ok)


def test_criterion_6_decision_correctness(decision_pool):
    ok = True
    for label, is_marked, inst, c_plus, c_minus in decision_pool:
        decision = vt.decide(inst, c_minus=c_minus, c_plus=c_plus)
        ok &= decision.verdict == ("positive" if is_marked else "negative")
        bits = vt.register_bits_for(c_minus)
        outcome = vt.qpe_simulate(inst, bits)
        ok &= abs(outcome.p_zero - vt.qpe_zero_prediction(inst, bits)) <= 1e-6
        if is_marked:
            ok &= outcome.p_zero >= decision.threshold
    _report(6, "decision correctness", ok)


def test_criterion_7_reflection_factorization(decision_pool):
    worst = max(vt.verify_reflection_factorization(inst)
                for _, _, inst, _, _ in decision_pool)
    worst_dense = max(dense_reflection_factorization_residual(inst)
                      for _, _, inst, _, _ in decision_pool)
    _report(7, f"reflection factorization (max residual {worst:.2e}, "
               f"dense oracle {worst_dense:.2e})",
            worst <= 1e-8 and worst_dense <= 1e-8)


def test_criterion_8_bound_ordering():
    ok = True
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.choice([4, 8, 64]))
        times = rng.uniform(1.0, 12.0, size=n)
        profile = vt.CostProfile.deterministic(times)
        promise = vt.PromiseDescriptor(unique_marked=True,
                                       t_max=float(times.max()))
        report = vt.compare_table(profile, promise)
        ok &= report.ordering_holds
    spot = vt.CostProfile.deterministic(np.array([1.0, 2.0, 3.0, 4.0]))
    spot_promise = vt.PromiseDescriptor(unique_marked=True, t_max=4.0)
    ok &= abs(vt.bound("l2", spot, spot_promise) - math.sqrt(30)) <= 1e-12
    ok &= abs(vt.bound("l1", spot, spot_promise) - math.sqrt(40)) <= 1e-12
    ok &= abs(vt.bound("l0", spot, spot_promise) - 8.0) <= 1e-12
    _report(8, "bound ordering", ok)


def test_criterion_9_reproducibility(tmp_path):
    blobs = []
    for sub in ("first", "second"):
        cfg = vt.ExperimentConfig(kind="full-suite", n_list=(2, 4),
                                  t_list=(2,), z_list=(2,), num_seeds=3,
                                  output_dir=str(tmp_path / sub))
        vt.run_experiment(cfg)
        blobs.append((tmp_path / sub / "records.jsonl").read_bytes())
    ok = blobs[0] == blobs[1] and len(blobs[0]) > 0
    _report(9, "byte-identical records", ok)
