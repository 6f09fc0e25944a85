"""Tests for two-reflection instances, history states, and witnesses."""

import math

import numpy as np
import pytest

from vtsearch.grover import OracleSpec
from vtsearch.instances import (GeneralBasis, NegativeWitness, PEInstance,
                                PositiveWitness, REGIMES, SimpleBasis, Weights,
                                build_general_instance, build_simple_instance,
                                general_negative_witness,
                                general_positive_witness, history_states,
                                promise_parameter, regime_parameters,
                                simple_witnesses, verify_witnesses)
from vtsearch.linalg import DEFAULT_TOL
from vtsearch.phase import regime_pairs
from vtsearch.subroutines import (random_subroutine, stopping_moments,
                                  stopping_profile, subroutine_pair)

from conftest import (dense_general_sets, dense_general_witnesses,
                      dense_simple_sets, dense_simple_witnesses, span_residual)

SPARSE_TOL = 1e-14

# ---------------------------------------------------------------------------
# Simple variant
# ---------------------------------------------------------------------------

def test_simple_basis_dimensions():
    assert SimpleBasis(4).dim == 40
    idx = {SimpleBasis(4).index(tag, i, b)
           for tag in ("src", "qry", "ret", "chk")
           for i in range(5) for b in (0, 1)}
    assert idx == set(range(40))


def test_simple_instance_structure():
    inst = build_simple_instance(OracleSpec(size=2, marked=frozenset()), 2.0)
    assert inst.b_sets["absorb"].shape[1] == 2  # both inputs unmarked
    inst4 = build_simple_instance(OracleSpec(size=4, marked=frozenset({1})), 4.0)
    launch = inst4.set_vectors("A", "launch")[0]
    assert np.linalg.norm(launch) ** 2 == pytest.approx(5.0, abs=1e-12)  # 1 + omega
    wf = inst4.well_formedness_report()
    assert wf["passed"] and wf["psi0_overlap_B"] < 1e-12


@pytest.mark.parametrize("n,marked,omega,expected", [
    (4, {0}, 4.0, 4.0),            # 1 + 3*4/(1*4)
    (16, {0}, 16.0, 4.0),
    (16, {0, 3, 7, 11}, 4.0, 4.0),  # 1 + 3*16/(4*4)
    (4, {0, 1}, 2.0, 4.0),
])
def test_simple_positive_witness_closed_norm(n, marked, omega, expected):
    oracle = OracleSpec(size=n, marked=frozenset(marked))
    inst = build_simple_instance(oracle, omega)
    witness = simple_witnesses(oracle, omega)
    assert isinstance(witness, PositiveWitness)
    report = verify_witnesses(inst, witness)
    assert report.passed()
    assert report.norm_sq_measured == pytest.approx(expected, abs=1e-10)
    assert report.overlap == pytest.approx(1.0, abs=1e-12)
    assert report.residual_a < 1e-10 and report.residual_b < 1e-10
    assert report.c_plus_effective == pytest.approx(4.0, abs=1e-10)


@pytest.mark.parametrize("n,omega", [(4, 4.0), (16, 16.0), (4, 1.5)])
def test_simple_negative_witness(n, omega):
    oracle = OracleSpec(size=n, marked=frozenset())
    inst = build_simple_instance(oracle, omega)
    witness = simple_witnesses(oracle, omega)
    assert isinstance(witness, NegativeWitness)
    report = verify_witnesses(inst, witness)
    assert report.passed()
    assert report.decomposition_residual == 0.0  # exact by construction
    assert report.norm_sq_measured == pytest.approx(1.0 + 3.0 * omega, abs=1e-10)


def test_mismatched_witness_fails():
    oracle = OracleSpec(size=4, marked=frozenset({0}))
    inst = build_simple_instance(oracle, 4.0)
    wrong = simple_witnesses(OracleSpec(size=4, marked=frozenset({2})), 4.0)
    report = verify_witnesses(inst, wrong)
    assert not report.passed()
    assert max(report.residual_a, report.residual_b) > 0.1


def test_checks_reject_vanishing_generators():
    """A vanishing generator raises, naming its side, instead of giving NaN."""
    dim = 3
    psi0, a, b = np.eye(dim, dtype=complex)
    for tiny in (1e-11 * psi0, np.zeros(dim)):
        inst = PEInstance(dim=dim, psi0=psi0,
                          a_sets={"a": [a]}, b_sets={"b": [b, tiny]})
        assert inst.gram_offdiagonal_residual("A") == 0.0
        with pytest.raises(ValueError, match="side B: generator norm"):
            inst.well_formedness_report()
        with pytest.raises(ValueError, match="side B: generator norm"):
            verify_witnesses(inst, PositiveWitness(vector=psi0, closed_norm_sq=1.0))
        with pytest.raises(ValueError, match="side B: generator norm"):
            verify_witnesses(inst, NegativeWitness(w_a=a, w_b=psi0 - a,
                                                   closed_norm_sq=1.0))


# ---------------------------------------------------------------------------
# Sparse generator sets against the dense oracle
# ---------------------------------------------------------------------------

def _assert_sets_match(inst, dense_sets):
    for side, sets, dense in (("A", inst.a_sets, dense_sets[0]),
                              ("B", inst.b_sets, dense_sets[1])):
        assert list(sets) == list(dense)
        for name, vectors in dense.items():
            want = (np.stack(vectors, axis=1) if vectors
                    else np.zeros((inst.dim, 0), dtype=complex))
            assert sets[name].shape == want.shape, (side, name)
            assert np.max(np.abs(sets[name].toarray() - want), initial=0.0) == 0.0


def _assert_checks_match_dense(inst, probes):
    """Sparse Gram, projection and membership against dense recomputations."""
    for side in ("A", "B"):
        m = np.stack(inst.generators(side), axis=1)
        norms = np.linalg.norm(m, axis=0)
        gram = m.conj().T @ m
        sparse_m, sparse_norms = inst._gen_matrix(side)
        assert np.max(np.abs(sparse_norms - norms)) <= SPARSE_TOL
        assert np.max(np.abs((sparse_m.conj().T @ sparse_m).toarray()
                             - gram)) <= SPARSE_TOL
        np.fill_diagonal(gram, 0.0)
        assert abs(inst.gram_offdiagonal_residual(side)
                   - np.max(np.abs(gram))) <= SPARSE_TOL
        for vec in probes:
            overlaps = m.conj().T @ vec
            proj = float(np.sum(np.abs(overlaps) ** 2 / norms ** 2))
            resid = float(np.linalg.norm(vec - m @ (overlaps / norms ** 2)))
            assert abs(inst.projection_norm_sq(side, vec) - proj) <= SPARSE_TOL
            assert abs(inst.membership_residual(side, vec) - resid) <= SPARSE_TOL


def _probes(inst, seed, witness_vectors):
    """psi0, a random vector and the witness parts, all scaled to unit norm."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=inst.dim) + 1j * rng.normal(size=inst.dim)
    return [u / np.linalg.norm(u) for u in (inst.psi0, v, *witness_vectors)]


@pytest.mark.parametrize("n", [2, 5, 16])
@pytest.mark.parametrize("marked", [frozenset(), frozenset({1})])
def test_simple_sets_match_dense_oracle(n, marked):
    oracle = OracleSpec(size=n, marked=marked)
    omega = 1.7 * n
    inst = build_simple_instance(oracle, omega)
    _assert_sets_match(inst, dense_simple_sets(oracle, omega))
    witness = simple_witnesses(oracle, omega)
    vectors = ([witness.vector] if isinstance(witness, PositiveWitness)
               else [witness.w_a, witness.w_b])
    _assert_checks_match_dense(inst, _probes(inst, n, vectors))


@pytest.mark.parametrize("shape", [(1, 2, 2), (2, 2, 2), (2, 3, 2), (1, 3, 3)])
def test_general_sets_match_dense_oracle(shape):
    n = shape[0]
    for pair in regime_pairs(*subroutine_pair(11, *shape), REGIMES):
        built = pair.instances()
        for inst, spec, weights, vectors in (
                (built["marked"], pair.marked, pair.weights_pos,
                 [pair.positive.vector]),
                (built["empty"], pair.empty, pair.weights_neg,
                 [pair.negative.w_a, pair.negative.w_b])):
            _assert_sets_match(inst, dense_general_sets(spec, weights))
            _assert_checks_match_dense(inst, _probes(inst, n, vectors))


# ---------------------------------------------------------------------------
# Weights and regimes
# ---------------------------------------------------------------------------

def test_weights_validation():
    with pytest.raises(ValueError):
        Weights(omega=np.array([1.0, -1.0]), alpha=np.ones(2), beta={})
    with pytest.raises(ValueError):
        Weights(omega=np.ones(2), alpha=np.array([2.0, 1.0]), beta={})
    with pytest.raises(ValueError):
        Weights(omega=np.ones(2), alpha=np.ones(2), beta={0: 0.5, 1: 0.5})


def test_regime_substitution_examples():
    exp_t = np.ones(8)
    w = regime_parameters("i-a", exp_t, exp_t, 4, marked=(0,))
    assert np.allclose(w.omega, 8.0)
    w = regime_parameters("ii-a", np.ones(8), np.ones(8), 16, marked=(0, 1))
    assert np.allclose(w.omega, 8 * math.log2(16) / 2)
    assert np.allclose(w.alpha[1:], np.arange(2, 18))


def test_regime_ii_b_beta_arithmetic():
    exp_t = np.array([1.0, 1.0, 3.0])
    w = regime_parameters("ii-b", exp_t, exp_t ** 2, 4, marked=(1, 2))
    assert w.beta[1] == pytest.approx((3 / 4) ** 2, abs=1e-12)
    assert w.beta[2] == pytest.approx((1 / 4) ** 2, abs=1e-12)


@pytest.mark.parametrize("regime", REGIMES)
def test_beta_normalization(regime):
    rng = np.random.default_rng(3)
    exp_t = rng.uniform(1.0, 6.0, size=6)
    exp_t2 = exp_t ** 2 + rng.uniform(0.0, 2.0, size=6)
    w = regime_parameters(regime, exp_t, exp_t2, 5, marked=(0, 2, 4))
    assert abs(sum(math.sqrt(b) for b in w.beta.values()) - 1.0) < 1e-12
    assert np.all(w.omega > 0) and w.alpha[0] == 1.0


def test_regime_requires_promise_inputs():
    with pytest.raises(ValueError):
        regime_parameters("i-a", np.ones(4), np.ones(4), 2)
    with pytest.raises(ValueError):
        regime_parameters("nope", np.ones(4), np.ones(4), 2, marked=(0,))


@pytest.mark.parametrize("regime,expected", [
    ("i-a", 2.0), ("ii-a", 2.0), ("i-b", 1.0 + 1 / 16), ("ii-b", 1.0 + 1 / 4),
    ("ii-c", 1 / 2 + 1 / 20),
])
def test_promise_parameter_hand_values(regime, expected):
    exp_t, exp_t2 = np.array([1.0, 2.0, 4.0]), np.array([2.0, 5.0, 20.0])
    assert promise_parameter(regime, exp_t, exp_t2, (0, 2)) == pytest.approx(
        expected, abs=1e-15)
    with pytest.raises(ValueError, match="nonempty marked set"):
        promise_parameter(regime, exp_t, exp_t2, ())


def test_unknown_regime_raises_even_with_a_given_parameter():
    ones = np.ones(4)
    with pytest.raises(ValueError, match="unknown regime"):
        promise_parameter("nope", ones, ones, (0,))
    for given in ({"mu": 1.0}, {"k": 1.0}, {"mu": 1.0, "k": 1.0}):
        with pytest.raises(ValueError, match="unknown regime"):
            regime_parameters("nope", ones, ones, 2, **given)


@pytest.mark.parametrize("regime", REGIMES)
def test_regime_parameters_take_mu_and_k_from_promise_parameter(regime):
    rng = np.random.default_rng(5)
    exp_t = rng.uniform(1.0, 6.0, size=6)
    exp_t2 = exp_t ** 2 + rng.uniform(0.0, 2.0, size=6)
    w = regime_parameters(regime, exp_t, exp_t2, 5, marked=(4, 0, 2))
    p = promise_parameter(regime, exp_t, exp_t2, [0, 2, 4])
    assert (w.mu, w.k) == ((p, None) if regime in ("i-a", "ii-a") else (None, p))


# ---------------------------------------------------------------------------
# History states
# ---------------------------------------------------------------------------

def _deterministic_t2_spec():
    """One input, T = 2 deterministic (halts only at the final step)."""
    return random_subroutine(0, 1, 2, 2, halting_fractions=[0.0, 1.0])


def _dense_history(spec, i, alpha):
    """history_states of input i as dense (w_plus, w_minus) and its closed norms."""
    rows, plus, minus, norm_plus, norm_minus = history_states(spec, [i], alpha)
    dim = GeneralBasis.for_spec(spec).dim
    w_plus = np.zeros(dim, dtype=complex)
    w_minus = np.zeros(dim, dtype=complex)
    w_plus[rows[0]] = plus[0]
    w_minus[rows[0]] = minus[0]
    return w_plus, w_minus, norm_plus[0], norm_minus[0]


def test_history_norm_examples():
    spec = _deterministic_t2_spec()
    flat_plus, flat_minus, _, _ = _dense_history(spec, 0, np.ones(3))
    assert np.linalg.norm(flat_plus) ** 2 == pytest.approx(6.0, abs=1e-10)
    assert np.linalg.norm(flat_minus) ** 2 == pytest.approx(6.0, abs=1e-10)
    growing_plus, growing_minus, _, _ = _dense_history(spec, 0,
                                                       np.array([1.0, 2.0, 3.0]))
    assert np.linalg.norm(growing_minus) ** 2 == pytest.approx(12.0, abs=1e-10)
    assert np.linalg.norm(growing_plus) ** 2 == pytest.approx(11 / 3, abs=1e-10)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_history_lemma_items(seed):
    """Norm identities, inner-set orthogonality, and span memberships."""
    rng = np.random.default_rng(seed)
    n, t_max, w = 2, int(rng.integers(2, 4)), int(rng.integers(2, 5))
    spec = random_subroutine(seed, n, t_max, w, marked=(0,))
    exp_t, exp_t2 = stopping_moments(spec)
    weights = regime_parameters("ii-a", exp_t, exp_t2, t_max, marked=(0,))
    inst = build_general_instance(spec, weights)
    basis = GeneralBasis.for_spec(spec)
    even, odd = inst.set_vectors("A", "even"), inst.set_vectors("B", "odd")
    for i in range(n):
        w_plus, w_minus, _, _ = _dense_history(spec, i, weights.alpha)
        # the primed rewind state drops the two t = 0 entries of w_minus
        w_minus_prime = w_minus.copy()
        w_minus_prime[basis.index("fwd", i + 1, 0, 0, 0, 0)] -= 1.0
        w_minus_prime[basis.index("bwd", i + 1, spec.outputs[i], 0, 0, 0)] += 1.0
        profile = stopping_profile(spec, i)
        # item 1: closed norms from the stopping profile
        want_plus = 2.0 * profile.expected_sum(lambda t: 1.0 / weights.alpha[t])
        want_minus = 2.0 * profile.expected_sum(lambda t: weights.alpha[t])
        assert np.linalg.norm(w_plus) ** 2 == pytest.approx(want_plus, abs=1e-8)
        assert np.linalg.norm(w_minus) ** 2 == pytest.approx(want_minus, abs=1e-8)
        # item 2: forward history orthogonal to both inner transition sets
        assert inst.projection_norm_sq("A", w_plus) < 1e-16 or \
            sum(abs(np.vdot(g, w_plus)) ** 2 for g in even) < 1e-16
        assert sum(abs(np.vdot(g, w_plus)) ** 2 for g in odd) < 1e-16
        # item 3: rewind history in span(even); primed variant in span(odd)
        assert span_residual(even, w_minus) < 1e-8
        assert span_residual(odd, w_minus_prime) < 1e-8


def test_history_rejects_bad_alpha():
    spec = _deterministic_t2_spec()
    with pytest.raises(ValueError):
        history_states(spec, [0], np.array([2.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        history_states(spec, [0], np.ones(2))


@pytest.mark.parametrize("inputs", [[1], [0, -1]])
def test_history_rejects_inputs_out_of_range(inputs):
    with pytest.raises(IndexError):
        history_states(_deterministic_t2_spec(), inputs, np.ones(3))


# ---------------------------------------------------------------------------
# General variant
# ---------------------------------------------------------------------------

def test_general_basis_dimension():
    assert GeneralBasis(n=2, workspace=2, t_max=2).dim == 504


def test_general_instance_well_formed(small_pair):
    pair, = regime_pairs(*small_pair, ["i-a"])
    inst = pair.instances()["marked"]
    assert inst.dim == 504
    wf = inst.well_formedness_report()
    assert wf["passed"]
    assert wf["gram_offdiag_A"] < 1e-10 and wf["gram_offdiag_B"] < 1e-10
    assert wf["psi0_overlap_B"] < 1e-12


def test_span_basis_and_projector_agree_on_built_instances(small_pair):
    """Normalized generators and an SVD of them give the same projector."""
    pair, = regime_pairs(*small_pair, ["ii-a"])
    built = [build_simple_instance(OracleSpec(size=8, marked=frozenset({2})), 8.0),
             build_simple_instance(OracleSpec(size=8, marked=frozenset()), 8.0),
             pair.instances()["empty"]]
    for inst in built:
        for side in ("A", "B"):
            q = inst.span_basis(side)
            assert q.shape == (inst.dim, len(inst.generators(side)))
            p = inst.projector(side)
            assert p.rank == q.shape[1]
            assert np.max(np.abs(p.matrix - q @ q.conj().T)) < 1e-12


@pytest.mark.parametrize("regime", REGIMES)
def test_general_witness_closed_norms(regime, small_pair):
    pair, = regime_pairs(*small_pair, [regime])
    built = pair.instances()
    pos, neg = pair.positive, pair.negative

    report = verify_witnesses(built["marked"], pos)
    assert report.passed()
    assert abs(report.norm_sq_measured - pos.closed_norm_sq) < 1e-8
    assert report.c_plus_effective <= pair.c_plus_cap + 1e-9

    report_e = verify_witnesses(built["empty"], neg)
    assert report_e.passed()
    assert abs(report_e.norm_sq_measured - neg.closed_norm_sq) < 1e-8
    assert report_e.decomposition_residual < 1e-12


def _assert_same_witness(got, want):
    assert type(got) is type(want)
    assert got.closed_norm_sq == want.closed_norm_sq
    if isinstance(want, PositiveWitness):
        assert np.array_equal(got.vector, want.vector)
    else:
        assert np.array_equal(got.w_a, want.w_a)
        assert np.array_equal(got.w_b, want.w_b)


@pytest.mark.parametrize("shape", [(1, 2, 2), (2, 2, 2), (3, 3, 2), (4, 4, 4),
                                   (16, 2, 2)])
@pytest.mark.parametrize("regime", REGIMES)
def test_general_witnesses_match_dense_oracle(shape, regime):
    """Scattered index arrays give the label-by-label witnesses bit for bit."""
    marked, empty = subroutine_pair(0, *shape)
    pair, = regime_pairs(marked, empty, [regime])
    _assert_same_witness(pair.positive,
                         dense_general_witnesses(marked, pair.weights_pos))
    _assert_same_witness(pair.negative,
                         dense_general_witnesses(empty, pair.weights_neg))
    # several marked inputs, taken in input order
    n, t_max, _ = shape
    several = tuple(range(0, n, 2))
    spec = random_subroutine(3, *shape, marked=several)
    weights = regime_parameters(regime, *stopping_moments(spec), t_max,
                                marked=several)
    _assert_same_witness(general_positive_witness(spec, weights),
                         dense_general_witnesses(spec, weights))


@pytest.mark.parametrize("n", [2, 5, 16, 80])
@pytest.mark.parametrize("marked", [True, False])
def test_simple_witnesses_match_dense_oracle(n, marked):
    oracle = OracleSpec(size=n,
                        marked=frozenset(range(1, n, 3)) if marked else frozenset())
    omega = 0.7 * n
    _assert_same_witness(simple_witnesses(oracle, omega),
                         dense_simple_witnesses(oracle, omega))


def test_witnesses_verify_at_n_256():
    """Every regime's witnesses at (n, T, Z) = (256, 4, 4), seed 0."""
    for pair in regime_pairs(*subroutine_pair(0, 256, 4, 4), REGIMES):
        built = pair.instances()
        for label, witness in (("marked", pair.positive), ("empty", pair.negative)):
            report = verify_witnesses(built[label], witness)
            assert report.passed(), (pair.regime, label)
            assert (abs(report.norm_sq_measured - witness.closed_norm_sq)
                    <= DEFAULT_TOL.assert_tol), (pair.regime, label)


def test_witness_exclusivity(small_pair):
    pair, = regime_pairs(*small_pair, ["i-a"])
    with pytest.raises(ValueError):
        general_negative_witness(pair.marked, pair.weights_pos)
    with pytest.raises(ValueError):
        general_positive_witness(pair.empty, pair.weights_neg)


def test_deterministic_negative_norm_example():
    """All T_i = 2, alpha = 1, omega_i = 4, N = 4 gives norm^2 = 37."""
    spec = random_subroutine(1, 4, 2, 2, halting_fractions=[0.0, 1.0])
    weights = Weights(omega=np.full(4, 4.0), alpha=np.ones(3), beta={})
    neg = general_negative_witness(spec, weights)
    assert neg.closed_norm_sq == pytest.approx(37.0, abs=1e-12)
    assert np.linalg.norm(neg.w_a) ** 2 == pytest.approx(37.0, abs=1e-8)


def test_c_minus_tracks_regime_radical():
    """Negative witness size vs the first-regime radical: within [1/8, 8]."""
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n, t_max, w = 2, int(rng.integers(2, 5)), int(rng.integers(2, 5))
        spec = random_subroutine(seed + 500, n, t_max, w, marked=())
        exp_t, exp_t2 = stopping_moments(spec)
        weights = regime_parameters("i-a", exp_t, exp_t2, t_max, mu=1.0)
        neg = general_negative_witness(spec, weights)
        radical_sq = float(np.sum(exp_t ** 2))  # mu = 1
        ratio = neg.closed_norm_sq / radical_sq
        assert 1 / 8 <= ratio <= 8.0, (seed, ratio)
