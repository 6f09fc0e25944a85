"""Tests for two-reflection instances, history states, and witnesses."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from vtsearch.grover import CostProfile, OracleSpec
from vtsearch.instances import (GeneralBasis, NegativeWitness, PEInstance,
                                PositiveWitness, REGIMES, SimpleBasis, Weights,
                                build_general_instance, build_simple_instance,
                                fsum_norm_sq, general_pattern,
                                general_negative_witness,
                                general_positive_witness, history_layout,
                                history_states, instance_from_sets,
                                promise_parameter, regime_parameters,
                                simple_witnesses, verify_witnesses)
from vtsearch.linalg import DEFAULT_TOL
from vtsearch.phase import regime_pairs
from vtsearch.subroutines import (build_block_subroutine, random_subroutine,
                                  stopping_moments, stopping_profile,
                                  subroutine_pair, validate)

from conftest import (dense_general_sets, dense_general_witnesses,
                      dense_inner_history, dense_simple_sets,
                      dense_simple_witnesses, expected_sum,
                      random_block_schedule, span_residual)

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
    assert inst.structure.sets["B"]["absorb"] == 2  # both inputs unmarked
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
        inst = instance_from_sets(dim=dim, psi0=psi0,
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

def _nonzeros(vec):
    """One dense generator's (rows, values): its nonzeros, rows ascending."""
    rows = np.flatnonzero(vec)
    return rows, vec[rows]


def _csc(entries, dtype=complex):
    """(indptr, rows, values) of generators given as _nonzeros pairs."""
    return (np.cumsum([0] + [len(rows) for rows, _ in entries]),
            np.concatenate([np.zeros(0, dtype=np.int64)] + [r for r, _ in entries]),
            np.concatenate([np.zeros(0, dtype=dtype)] + [v for _, v in entries]))


def _side_arrays(inst):
    """Each side's set counts and its (indptr, rows, values) as bytes."""
    return [(side, inst.structure.sets[side],
             *(a.tobytes() for a in (s.indptr, s.rows, inst.values[side])))
            for side, s in inst.structure.sides.items()]


def _oracle_sides(dense_sets, dtype=complex):
    """The oracle's sets laid side by side, in set order, as _side_arrays gives them.

    A set lists dense vectors or their _nonzeros pairs; each generator is
    stored as its nonzeros, labels ascending.
    """
    out = []
    for side, sets in zip("AB", dense_sets):
        entries = [e if isinstance(e, tuple) else _nonzeros(e)
                   for vectors in sets.values() for e in vectors]
        out.append((side, {name: len(vectors) for name, vectors in sets.items()},
                    *(a.tobytes() for a in _csc(entries, dtype))))
    return out


def _assert_checks_match_dense(inst, probes):
    """Sparse Gram, projection and membership against dense recomputations."""
    for side in ("A", "B"):
        m = np.stack(inst.generators(side), axis=1)
        norms = np.linalg.norm(m, axis=0)
        gram = m.conj().T @ m
        sparse_norms = inst._norms(side)
        assert np.max(np.abs(sparse_norms - norms)) <= SPARSE_TOL
        np.fill_diagonal(gram, 0.0)
        # every off-diagonal entry: the listed pairs i < j, mirrored, and 0
        # for every pair that shares no basis label
        (first, second, values), _ = inst._gram(side)
        assert np.all(first < second)
        sparse_gram = np.zeros_like(gram)
        sparse_gram[first, second] = values
        sparse_gram[second, first] = values.conj()
        assert np.max(np.abs(sparse_gram - gram), initial=0.0) <= SPARSE_TOL
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
    assert _side_arrays(inst) == _oracle_sides(dense_simple_sets(oracle, omega), float)
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
            assert _side_arrays(inst) == _oracle_sides(dense_general_sets(spec, weights))
            _assert_checks_match_dense(inst, _probes(inst, n, vectors))


def _built(seed, shape, regimes):
    """(regime, label, spec, weights, instance) of regime_pairs(...).instances()."""
    out = []
    for pair in regime_pairs(*subroutine_pair(seed, *shape), regimes):
        built = pair.instances()
        out += [(pair.regime, "marked", pair.marked, pair.weights_pos, built["marked"]),
                (pair.regime, "empty", pair.empty, pair.weights_neg, built["empty"])]
    return out


@pytest.mark.parametrize("shape", [(2, 2, 2), (4, 4, 4), (16, 2, 2)])
def test_pattern_fill_matches_oracle_in_any_regime_order(shape):
    """One pattern per spec, filled per regime, in forward and reverse order.

    Each side's arrays equal the bytes of the dense oracle's nonzeros,
    its sets laid side by side, and those of a build from a cold, freshly
    drawn spec, so the pattern keeps nothing of the regime it was first
    built under.
    """
    seed = 4
    for order in (REGIMES, REGIMES[::-1]):
        for regime, label, spec, weights, inst in _built(seed, shape, order):
            dense = dense_general_sets(spec, weights, store=_nonzeros)
            assert _side_arrays(inst) == _oracle_sides(dense), (regime, label)
            marked, empty = subroutine_pair(seed, *shape)
            cold = build_general_instance(marked if label == "marked" else empty,
                                          weights)
            assert _side_arrays(cold) == _side_arrays(inst), (regime, label)


def test_pattern_built_plans_equal_a_private_structure():
    """Shared plans give the bytes of an instance built from the same dense sets."""
    for regime, label, spec, weights, inst in _built(7, (2, 2, 2), REGIMES):
        direct = instance_from_sets(
            inst.dim, inst.psi0.copy(),
            a_sets={k: inst.set_vectors("A", k) for k in inst.structure.sets["A"]},
            b_sets={k: inst.set_vectors("B", k) for k in inst.structure.sets["B"]})
        assert direct.structure is not inst.structure
        got, want = inst.psi0_component(), direct.psi0_component()
        assert got.dim == want.dim and got.psi0.tobytes() == want.psi0.tobytes()
        assert _side_arrays(got) == _side_arrays(want), (regime, label)
        assert (repr(inst.well_formedness_report())
                == repr(direct.well_formedness_report())), (regime, label)
        for side in ("A", "B"):
            assert inst.cross_set_cosine(side) == direct.cross_set_cosine(side)
            (gf, gs, gv), _ = inst._gram(side)
            (df, ds, dv), _ = direct._gram(side)
            assert gf.tobytes() + gs.tobytes() + gv.tobytes() == (
                df.tobytes() + ds.tobytes() + dv.tobytes())


def test_pattern_arrays_are_read_only(small_pair):
    """Every array the instances of one spec share refuses writes.

    The scale indices are int32: they index a table of 3 + T + n entries.
    """
    marked, _ = small_pair
    pair, = regime_pairs(*small_pair, ["ii-b"])
    inst = pair.instances()["marked"]
    pattern = general_pattern(marked)
    assert inst.structure is pattern.structure and inst.psi0 is pattern.psi0
    structure = pattern.structure
    part = structure.component
    shared = [pattern.psi0, structure.support, part.rows, part.structure.support,
              *structure.gram("A")]
    for sparsity in (*structure.sides.values(), *part.structure.sides.values()):
        shared += [sparsity.indptr, sparsity.rows, sparsity.cols]
    for side, f in pattern.fills.items():
        assert f.sparsity is structure.sides[side]
        assert f.scale.dtype == np.int32
        shared += [f.scale, f.inner, f.u]
    shared += list(part.entries.values())
    layout = history_layout(marked)
    shared += [layout.rows, layout.states, layout.slots]
    for array in shared:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0


def test_regime_pairs_build_one_pattern_per_spec(monkeypatch):
    import vtsearch.instances as inst_mod
    made = []

    class Counting(inst_mod.GeneralPattern):
        def __init__(self, spec):
            made.append(spec)
            super().__init__(spec)

    monkeypatch.setattr(inst_mod, "GeneralPattern", Counting)
    marked, empty = subroutine_pair(3, 2, 3, 2)
    structures = {"marked": set(), "empty": set()}
    for pair in regime_pairs(marked, empty, REGIMES):
        for label, inst in pair.instances().items():
            structures[label].add(id(inst.structure))
    assert len(made) == 2
    assert made[0] is not made[1] and {id(s) for s in made} == {id(marked), id(empty)}
    assert all(len(ids) == 1 for ids in structures.values())


def test_regime_pairs_build_one_history_layout_per_spec(monkeypatch):
    """Five regimes, twice over, lay out each spec's history rows once."""
    import vtsearch.instances as inst_mod
    made = []

    class Counting(inst_mod.HistoryLayout):
        def __init__(self, spec):
            made.append(spec)
            super().__init__(spec)

    monkeypatch.setattr(inst_mod, "HistoryLayout", Counting)
    marked, empty = subroutine_pair(3, 2, 3, 2)
    first = regime_pairs(marked, empty, REGIMES)
    again = regime_pairs(marked, empty, REGIMES)
    assert [id(s) for s in made] == [id(marked), id(empty)]
    for one, two in zip(first, again):
        _assert_same_witness(one.positive, two.positive)
        _assert_same_witness(one.negative, two.negative)


def _distinct_zero_pair():
    """A (marked, empty) pair whose inputs differ in the exact zeros of U.

    Input 0 keeps its Haar steps (the marked side's flipped), input 1
    runs identity steps and input 2 swaps two live answer-0 labels where
    a step has two, so each input's U has its own zero pattern; every
    step still fixes the labels halted before it, so both specs validate.
    """
    pair = []
    for spec in subroutine_pair(6, 3, 3, 3):
        us = spec.unitaries.copy()
        eye = np.eye(spec.space_dim)
        for t in range(spec.num_steps):
            us[1, t] = eye
            # the answer-0 labels still live at step t + 1; swap the first two
            live = np.flatnonzero(~spec.halted_mask(t)[:spec.workspace_size])
            perm = np.arange(spec.space_dim)
            if len(live) > 1:
                perm[live[:2]] = live[1::-1]
            us[2, t] = eye[perm]
        pair.append(dataclasses.replace(spec, unitaries=us))
    return pair


@pytest.mark.parametrize("case", [(1, 2, 2), (3, 5, 3), (5, 8, 8), "distinct-zeros"],
                         ids=["1-2-2", "3-5-3", "5-8-8", "distinct-zeros"])
def test_template_layout_matches_dense_oracle(case):
    """Sets laid out from input 1's template, and witnesses, equal the oracle.

    Every set's indptr, rows and values equal the nonzeros of the
    label-by-label dense oracle, and both witnesses equal its dense sums,
    bit for bit.  "distinct-zeros" is a hand-built pair whose inputs' step
    unitaries differ in their exact zeros, so an entry the template lists
    is stored for one input and dropped for another.
    """
    if case == "distinct-zeros":
        specs = _distinct_zero_pair()
        for spec in specs:
            assert validate(spec).passed
            zeros = {(spec.unitaries[i] == 0).tobytes() for i in range(spec.num_inputs)}
            assert len(zeros) == spec.num_inputs
    else:
        specs = subroutine_pair(2, *case)
    for pair in regime_pairs(*specs, ["i-b", "ii-c"]):
        built = pair.instances()
        for label, spec, weights, witness in (
                ("marked", pair.marked, pair.weights_pos, pair.positive),
                ("empty", pair.empty, pair.weights_neg, pair.negative)):
            dense = dense_general_sets(spec, weights, store=_nonzeros)
            assert _side_arrays(built[label]) == _oracle_sides(dense), (pair.regime, label)
            _assert_same_witness(witness, dense_general_witnesses(spec, weights))


def test_instance_rejects_lengths_other_than_its_structure(small_pair):
    """psi0 and each side's values must have the structure's lengths."""
    psi0, a, b = np.eye(3)
    for wrong in (np.append(psi0, 0.0), psi0[:2], psi0[None]):
        with pytest.raises(ValueError, match="psi0 has shape"):
            instance_from_sets(dim=3, psi0=wrong, a_sets={"a": [a]}, b_sets={"b": [b]})
    pair, = regime_pairs(*small_pair, ["i-a"])
    inst = pair.instances()["marked"]
    values = inst.values
    for side in ("A", "B"):
        for cut in (values[side][:-1], np.append(values[side], 1.0)):
            with pytest.raises(ValueError, match=f"side {side}: {len(cut)} values"):
                PEInstance(inst.structure, inst.psi0, {**values, side: cut})
    assert PEInstance(inst.structure, inst.psi0, values).values["B"] is values["B"]


def test_checks_read_each_side_record(small_pair):
    """Norms, Gram and span basis come from values[side], the side's one array.

    Doubling one side's values, passed to the constructor, doubles its
    norms and quadruples its Gram entries, bit for bit, and leaves its
    span basis as it was; set_vectors of every set, in order, are
    generators(side).
    """
    pair, = regime_pairs(*small_pair, ["ii-b"])
    built = [build_simple_instance(OracleSpec(size=8, marked=frozenset({2})), 8.0),
             *pair.instances().values()]
    for inst in built:
        for side in ("A", "B"):
            values = inst.values
            assert len(values[side]) == len(inst.structure.sides[side].rows)
            doubled = PEInstance(inst.structure, inst.psi0,
                                 {**values, side: 2.0 * values[side]})
            assert np.array_equal(doubled._norms(side), 2.0 * inst._norms(side))
            (_, _, gram), _ = inst._gram(side)
            (_, _, gram_doubled), _ = doubled._gram(side)
            assert np.array_equal(gram_doubled, 4.0 * gram)
            assert np.array_equal(doubled.span_basis(side), inst.span_basis(side))
            counts = inst.structure.sets[side]
            by_set = [inst.set_vectors(side, name) for name in counts]
            assert [len(v) for v in by_set] == list(counts.values())
            assert np.array_equal(np.reshape([v for vs in by_set for v in vs], (-1, inst.dim)),
                                  np.reshape(inst.generators(side), (-1, inst.dim)))


def test_gram_of_overlapping_generators_matches_dense():
    """Up to five generators share a label and none is orthogonal to another.

    The builders' Gram entries are all roundoff, so this is the case that
    shows a pair missed or counted twice, at every offset within a label.
    """
    rng = np.random.default_rng(8)
    dim = 12

    def overlapping(count):
        vecs = []
        for _ in range(count):
            v = np.zeros(dim, dtype=complex)
            v[rng.choice(dim, size=5, replace=False)] = (
                rng.normal(size=5) + 1j * rng.normal(size=5))
            vecs.append(v)
        return vecs

    a, b = overlapping(9), overlapping(6)
    psi0 = np.zeros(dim, dtype=complex)
    psi0[0] = 1.0
    inst = instance_from_sets(dim, psi0, a_sets={"x": a[:4], "y": a[4:]}, b_sets={"z": b})
    (first, second, _), _ = inst._gram("A")
    assert np.max(np.bincount(inst.structure.sides["A"].rows)) >= 4
    # one entry per pair that shares a label, each listed once
    shared = {(i, j) for i in range(9) for j in range(i + 1, 9)
              if np.any((a[i] != 0) & (a[j] != 0))}
    assert set(zip(first.tolist(), second.tolist())) == shared
    assert len(first) == len(shared)
    _assert_checks_match_dense(inst, _probes(inst, 8, []))
    m = np.stack(a, axis=1) / np.linalg.norm(np.stack(a, axis=1), axis=0)
    cosines = np.abs(m[:, :4].conj().T @ m[:, 4:])
    assert abs(inst.cross_set_cosine("A") - np.max(cosines)) <= SPARSE_TOL
    assert inst.cross_set_cosine("B") == 0.0


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


NAN_INPUTS = ("Weights-omega", "Weights-alpha", "Weights-beta", "regime_parameters-moments",
              "regime_parameters-k", "history_states-alpha", "history_states-alpha0",
              "CostProfile-moments", "CostProfile-pi", "build_simple_instance")


@pytest.mark.parametrize("case", NAN_INPUTS)
def test_input_constructors_refuse_nan(case, small_pair):
    """NaN fails every comparison, so each input check must be written to fail for it.

    Unchecked, regime_parameters would return a NaN omega, and
    compare_table would report NaN bounds from a NaN CostProfile.
    """
    nan = math.nan
    spec = small_pair[0]
    alpha = np.ones(spec.num_steps + 1)
    cases = {
        "Weights-omega": (lambda: Weights(omega=np.array([nan, 1.0]), alpha=np.ones(3),
                                          beta={}), "must be positive"),
        "Weights-alpha": (lambda: Weights(omega=np.ones(2), alpha=np.array([1.0, nan, 1.0]),
                                          beta={}), "must be positive"),
        "Weights-beta": (lambda: Weights(omega=np.ones(2), alpha=np.ones(3), beta={0: nan}),
                         "sqrt-beta must sum to 1, got nan"),
        "regime_parameters-moments": (
            lambda: regime_parameters("ii-b", np.array([nan, 2.0]), np.array([1.0, 4.0]), 2,
                                      marked=(0,)), "stopping-time moments"),
        "regime_parameters-k": (
            lambda: regime_parameters("ii-b", np.array([1.0, 2.0]), np.array([1.0, 4.0]), 2,
                                      marked=(0,), k=nan), "must be positive"),
        "history_states-alpha": (lambda: history_states(spec, [0], np.where(
            np.arange(len(alpha)) == 1, nan, alpha)), "alpha weights must be positive"),
        "history_states-alpha0": (lambda: history_states(spec, [0], np.where(
            np.arange(len(alpha)) == 0, nan, alpha)), r"alpha\[0\] = 1"),
        "CostProfile-moments": (lambda: CostProfile(exp_t=np.array([nan, 2.0]),
                                                    exp_t2=np.array([1.0, 4.0]),
                                                    pi=np.array([0.5, 0.5])),
                                r"E\[T\^2\] >= E\[T\]\^2 >= 1"),
        "CostProfile-pi": (lambda: CostProfile(exp_t=np.array([1.0, 2.0]),
                                               exp_t2=np.array([1.0, 4.0]),
                                               pi=np.array([nan, 0.5])), "sum to 1"),
        "build_simple_instance": (lambda: build_simple_instance(
            OracleSpec(size=4, marked=frozenset({0})), nan), "omega must be positive"),
    }
    build, message = cases[case]
    with pytest.raises(ValueError, match=message):
        build()


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
        want_plus = 2.0 * expected_sum(profile, 1.0 / weights.alpha)
        want_minus = 2.0 * expected_sum(profile, weights.alpha)
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


@pytest.mark.parametrize("spec", [
    random_subroutine(4, 3, 8, 4, marked=(1,)),
    random_subroutine(5, 2, 16, 6, marked=(0,)),
    build_block_subroutine(random_block_schedule(3, blocks=(2, 2))),
], ids=["T=8", "T=16", "block"])
def test_history_states_equal_projected_recurrence(spec):
    """States read off spec.trajectory equal the step-by-step projected oracle."""
    n, width = spec.num_inputs, spec.num_steps + 1
    _, plus, minus, _, _ = history_states(spec, range(n), np.ones(width))
    # with unit alpha, plus holds every state on both tracks, minus with signs
    plus = plus.reshape(n, width, 2, spec.space_dim)
    minus = minus.reshape(n, width, 2, spec.space_dim)
    signs = np.array([(-1.0) ** t for t in range(width)])[:, None]
    for i in range(n):
        want = np.array(dense_inner_history(spec, i))
        assert np.array_equal(plus[i, :, 0], want)
        assert np.array_equal(plus[i, :, 1], want)
        assert np.array_equal(minus[i, :, 0], signs * want)
        assert np.array_equal(minus[i, :, 1], -signs * want)


@pytest.mark.parametrize("seed,n,t,z", [(0, 16, 8, 4), (1, 8, 16, 5), (2, 3, 3, 3)])
def test_history_closed_norms_sum_in_step_order(seed, n, t, z):
    """Closed norms equal, bit for bit, a per-input sum over the cdf in t order."""
    spec = random_subroutine(seed, n, t, z, marked=(0,))
    alpha = np.concatenate([[1.0], np.random.default_rng(seed).uniform(0.1, 9.0, t)])
    _, _, _, norm_plus, norm_minus = history_states(spec, range(n), alpha)
    for i in range(n):
        profile = stopping_profile(spec, i)
        assert norm_plus[i] == 2.0 * expected_sum(profile, 1.0 / alpha)
        assert norm_minus[i] == 2.0 * expected_sum(profile, alpha)


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


def test_span_basis_dtype_follows_the_instance_values(small_pair):
    """Simple instances stay real down to the basis; general ones are complex."""
    pair, = regime_pairs(*small_pair, ["ii-b"])
    simple = [build_simple_instance(OracleSpec(size=8, marked=m), 8.0)
              for m in (frozenset({2}), frozenset())]
    for insts, dtype in ((simple, np.float64),
                         (pair.instances().values(), np.complex128)):
        for inst in insts:
            for part in (inst, inst.psi0_component()):
                assert part.psi0.dtype == dtype
                for side in ("A", "B"):
                    assert part.values[side].dtype == dtype
                    assert part.span_basis(side).dtype == dtype
    # hand-built sets keep their dtype: integers become float64
    e = np.eye(3, dtype=int)
    real = instance_from_sets(dim=3, psi0=e[0], a_sets={"a": [e[1]]}, b_sets={"b": [e[2]]})
    assert real.span_basis("A").dtype == np.float64
    cplx = instance_from_sets(dim=3, psi0=e[0], a_sets={"a": [1j * e[1]]},
                              b_sets={"b": [e[2]]})
    assert cplx.span_basis("A").dtype == np.complex128
    assert cplx.span_basis("B").dtype == np.float64


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


@pytest.mark.parametrize("dtype", [complex, float])
def test_fsum_norm_sq_is_exactly_rounded(dtype):
    """The rounded squares' exact sum, rounded once, in any component order."""
    rng = np.random.default_rng(3)
    vec = np.zeros(5000, dtype=dtype)
    where = rng.choice(5000, 700, replace=False)
    vec[where] = rng.normal(size=700) * 10.0 ** rng.integers(-8, 9, 700)
    if dtype is complex:
        vec[where[::2]] += 1j * rng.normal(size=350)
    parts = vec.view(float)
    want = float(sum(Fraction(x * x) for x in parts))
    assert fsum_norm_sq(vec) == want
    assert fsum_norm_sq(vec[rng.permutation(len(vec))]) == want
    assert fsum_norm_sq(np.zeros(3, dtype=dtype)) == 0.0


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
