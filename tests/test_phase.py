"""Tests for the spectral decision engine and phase-register simulation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vtsearch.instances as inst_mod
import vtsearch.linalg as linalg_mod
import vtsearch.phase as phase_mod
from vtsearch.grover import OracleSpec
from vtsearch.instances import (REGIMES, InstanceStack, InstanceStructure, PEInstance,
                                build_simple_instance, instance_from_sets,
                                general_negative_witness,
                                general_positive_witness, regime_parameters,
                                simple_witnesses, verify_witnesses)
from vtsearch.phase import (WalkSpectrum, _walk_spectrum, _zero_phase_weight,
                            decide, qpe_kernel, qpe_simulate,
                            qpe_zero_prediction, regime_pairs,
                            register_bits_for, verify_reflection_factorization,
                            zero_phase_overlap)
from vtsearch.linalg import (DEFAULT_TOL, DIM_CAP, DimensionCapError,
                             NonUnitaryError, cluster_phases, reflection, unitary_eig)
from vtsearch.subroutines import stopping_moments, subroutine_pair

from conftest import (cross_gram, cross_plan, dense_qpe_distribution,
                      dense_qpe_zero_prediction,
                      dense_reflection_factorization_residual,
                      dense_walk_spectrum, dense_zero_phase_overlap,
                      principal_angle_spectrum, reflected_walk_spectrum,
                      searched_star, star_block_compressions)

THETA_STARS = (0.05, 0.2, 0.5)
ORACLE_TOL = 1e-12


def _unit(dim, k):
    v = np.zeros(dim, dtype=complex)
    v[k] = 1.0
    return v


def _toy_instance(a_vecs, b_vecs, psi0):
    dim = len(psi0)
    return instance_from_sets(dim=dim, psi0=psi0, a_sets={"a": a_vecs},
                              b_sets={"b": b_vecs})


def test_fixed_initial_state_gives_full_overlap():
    # psi0 orthogonal to both spans -> exact +1 eigenvector
    inst = _toy_instance([_unit(3, 1)], [_unit(3, 2)], _unit(3, 0))
    assert zero_phase_overlap(inst, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert zero_phase_overlap(inst, 0.5) == pytest.approx(1.0, abs=1e-12)


def test_pi_eigenvector_has_no_zero_overlap():
    # psi0 in span(A)-complement and span(B): walk acts as -1 on it
    inst = _toy_instance([_unit(2, 1)], [_unit(2, 1)], _unit(2, 0))
    # R_A psi0 = -psi0, R_B psi0 = -psi0 -> U psi0 = +psi0? build explicitly:
    walk = inst.walk_unitary()
    assert np.allclose(walk @ inst.psi0, inst.psi0)
    flip = _toy_instance([_unit(2, 0)], [_unit(2, 1)], _unit(2, 0))
    # A fixes psi0, B negates it -> phase pi
    assert np.allclose(flip.walk_unitary() @ flip.psi0, -flip.psi0)
    assert zero_phase_overlap(flip, 0.1) == pytest.approx(0.0, abs=1e-12)
    out = qpe_simulate(flip, bits=1)
    assert out.p_zero == pytest.approx(0.0, abs=1e-12)


def test_decide_simple_cases():
    marked = build_simple_instance(OracleSpec(size=4, marked=frozenset({0})), 4.0)
    empty = build_simple_instance(OracleSpec(size=4, marked=frozenset()), 4.0)
    pos = decide(marked, c_minus=13.0, c_plus=4.0)
    neg = decide(empty, c_minus=13.0, c_plus=4.0)
    assert pos.verdict == "positive" and pos.p0 >= 0.25 - 1e-9
    assert neg.verdict == "negative" and neg.p0 <= 1 / 16 + 1e-9
    assert pos.theta_star == pytest.approx(1 / math.sqrt(52.0))
    assert pos.threshold == pytest.approx(0.125)
    for decision, inst in ((pos, marked), (neg, empty)):
        assert decision.dim == inst.dim == 40
        # src, then qry, ret and chk of each branch on the answer's bit
        assert decision.dim_decided == inst.psi0_component().dim == 1 + 3 * 4
        assert decision.rank_a == len(inst.generators("A"))
        assert decision.rank_b == len(inst.generators("B"))
        assert 0.0 < decision.min_angle <= math.pi / 2
        assert list(dataclasses.asdict(decision)) == [
            "verdict", "p0", "threshold", "theta_star", "dim", "dim_decided",
            "rank_a", "rank_b", "min_angle"]


def test_decide_validates_constants():
    inst = build_simple_instance(OracleSpec(size=4, marked=frozenset({0})), 4.0)
    with pytest.raises(ValueError):
        decide(inst, c_minus=13.0, c_plus=0.5)
    with pytest.raises(ValueError):
        decide(inst, c_minus=13.0, c_plus=51.0)
    with pytest.raises(ValueError):
        decide(inst, c_minus=0.5, c_plus=4.0)


def test_decide_rejects_a_psi0_that_is_not_a_unit_vector():
    """p0 and its threshold are for a unit psi0, so decide refuses any other."""
    inst = build_simple_instance(OracleSpec(size=4, marked=frozenset({0})), 4.0)
    for scale in (2.0, 1.0 + 1e-6, 0.5):
        scaled = PEInstance(inst.structure, scale * inst.psi0, inst.values)
        with pytest.raises(ValueError, match="psi0 has norm"):
            decide(scaled, c_minus=13.0, c_plus=4.0)
    # within assert_tol of 1, the verdict stands
    near = PEInstance(inst.structure, (1.0 + 1e-12) * inst.psi0, inst.values)
    assert decide(near, c_minus=13.0, c_plus=4.0).verdict == "positive"


@pytest.mark.parametrize("entry", ["decide", "zero_phase_overlap",
                                   "qpe_zero_prediction", "qpe_simulate"])
def test_every_spectrum_entry_point_rejects_a_non_unit_psi0(entry):
    """A doubled psi0 would scale every weight by 4, so each entry point refuses it."""
    inst = build_simple_instance(OracleSpec(size=4, marked=frozenset({0})), 4.0)
    doubled = PEInstance(inst.structure, 2.0 * inst.psi0, inst.values)
    call = {"decide": lambda i: decide(i, c_minus=13.0, c_plus=4.0),
            "zero_phase_overlap": lambda i: zero_phase_overlap(i, 0.2),
            "qpe_zero_prediction": lambda i: qpe_zero_prediction(i, 3),
            "qpe_simulate": lambda i: qpe_simulate(i, 3)}[entry]
    call(inst)
    with pytest.raises(ValueError, match="psi0 has norm 2.0, not 1"):
        call(doubled)


@pytest.mark.parametrize("entry", ["decide", "zero_phase_overlap"])
def test_decide_and_zero_phase_overlap_reject_a_nan_cutoff(entry):
    """NaN fails every comparison, so a NaN c_minus or theta* would pass unchecked.

    decide would return a negative verdict with p0 = 0, and the overlap
    0 where it is 0.25 at theta* = 0.2; each entry point refuses it.
    """
    inst = build_simple_instance(OracleSpec(size=4, marked=frozenset({0})), 4.0)
    call, valid = {"decide": (lambda x: decide(inst, c_minus=x, c_plus=4.0).p0, 13.0),
                   "zero_phase_overlap": (lambda x: zero_phase_overlap(inst, x), 0.2)}[entry]
    assert call(valid) >= 0.25 - ORACLE_TOL
    with pytest.raises(ValueError, match="got nan"):
        call(math.nan)


NAN_CHECKS = ("psi0-decide", "psi0-qpe_simulate", "norms-decide", "norms-report",
              "orthonormality", "certificate", "unitarity", "reconstruction")


@pytest.mark.parametrize("check", NAN_CHECKS)
def test_a_nan_fails_every_check(check, monkeypatch):
    """NaN fails every comparison, so each check must be written to fail for it.

    Each case puts a NaN where one check reads a number.  Unchecked, a NaN
    psi0 entry would give a negative verdict with p0 = nan and a nan
    p_zero, a NaN generator value would pass well_formedness_report and
    then fail decide's SVD, and unitary_eig would return NaN phases.  The
    orthonormality and reconstruction residuals and the certificate are
    handed their NaN by a patched helper, since no finite input reaches
    them with one.
    """
    inst = build_simple_instance(OracleSpec(size=4, marked=frozenset({0})), 4.0)
    psi0 = inst.psi0.copy()
    psi0[0] = math.nan
    nan_psi0 = PEInstance(inst.structure, psi0, inst.values)
    a = inst.values["A"].copy()
    a[0] = math.nan
    nan_value = PEInstance(inst.structure, inst.psi0, {**inst.values, "A": a})
    # side A shares label 0 between its two generators, so it has a Gram entry
    shared = _toy_instance([_unit(3, 0) + _unit(3, 1), _unit(3, 0) - _unit(3, 1)],
                           [_unit(3, 2)], _unit(3, 0))
    eye = np.eye(2, dtype=complex)

    def patch(owner, name, change):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, **kw: change(original(*args, **kw)))

    def nan_singular_vector(usv):
        u = usv[0].copy()
        u[..., 0, 0] = math.nan
        return (u, *usv[1:])

    def nan_phase(decomposition):
        phases = decomposition[0].copy()
        phases[1] = math.nan
        return phases, decomposition[1]

    cases = {
        "psi0-decide": (lambda: decide(nan_psi0, c_minus=13.0, c_plus=4.0),
                        "psi0 has norm nan, not 1, in row 0"),
        "psi0-qpe_simulate": (lambda: qpe_simulate(nan_psi0, 3),
                              "psi0 has norm nan, not 1, in row 0"),
        "norms-decide": (lambda: decide(nan_value, c_minus=13.0, c_plus=4.0),
                         "side A: generator norm nan is not above rank_tol in row 0"),
        "norms-report": (lambda: nan_value.well_formedness_report(),
                         "side A: generator norm nan is not above rank_tol$"),
        "orthonormality": (lambda: (patch(phase_mod, "_orthonormality", lambda r: r * math.nan),
                                    decide(shared, c_minus=4.0, c_plus=2.0)),
                           "side A: normalized generators are not orthonormal, "
                           "residual nan in row 0"),
        "certificate": (lambda: (patch(phase_mod.np.linalg, "svd", nan_singular_vector),
                                 decide(inst, c_minus=13.0, c_plus=4.0)),
                        "principal-vector residual nan exceeds assert_tol 1e-08 in row 0"),
        "unitarity": (lambda: unitary_eig(np.stack([eye, np.full((2, 2), math.nan), eye])),
                      "block 1 is not unitary"),
        "reconstruction": (lambda: (patch(linalg_mod, "_eig_2x2", nan_phase),
                                    unitary_eig(np.stack([eye, eye, eye]))),
                           "reconstruction residual nan too large in block 1"),
    }
    call, message = cases[check]
    with pytest.raises(ValueError, match=message) as caught:
        call()
    if check in ("unitarity", "reconstruction"):
        assert caught.value.block == 1


def test_a_side_with_no_generators():
    """Side A has no generators: its span is {0}, so R_A = -I and W = -R_B.

    Its projections are those of the rank-0 dense projector, side B's are
    the dense projector's, and the report, the reflection-factorization
    check and the decision run on it and agree with the dense oracles.
    """
    rng = np.random.default_rng(5)
    dim = 5
    b = np.linalg.qr(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))[0]
    b_vecs = [np.concatenate([[0.0], col]) for col in b.T]
    psi0 = (_unit(dim, 0) + _unit(dim, 1)) / math.sqrt(2)
    inst = instance_from_sets(dim, psi0, a_sets={"a": []},
                              b_sets={"b": b_vecs[:1], "c": b_vecs[1:]})
    assert inst.structure.sides["A"].shape == (dim, 0) and inst.projector("A").rank == 0
    for vec in (psi0, rng.normal(size=dim) + 1j * rng.normal(size=dim)):
        for side in ("A", "B"):
            p = inst.projector(side).matrix
            assert abs(inst.projection_norm_sq(side, vec)
                       - np.linalg.norm(p @ vec) ** 2) <= ORACLE_TOL
            assert abs(inst.membership_residual(side, vec)
                       - np.linalg.norm(vec - p @ vec)) <= ORACLE_TOL
        assert inst.projection_norm_sq("A", vec) == 0.0
    report = inst.well_formedness_report()
    assert report["gram_offdiag_A"] == 0.0
    assert abs(report["psi0_overlap_B"]
               - np.linalg.norm(inst.projector("B").matrix @ psi0)) <= ORACLE_TOL
    assert report["passed"] is False  # psi0 overlaps span B
    assert verify_reflection_factorization(inst) <= DEFAULT_TOL.assert_tol
    assert np.max(np.abs(inst.walk_unitary() + reflection(inst.projector("B")))) <= ORACLE_TOL
    decision = decide(inst, c_minus=13.0, c_plus=4.0)
    assert (decision.rank_a, decision.rank_b, decision.dim_decided) == (0, 2, dim)
    p0 = dense_zero_phase_overlap(dense_walk_spectrum(inst), decision.theta_star)
    assert abs(decision.p0 - p0) <= ORACLE_TOL
    assert decision.verdict == ("positive" if p0 >= decision.threshold else "negative")
    _assert_matches_dense_oracle(inst)


def test_negative_case_suppression():
    """Zero-phase overlap obeys the effective-gap bound at three cutoffs."""
    for n, omega in ((4, 4.0), (8, 8.0), (4, 1.5)):
        inst = build_simple_instance(OracleSpec(size=n, marked=frozenset()), omega)
        c_minus = 1.0 + 3.0 * omega
        for scale in (0.25, 0.5, 1.0):
            theta = scale / math.sqrt(c_minus)
            p0 = zero_phase_overlap(inst, theta)
            assert p0 <= theta ** 2 * c_minus / 4.0 + 1e-6


@pytest.mark.parametrize("regime", REGIMES)
def test_regime_pair_constants_follow_the_rule(regime, small_pair, monkeypatch):
    """RegimePair against its rule, written out from the layers it calls."""
    marked, empty = small_pair
    pair, = regime_pairs(marked, empty, [regime])
    w_pos = regime_parameters(regime, *stopping_moments(marked), 2, marked=(0,))
    w_neg = regime_parameters(regime, *stopping_moments(empty), 2,
                              mu=w_pos.mu, k=w_pos.k)
    # exactly rounded: fsum of every squared real and imaginary part
    c_plus = math.fsum(x * x for x in
                       general_positive_witness(marked, w_pos).vector.view(float))
    c_minus_closed = general_negative_witness(empty, w_neg).closed_norm_sq

    assert (pair.weights_neg.mu, pair.weights_neg.k) == (w_pos.mu, w_pos.k)
    for got, want in ((pair.weights_pos, w_pos), (pair.weights_neg, w_neg)):
        assert np.array_equal(got.omega, want.omega)
        assert np.array_equal(got.alpha, want.alpha)
        assert got.beta == want.beta
    assert pair.c_plus == c_plus
    assert pair.c_plus_cap == (6.0 if regime == "ii-c" else 8.0)
    assert pair.c_minus == max(c_minus_closed, c_plus, 1.0)
    assert pair.c_plus_decide == min(c_plus, 50.0) == c_plus
    assert dataclasses.replace(pair, c_plus=80.0).c_plus_decide == 50.0
    # C_minus >= c_plus on real pairs; a shrunken closed norm shows the max
    rows = inst_mod.general_negative_witnesses
    monkeypatch.setattr(inst_mod, "general_negative_witnesses", lambda *a: [
        dataclasses.replace(w, closed_norm_sq=0.5) for w in rows(*a)])
    assert regime_pairs(marked, empty, [regime])[0].c_minus == max(c_plus, 1.0)


def test_regime_pair_reaches_layers_through_their_modules(monkeypatch, small_pair):
    """Wrappers installed on vtsearch.instances' attributes see every call.

    The benchmark's tracer wraps module attributes this way; names imported
    into phase would bypass the wrappers and read zero calls.
    """
    calls = {}
    for name in ("regime_parameters", "build_general_instances",
                 "general_positive_witnesses", "general_negative_witnesses"):
        def counted(*args, _name=name, _fn=getattr(inst_mod, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(inst_mod, name, counted)
    pair, = regime_pairs(*small_pair, ["ii-b"])
    decisions = pair.decide()
    assert calls == {"regime_parameters": 2, "build_general_instances": 2,
                     "general_positive_witnesses": 1, "general_negative_witnesses": 1}
    assert decisions["marked"].verdict == "positive"
    assert decisions["empty"].verdict == "negative"


def test_positive_witness_is_fixed_by_walk(small_pair):
    pair, = regime_pairs(*small_pair, ["i-a"])
    inst = pair.instances()["marked"]
    unit = pair.positive.vector / np.linalg.norm(pair.positive.vector)
    assert np.max(np.abs(inst.walk_unitary() @ unit - unit)) < 1e-8


def _assert_matches_dense_oracle(inst):
    """p0, the QPE prediction and the QPE distribution against the full walk."""
    spectrum = dense_walk_spectrum(inst)
    for theta in THETA_STARS:
        assert abs(zero_phase_overlap(inst, theta)
                   - dense_zero_phase_overlap(spectrum, theta)) <= ORACLE_TOL
    for bits in (1, 3, 5):
        assert abs(qpe_zero_prediction(inst, bits)
                   - dense_qpe_zero_prediction(spectrum, bits)) <= ORACLE_TOL
        assert np.max(np.abs(qpe_simulate(inst, bits).distribution
                             - dense_qpe_distribution(inst, bits))) <= ORACLE_TOL


@given(seed=st.integers(0, 2**31 - 1),
       shape=st.sampled_from([(1, 2, 2), (1, 3, 2), (2, 2, 2)]),
       regime=st.sampled_from(REGIMES), marked=st.booleans())
@settings(max_examples=15, deadline=None)
def test_compressed_spectrum_matches_dense_general(seed, shape, regime, marked):
    """The principal-angle engine reproduces the dense Schur engine."""
    pair, = regime_pairs(*subroutine_pair(seed, *shape), [regime])
    _assert_matches_dense_oracle(pair.instances()["marked" if marked else "empty"])


@given(n=st.integers(2, 24), marked=st.booleans(),
       omega_scale=st.floats(0.25, 4.0))
@settings(max_examples=20, deadline=None)
def test_compressed_spectrum_matches_dense_simple(n, marked, omega_scale):
    oracle = OracleSpec(size=n, marked=frozenset({0}) if marked else frozenset())
    _assert_matches_dense_oracle(build_simple_instance(oracle, omega_scale * n))


@pytest.mark.parametrize("seed", range(4))
def test_compressed_spectrum_matches_dense_on_complex_spans(seed):
    """Random complex spans and psi0: every overlap's phase must be right."""
    rng = np.random.default_rng(seed)
    dim, k_a, k_b = 12, 4, 5

    def orthogonal_generators(k):
        g = rng.normal(size=(dim, k)) + 1j * rng.normal(size=(dim, k))
        q, _ = np.linalg.qr(g)
        return list((q * rng.uniform(0.5, 2.0, size=k)).T)

    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    inst = _toy_instance(orthogonal_generators(k_a), orthogonal_generators(k_b),
                         psi0 / np.linalg.norm(psi0))
    _assert_matches_dense_oracle(inst)


@given(seed=st.integers(0, 2**31 - 1),
       reached=st.sets(st.sampled_from([0, 1, 2, "free"]), min_size=1),
       shared=st.booleans())
@settings(max_examples=25, deadline=None)
def test_restriction_to_psi0_components_matches_dense(seed, reached, shared):
    """psi0 meeting several components, or rows no generator touches.

    Three components with interleaved rows and two free rows; with shared,
    each component's spans meet in a line.  The restriction keeps exactly
    the reached rows in order and each set's reached generators in order,
    and the engine on it matches the dense walk of the full instance.
    """
    rng = np.random.default_rng(seed)
    sizes, free = (3, 4, 2), 2
    dim = sum(sizes) + free
    *blocks, free_rows = np.split(rng.permutation(dim), np.cumsum(sizes))

    def columns(k, count, first=None):
        g = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        if first is not None:
            g[:, 0] = first
        q, _ = np.linalg.qr(g)
        return q[:, :count] * rng.uniform(0.5, 2.0, size=count)

    a_vecs, b_vecs, owner_a, owner_b = [], [], [], []
    for block, rows in enumerate(blocks):
        k = len(rows)
        qa = columns(k, rng.integers(1, k))
        qb = columns(k, rng.integers(1, k), qa[:, 0] if shared else None)
        for q, vecs, owner in ((qa, a_vecs, owner_a), (qb, b_vecs, owner_b)):
            for col in q.T:
                v = np.zeros(dim, dtype=complex)
                v[rows] = col
                vecs.append(v)
                owner.append(block)
    support = np.concatenate([free_rows if r == "free" else blocks[r]
                              for r in sorted(reached, key=str)])
    psi0 = np.zeros(dim, dtype=complex)
    psi0[support] = [1, 1j] @ rng.normal(size=(2, len(support)))
    # each side in two named sets that interleave the components
    strides = {"odd": slice(1, None, 2), "even": slice(0, None, 2)}
    inst = instance_from_sets(dim=dim, psi0=psi0 / np.linalg.norm(psi0),
                              a_sets={k: a_vecs[s] for k, s in strides.items()},
                              b_sets={k: b_vecs[s] for k, s in strides.items()})

    part = inst.psi0_component()
    rows = np.sort(support)
    assert part.dim == len(rows)
    assert np.array_equal(part.psi0, inst.psi0[rows])
    for side, vecs, owner in (("A", a_vecs, owner_a), ("B", b_vecs, owner_b)):
        assert list(part.structure.sets[side]) == list(strides)
        for name, stride in strides.items():
            kept = [v[rows] for v, o in zip(vecs[stride], owner[stride])
                    if o in reached]
            got = part.set_vectors(side, name)
            assert len(got) == len(kept)
            assert all(np.array_equal(g, k) for g, k in zip(got, kept))
    _assert_matches_dense_oracle(inst)


def test_restriction_follows_a_deep_chain():
    """psi0 reaches the far end of a chain 42 generator hops deep.

    A generators join rows (2j, 2j + 1) and B generators rows (2j + 1,
    2j + 2) of the first chain, so psi0 on its row 0 meets row 2j only
    after 2j hops; a second chain never meets psi0.  Row labels are
    shuffled so the chains interleave, and each side's set interleaves
    the two chains' generators.
    """
    rng = np.random.default_rng(3)
    links = (21, 3)                      # A (and B) generators per chain
    dim = sum(2 * k + 1 for k in links)
    label = rng.permutation(dim)
    gens = {"A": [], "B": []}           # (position in its set, chain, vector)
    start = 0
    for chain, k in enumerate(links):
        for j in range(k):
            for side, first in (("A", 2 * j), ("B", 2 * j + 1)):
                v = np.zeros(dim, dtype=complex)
                v[label[start + first:start + first + 2]] = (
                    rng.normal(size=2) + 1j * rng.normal(size=2))
                gens[side].append((j + 0.5 * chain, chain, v))
        start += 2 * k + 1
    gens = {side: sorted(g, key=lambda x: x[0]) for side, g in gens.items()}
    vecs = {side: [v for _, _, v in g] for side, g in gens.items()}
    owner = {side: [c for _, c, _ in g] for side, g in gens.items()}
    assert owner["A"][:2] == [0, 1]      # the chains interleave
    psi0 = np.zeros(dim, dtype=complex)
    psi0[label[0]] = 1.0
    inst = instance_from_sets(dim=dim, psi0=psi0, a_sets={"a": vecs["A"]},
                              b_sets={"b": vecs["B"]})

    part = inst.psi0_component()
    rows = np.sort(label[:2 * links[0] + 1])
    assert part.dim == len(rows)
    assert np.array_equal(part.psi0, psi0[rows])
    for side, name in (("A", "a"), ("B", "b")):
        kept = [v[rows] for v, o in zip(vecs[side], owner[side]) if o == 0]
        got = part.set_vectors(side, name)
        assert len(got) == len(kept) == links[0]
        assert all(np.array_equal(g, k) for g, k in zip(got, kept))
    _assert_matches_dense_oracle(inst)


def _complex_copy(inst):
    """The instance with its psi0 and each side's values cast to complex."""
    return PEInstance(inst.structure, inst.psi0.astype(complex),
                      {side: v.astype(complex) for side, v in inst.values.items()})


def _phase_clusters(spectrum):
    """(mean phase, weight) of each cluster of the spectrum's phases."""
    return [(float(np.mean(spectrum.phases[c])), float(np.sum(spectrum.weights[c])))
            for c in cluster_phases(spectrum.phases, DEFAULT_TOL.eig_cluster_tol)]


@pytest.mark.parametrize("n, omega_scale", [(4, 1.0), (16, 0.37), (64, 1.0), (64, 2.9)])
@pytest.mark.parametrize("marked", [frozenset(), frozenset({0}), frozenset({0, 3})])
def test_real_simple_instance_matches_its_complex_copy(n, omega_scale, marked):
    """Real arithmetic on a simple-loop instance changes no decision figure."""
    real = build_simple_instance(OracleSpec(size=n, marked=marked), omega_scale * n)
    cplx = _complex_copy(real)
    assert cplx.span_basis("A").dtype == np.complex128
    assert real.span_basis("A").dtype == np.float64
    for theta in THETA_STARS:
        assert abs(zero_phase_overlap(real, theta)
                   - zero_phase_overlap(cplx, theta)) <= ORACLE_TOL
    got, want = (_walk_spectrum(inst) for inst in (real, cplx))
    assert abs(got.min_angle - want.min_angle) <= ORACLE_TOL
    got, want = _phase_clusters(got), _phase_clusters(want)
    assert len(got) == len(want)
    for (phase, weight), (phase_c, weight_c) in zip(got, want):
        assert abs(phase - phase_c) <= ORACLE_TOL
        assert abs(weight - weight_c) <= ORACLE_TOL


def test_spectrum_weights_sum_to_one_on_built_instances(small_pair):
    """Every weight is computed on its own, none as 1 minus the others."""
    built = [build_simple_instance(OracleSpec(size=n, marked=m), float(n))
             for n in (4, 80) for m in (frozenset(), frozenset({1}))]
    for pair in regime_pairs(*small_pair, REGIMES):
        built.extend(pair.instances().values())
    built.extend(regime_pairs(*subroutine_pair(0, 16, 4, 4), ["ii-b"])[0]
                 .instances().values())
    for inst in built:
        spectrum = _walk_spectrum(inst)
        assert np.all(spectrum.weights >= 0.0)
        assert abs(float(np.sum(spectrum.weights)) - 1.0) <= ORACLE_TOL
        if phase_mod._star_of(inst.structure).hub is None:
            # one block: a phase-pi entry per side, then the complement's phase 0
            assert list(spectrum.phases[-3:]) == [math.pi, math.pi, 0.0]
        else:
            # on the star: one secular root per gap, all distinct and none
            # at 0, then the rest of psi0's own group at phase 0
            roots = spectrum.phases[:-1]
            assert spectrum.phases[-1] == 0.0 and np.all(roots != 0.0)
            assert len(np.unique(roots)) == len(roots)
    # both paths ran: n = 4 and (2, 2, 2) as one block, n = 80 and (16, 4, 4) on the star
    paths = {phase_mod._star_of(inst.structure).hub for inst in built}
    assert paths == {None, 0}


@pytest.mark.parametrize("straddle", [(-0.5, 0.4), (-0.4, 0.5)])
def test_zero_phase_weight_matches_the_cluster_oracle(straddle):
    """Clusters summed with reduceat against the per-cluster loop.

    The spectrum holds a chain of close phases wider than the cluster
    tolerance, two clusters straddling the cutoff theta* + eig_cluster_tol
    (one at each sign, their means on opposite sides of the cutoff), a
    cluster of more than eight phases, and more than eight kept clusters.
    """
    rng = np.random.default_rng(5)
    tol = DEFAULT_TOL.eig_cluster_tol
    theta_star = 0.2
    cut = theta_star + tol
    # the same offsets at +-cut put one cluster's mean inside, the other's out
    groups = [0.1 + 0.9 * tol * np.arange(6),          # one chain, 4.5 tol wide
              cut + np.array(straddle) * tol,
              -cut + np.array(straddle) * tol,
              np.full(11, 0.05), np.full(3, np.pi), np.zeros(4),
              rng.uniform(0.3, 3.0, size=20)]
    # twelve well separated clusters inside the cutoff, some of two phases
    groups += [x + np.array([0.0, 0.2 * tol])[:1 + k % 2]
               for k, x in enumerate(np.linspace(-0.18, 0.18, 12) + 0.003)]
    phases = rng.permutation(np.concatenate(groups))
    weights = rng.uniform(0.0, 1.0, size=len(phases))
    weights /= weights.sum()
    spectrum = WalkSpectrum(phases=phases, weights=weights, dim=0, rank_a=0,
                            rank_b=0, min_angle=None)
    clusters = cluster_phases(phases, tol)
    means = [abs(float(np.mean(phases[c]))) for c in clusters]
    straddling = [m for c, m in zip(clusters, means)
                  if np.min(np.abs(phases[c])) <= cut < np.max(np.abs(phases[c]))]
    assert len(straddling) == 2
    assert min(straddling) <= cut < max(straddling)
    assert sum(m <= cut for m in means) > 8 and max(map(len, clusters)) > 8
    for theta in (*THETA_STARS, theta_star, 0.1 + 2 * tol, 0.0, math.pi):
        got = _zero_phase_weight(spectrum, theta)
        want = dense_zero_phase_overlap((phases, weights), theta)
        assert abs(got - want) <= ORACLE_TOL, theta


def test_decides_general_instance_past_the_dense_cap():
    """(n, T, Z) = (16, 4, 4), d = 9520: decided on psi0's component alone."""
    pair, = regime_pairs(*subroutine_pair(0, 16, 4, 4), ["ii-b"])
    decisions = pair.decide()
    assert decisions["marked"].verdict == "positive"
    assert decisions["empty"].verdict == "negative"
    for label, inst in pair.instances().items():
        assert decisions[label].dim == inst.dim == 9520 > DIM_CAP
        # the builders store no exact zeros of the step unitaries, so only
        # the labels a generator touches join it to a component
        assert decisions[label].dim_decided == 593 < DIM_CAP
        with pytest.raises(DimensionCapError):
            inst.walk_unitary()


def _oracle_cases():
    for shape in ((2, 2, 2), (4, 4, 4), (16, 2, 2), (16, 4, 4)):
        for regime in REGIMES:
            yield pytest.param(("general", shape, regime), id=f"{shape}-{regime}")
    for n in (4, 16, 64, 80):
        yield pytest.param(("simple", n), id=f"simple-{n}")
    for shape in ((2, 2, 2), (4, 4, 4)):
        yield pytest.param(("stacked", shape), id=f"stacked-{shape}")


def _oracle_instances(case):
    """(label, instance, c_minus, c_plus) for both sides of one case.

    A stacked case is every regime's row of both sides' stacks, marked
    rows first, each side decided in one pass.
    """
    if case[0] != "simple":
        shape, regimes = case[1], case[2:] or REGIMES
        pairs = regime_pairs(*subroutine_pair(0, *shape), regimes)
        return [(label, pair.built[label], pair.c_minus, pair.c_plus_decide)
                for label in ("marked", "empty") for pair in pairs]
    n = case[1]
    return [(label, build_simple_instance(OracleSpec(size=n, marked=marked), float(n)),
             1.0 + 3.0 * n, 4.0)
            for label, marked in (("marked", frozenset({0})), ("empty", frozenset()))]


def _engine_blocks(instances, monkeypatch):
    """The engine's spectra and the rotation stacks it hands to unitary_eig, joined.

    The instances are taken in order; each pass hands over its rows'
    planes one row after another, so the joined stack lists every
    instance's planes in that order.
    """
    seen = []

    def capture(blocks):
        seen.append(blocks)
        return eig(blocks)

    eig = phase_mod.unitary_eig
    with monkeypatch.context() as m:
        m.setattr(phase_mod, "unitary_eig", capture)
        spectra = [_walk_spectrum(inst) for inst in instances]
    return spectra, np.concatenate(seen)


@pytest.mark.parametrize("case", _oracle_cases())
def test_closed_form_planes_match_the_reflected_engine(case, monkeypatch):
    """Closed-form block rotations against W0's compression and the reflected engine.

    The planes are rebuilt block by block on dense block bases from the
    SVD of the same block cross Gram, so they are the engine's; W0's
    compression on them, computed with dense reflections, must be the
    engine's rotation by -2 theta_j.  Verdicts equal those of the
    principal-angle engine on dense span bases of the whole component,
    and p0 at every cutoff agrees with it within 1e-12.  Stacked rows take
    their planes from their pass's one stack of rotations, row after row.
    """
    cases = _oracle_instances(case)
    spectra, stacked = _engine_blocks([inst for _, inst, _, _ in cases], monkeypatch)
    start = 0
    for (label, inst, c_minus, c_plus), spectrum in zip(cases, spectra):
        compressions = star_block_compressions(inst)
        blocks = stacked[start:start + len(compressions)]
        start += len(compressions)
        assert blocks.shape == compressions.shape and len(blocks) > 0
        assert np.max(np.abs(blocks - compressions)) <= ORACLE_TOL, label

        reference = reflected_walk_spectrum(inst)
        for theta in THETA_STARS:
            assert abs(_zero_phase_weight(spectrum, theta)
                       - dense_zero_phase_overlap(
                           (reference.phases, reference.weights), theta)) <= ORACLE_TOL
        decision = decide(inst, c_minus=c_minus, c_plus=c_plus)
        p0 = dense_zero_phase_overlap((reference.phases, reference.weights),
                                      decision.theta_star)
        assert abs(decision.p0 - p0) <= ORACLE_TOL
        assert decision.verdict == ("positive" if p0 >= decision.threshold
                                    else "negative")
        assert decision.verdict == ("positive" if label == "marked" else "negative")
    assert start == len(stacked)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("shape", [(2, 2, 2), (4, 4, 4), (16, 2, 2), (16, 4, 4)], ids=str)
def test_stacked_rows_have_the_bytes_of_lone_rows(shape, seed):
    """Every regime's row of a ten-row stack against the same instance alone.

    The marked side's five rows come first, then the empty side's.
    Phases, weights, p0 at every cutoff and min_angle must have the same
    bytes; the first row's spectrum computes all ten rows in one pass.
    """
    pairs = regime_pairs(*subroutine_pair(seed, *shape), REGIMES)
    stack = pairs[0].built["marked"].stack
    assert len(stack) == 10 and pairs[4].built["empty"].stack is stack
    _walk_spectrum(pairs[0].built["marked"])
    assert sorted(stack.spectra) == list(range(10))
    for first, label in ((0, "marked"), (5, "empty")):
        rows = [pair.built[label] for pair in pairs]
        for row, inst in enumerate(rows, start=first):
            alone = PEInstance(inst.structure, inst.psi0, inst.values)
            assert inst.row == row and alone.row == 0 and len(alone.stack) == 1
            got, want = _walk_spectrum(inst), _walk_spectrum(alone)
            assert got.phases.tobytes() == want.phases.tobytes()
            assert got.weights.tobytes() == want.weights.tobytes()
            assert got.min_angle == want.min_angle
            for theta in THETA_STARS:
                assert (zero_phase_overlap(inst, theta).hex()
                        == zero_phase_overlap(alone, theta).hex())


def test_rows_past_the_entry_budget_go_in_smaller_passes(monkeypatch):
    """A budget of two rows' block working arrays decides a five-row stack two rows a pass."""
    pairs = regime_pairs(*subroutine_pair(0, 4, 4, 4), REGIMES)
    rows = [pair.built["marked"] for pair in pairs]
    InstanceStack(rows)
    monkeypatch.setattr(phase_mod, "STACK_ENTRIES",
                        2 * phase_mod.row_entries(rows[0].structure) + 1)
    spectra = rows[0].stack.spectra
    _walk_spectrum(rows[3])
    assert sorted(spectra) == [2, 3]
    _walk_spectrum(rows[4])
    assert sorted(spectra) == [2, 3, 4]
    for inst in rows:
        alone = PEInstance(inst.structure, inst.psi0, inst.values)
        assert _walk_spectrum(inst).weights.tobytes() == _walk_spectrum(alone).weights.tobytes()
    assert sorted(spectra) == list(range(5))


def test_a_secular_step_out_of_iterations_is_refused(monkeypatch):
    """Roots cut off before they converge fail the secular residual check, naming the row.

    Simple-loop n = 64 marked is decided on the star; with no secular
    iteration left, its roots are taken where the search starts them.
    """
    oracle = OracleSpec(size=64, marked=frozenset({0}))

    def decided():
        return decide(build_simple_instance(oracle, 64.0), c_minus=1.0 + 3.0 * 64, c_plus=4.0)

    assert decided().verdict == "positive"
    monkeypatch.setattr(phase_mod, "SECULAR_STEPS", 0)
    # a finite residual: the roots were taken where the last step left them
    with pytest.raises(ValueError, match=r"^secular residual \d\.\d{3}e[-+]\d+ exceeds "
                                         r"assert_tol 1e-08 in row 0$"):
        decided()


def test_a_stack_decides_instances_of_any_structure_and_dtype():
    """Rows of other structures and dtypes stacked together keep their lone bytes.

    Two simple instances of one oracle have a structure each, and a
    complex copy has other dtypes; one pass decides all three.
    """
    real = build_simple_instance(OracleSpec(size=4, marked=frozenset({0})), 4.0)
    other = build_simple_instance(OracleSpec(size=4, marked=frozenset({0})), 4.0)
    rows = [real, other, _complex_copy(real)]
    assert other.structure is not real.structure
    alone = [_walk_spectrum(PEInstance(inst.structure, inst.psi0, inst.values))
             for inst in rows]
    InstanceStack(rows)
    _walk_spectrum(rows[1])
    assert sorted(real.stack.spectra) == [0, 1, 2]
    for inst, want in zip(rows, alone):
        got = _walk_spectrum(inst)
        assert got.phases.tobytes() == want.phases.tobytes()
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.weights.dtype == want.weights.dtype
        assert got.min_angle == want.min_angle
        assert (got.dim, got.rank_a, got.rank_b) == (want.dim, want.rank_a, want.rank_b)


def _assert_lone_bytes(rows):
    """Each row's spectrum has the bytes of the same instance decided alone."""
    for inst in rows:
        got = _walk_spectrum(inst)
        want = _walk_spectrum(PEInstance(inst.structure, inst.psi0, inst.values))
        assert got.phases.tobytes() == want.phases.tobytes()
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.min_angle == want.min_angle


def _simple_rows():
    return [build_simple_instance(OracleSpec(size=n, marked=marked), float(n))
            for n in (4, 16, 64, 80) for marked in (frozenset(), frozenset({0}))]


def _general_rows():
    pairs = phase_mod.regime_pairs_of(
        [subroutine_pair(0, *shape) for shape in ((2, 2, 2), (4, 4, 4), (16, 2, 2))], REGIMES)
    return [pair.built[label] for label in ("marked", "empty") for seed in pairs
            for pair in seed]


@pytest.mark.parametrize("case", ["simple", "general", "both, split by the budget"])
def test_pooled_rows_equal_lone_rows(case, monkeypatch):
    """Rows of many structures and both dtypes decided in pooled passes keep their lone bytes.

    Simple-loop rows at n = 4, 16, 64 and 80, empty and marked; general
    rows of every regime of (2, 2, 2), (4, 4, 4) and (16, 2, 2), both
    sides, in one stack (regime_pairs_of); and all of them in one stack
    whose budget holds two of its largest rows, so it goes in several
    passes.  Phases, weights and min_angle are compared byte for byte.
    """
    passes = []
    pass_spectra = phase_mod._pass_spectra

    def counted(stack, numbers):
        passes.append(numbers)
        return pass_spectra(stack, numbers)

    monkeypatch.setattr(phase_mod, "_pass_spectra", counted)
    if case == "simple":
        rows = _simple_rows()
        InstanceStack(rows)
    elif case == "general":
        rows = _general_rows()
        assert len(rows[0].stack) == len(rows) == 30
    else:
        rows = _simple_rows() + _general_rows()
        InstanceStack(rows)
        monkeypatch.setattr(phase_mod, "STACK_ENTRIES", 2 * max(
            phase_mod.row_entries(inst.structure) for inst in rows))
    for inst in rows:
        _walk_spectrum(inst)
    # the passes tile the stack, each computed once
    assert [row for numbers in passes for row in numbers] == list(range(len(rows)))
    assert (len(passes) == 1) == (case != "both, split by the budget")
    _assert_lone_bytes(rows)


def test_blocks_are_compressed_row_by_row():
    """A row whose blocks hold the same values is decided once, whatever it is stacked with.

    The copy of the simple instance at n = 64, marked {0}, has both B
    generators of the sixth block of the unmarked pattern scaled by 2: the
    same spans, still orthogonal, but its blocks no longer hold the same
    values, so it is decided block by block.  The first row must keep the
    bytes it has alone.
    """
    inst = build_simple_instance(OracleSpec(size=64, marked=frozenset({0})), 64.0)
    star = phase_mod._star_of(inst.structure)
    pattern, = [p for p in star.patterns if p.structure.sides["B"].shape[1] == 2]
    values = {side: v.copy() for side, v in inst.values.items()}
    values["B"][inst.structure.component.entries["B"][pattern.entries["B"][5]]] *= 2.0
    copy = PEInstance(inst.structure, inst.psi0, values)
    InstanceStack([inst, copy])
    assert _walk_spectrum(inst).min_angle == 0.08283298361552206
    _assert_lone_bytes([inst, copy])


def _cross_gram(inst):
    """The oracle engine's cross Gram Q_A^H Q_B of an instance alone, k_A x k_B."""
    return cross_gram(inst.structure, inst._normalized("A"), inst._normalized("B"))


def _assert_cross_gram_is_dense_product(inst):
    part = inst.psi0_component()
    want = part.span_basis("A").conj().T @ part.span_basis("B")
    got = _cross_gram(part)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.max(np.abs(got - want), initial=0.0) <= ORACLE_TOL


def test_cross_gram_from_shared_labels_matches_the_dense_product(small_pair):
    built = [build_simple_instance(OracleSpec(size=n, marked=m), float(n))
             for n in (4, 16) for m in (frozenset(), frozenset({1}))]
    for pair in regime_pairs(*small_pair, REGIMES):
        built.extend(pair.instances().values())
    built.extend(regime_pairs(*subroutine_pair(0, 16, 4, 4), ["ii-b"])[0]
                 .instances().values())
    for inst in built:
        _assert_cross_gram_is_dense_product(inst)


def test_cross_gram_sums_several_entries_per_label():
    """Every label carries two A entries and three B entries, all complex."""
    rng = np.random.default_rng(3)
    dim = 6

    def orthogonal(k, rows):
        g = rng.normal(size=(len(rows), k)) + 1j * rng.normal(size=(len(rows), k))
        q = np.zeros((dim, k), dtype=complex)
        q[rows] = np.linalg.qr(g)[0] * rng.uniform(0.5, 2.0, size=k)
        return list(q.T)

    psi0 = _unit(dim, 0)
    inst = _toy_instance(orthogonal(2, [0, 1, 2, 3]), orthogonal(3, [1, 2, 3, 4]), psi0)
    assert cross_plan(inst.structure).left.shape == (4 * 2 * 3 - 2 * 3,)
    _assert_cross_gram_is_dense_product(inst)
    _assert_matches_dense_oracle(inst)


def test_a_moved_singular_vector_fails_the_certificate(small_pair, monkeypatch):
    """One left singular vector of row 3 moved by 1e-6 breaks C V = U Sigma there.

    The SVD of all five rows is one stacked call; the patch is in place
    before the first decision, since spectra are kept once computed.
    Every row of the stack raises, each time, naming row 3.
    """
    pairs = regime_pairs(*small_pair, REGIMES)
    svd = np.linalg.svd

    def moved(a, full_matrices=True):
        u, s, vh = svd(a, full_matrices=full_matrices)
        assert u.shape[0] == 5
        u = u.copy()
        u[3, :, 0] += 1e-6 * u[3, :, 1]
        return u, s, vh

    monkeypatch.setattr(phase_mod.np.linalg, "svd", moved)
    for pair in pairs * 2:
        with pytest.raises(ValueError, match=r"principal-vector residual \d\.\d+e-0[67] "
                                             r"exceeds assert_tol 1e-08 in row 3$"):
            decide(pair.built["marked"], c_minus=pair.c_minus, c_plus=pair.c_plus_decide)
    assert not pairs[0].built["marked"].stack.spectra
    monkeypatch.undo()
    assert all(pair.decide()["marked"].verdict == "positive" for pair in pairs)


def test_a_non_unitary_rotation_block_names_its_row(small_pair, monkeypatch):
    """unitary_eig's checks run on every row's planes, and a failure names the row.

    The marked side's rows come first in the pair's stack, so the planes
    of its rows 0 and 1 come first in the pass's one unitary_eig call.
    """
    pairs = regime_pairs(*small_pair, REGIMES)
    # each row's planes, as unitary_eig receives them from the row alone
    planes = [len(_engine_blocks([PEInstance(inst.structure, inst.psi0, inst.values)],
                                 monkeypatch)[1])
              for inst in (pair.built["marked"] for pair in pairs)]
    assert planes[2] > 0
    blocks = phase_mod._rotation_blocks
    first = planes[0] + planes[1]  # row 2's first plane

    def stretched(angles):
        out = blocks(angles)
        out[first] *= 1.0 + 1e-6
        return out

    monkeypatch.setattr(phase_mod, "_rotation_blocks", stretched)
    with pytest.raises(NonUnitaryError, match=f"block {first} .* in row 2$"):
        decide(pairs[0].built["empty"], c_minus=pairs[0].c_minus,
               c_plus=pairs[0].c_plus_decide)
    assert pairs[0].built["empty"].row == 5


def test_decide_builds_no_dense_basis_or_operator(monkeypatch):
    """Both sides of (16, 4, 4) decided with every densifying path refused.

    The pair is built after the paths are refused, so its spectra, kept
    once computed, are computed under the refusal.
    """
    specs = subroutine_pair(0, 16, 4, 4)

    def refuse(*args, **kwargs):
        raise AssertionError("a dense path was taken")

    for owner, name in ((PEInstance, "span_basis"), (PEInstance, "generators"),
                        (PEInstance, "projector"), (PEInstance, "walk_unitary"),
                        (inst_mod, "_dense")):
        monkeypatch.setattr(owner, name, refuse)
    pairs = regime_pairs(*specs, REGIMES)
    assert not pairs[0].built["marked"].stack.spectra
    for pair in pairs:
        got = {label: decision.verdict for label, decision in pair.decide().items()}
        assert got == {"marked": "positive", "empty": "negative"}


def test_intersecting_spans_count_as_zero_phase():
    """A shared direction of span A and span B is a phase-0 eigenvector."""
    phi = 0.3
    b2 = math.cos(phi) * _unit(5, 2) + math.sin(phi) * _unit(5, 3)
    # span A = {e1, e2}, span B = {e1, b2}: intersection e1, angle phi,
    # complement {e0, e4}
    psi0 = (_unit(5, 0) + _unit(5, 1) + _unit(5, 3)) / math.sqrt(3.0)
    inst = _toy_instance([_unit(5, 1), _unit(5, 2)], [_unit(5, 1), b2], psi0)
    assert zero_phase_overlap(inst, 0.1) == pytest.approx(2.0 / 3.0, abs=ORACLE_TOL)
    assert zero_phase_overlap(inst, 1.0) == pytest.approx(1.0, abs=ORACLE_TOL)
    _assert_matches_dense_oracle(inst)


def _weighted(spectrum):
    """(phase, weight) pairs carrying weight, sorted by phase."""
    keep = spectrum.weights > 1e-15
    return sorted(zip(spectrum.phases[keep], spectrum.weights[keep]))


@pytest.mark.parametrize("theta", [1e-6, 1e-3, 0.3, math.pi / 2 - 1e-6])
def test_single_plane_rotates_by_twice_the_principal_angle(theta):
    """span A = e0, span B = cos(theta) e0 + sin(theta) e1, psi0 = e0."""
    b = math.cos(theta) * _unit(2, 0) + math.sin(theta) * _unit(2, 1)
    inst = _toy_instance([_unit(2, 0)], [b], _unit(2, 0))
    spectrum = _walk_spectrum(inst)
    (lo, w_lo), (hi, w_hi) = _weighted(spectrum)
    assert lo == pytest.approx(-2 * theta, abs=ORACLE_TOL)
    assert hi == pytest.approx(2 * theta, abs=ORACLE_TOL)
    assert w_lo == pytest.approx(0.5, abs=ORACLE_TOL)
    assert w_hi == pytest.approx(0.5, abs=ORACLE_TOL)
    assert spectrum.min_angle == pytest.approx(theta, abs=ORACLE_TOL)
    for theta_star in (*THETA_STARS, theta, 3 * theta):
        expected = 1.0 if 2 * theta <= theta_star else 0.0
        assert zero_phase_overlap(inst, theta_star) == pytest.approx(
            expected, abs=ORACLE_TOL)
    for bits in (1, 3, 5):
        assert qpe_zero_prediction(inst, bits) == pytest.approx(
            qpe_kernel(2 * theta, bits), abs=ORACLE_TOL)
    _assert_matches_dense_oracle(inst)


@pytest.mark.parametrize("wider", ["A", "B"])
def test_unpaired_principal_vectors_have_phase_pi(wider):
    """The wider span's directions orthogonal to the other span get phase pi."""
    phi = 0.4
    tilted = math.cos(phi) * _unit(5, 0) + math.sin(phi) * _unit(5, 3)
    wide, narrow = [_unit(5, 0), _unit(5, 1)], [tilted]
    a_vecs, b_vecs = (wide, narrow) if wider == "A" else (narrow, wide)
    # e1 lies in the wider span only, e4 outside both spans, and e0 splits
    # evenly over the +-2 phi eigenvectors of the plane span{e0, e3}
    psi0 = (_unit(5, 0) + _unit(5, 1) + _unit(5, 4)) / math.sqrt(3.0)
    inst = _toy_instance(a_vecs, b_vecs, psi0)
    spectrum = _walk_spectrum(inst)
    assert spectrum.dim == 4  # e2 is touched by no generator and not by psi0
    assert (spectrum.rank_a, spectrum.rank_b) == ((2, 1) if wider == "A" else (1, 2))
    (lo, w_lo), (zero, w_zero), (hi, w_hi), (pi, w_pi) = _weighted(spectrum)
    assert (zero, pi) == (0.0, math.pi)
    assert lo == pytest.approx(-2 * phi, abs=ORACLE_TOL)
    assert hi == pytest.approx(2 * phi, abs=ORACLE_TOL)
    assert w_lo == pytest.approx(1 / 6, abs=ORACLE_TOL)
    assert w_hi == pytest.approx(1 / 6, abs=ORACLE_TOL)
    assert w_zero == pytest.approx(1 / 3, abs=ORACLE_TOL)
    assert w_pi == pytest.approx(1 / 3, abs=ORACLE_TOL)
    assert spectrum.min_angle == pytest.approx(phi, abs=ORACLE_TOL)
    assert zero_phase_overlap(inst, 0.1) == pytest.approx(1 / 3, abs=ORACLE_TOL)
    _assert_matches_dense_oracle(inst)


def test_qpe_identity_walk():
    inst = _toy_instance([_unit(3, 1)], [_unit(3, 2)], _unit(3, 0))
    for bits in (1, 3, 5):
        out = qpe_simulate(inst, bits)
        assert out.p_zero == pytest.approx(1.0, abs=1e-10)
        assert out.distribution.sum() == pytest.approx(1.0, abs=1e-10)


def test_qpe_agrees_with_kernel_prediction():
    inst = build_simple_instance(OracleSpec(size=4, marked=frozenset()), 4.0)
    c_minus = 13.0
    bits = register_bits_for(c_minus)
    out = qpe_simulate(inst, bits)
    assert abs(out.p_zero - qpe_zero_prediction(inst, bits)) < 1e-10
    assert out.distribution.sum() == pytest.approx(1.0, abs=1e-10)
    # positive case: register-0 mass stays above the decision threshold
    inst_m = build_simple_instance(OracleSpec(size=4, marked=frozenset({0})), 4.0)
    out_m = qpe_simulate(inst_m, bits)
    assert out_m.p_zero >= 1 / 8
    assert abs(out_m.p_zero - qpe_zero_prediction(inst_m, bits)) < 1e-10


def test_qpe_kernel_endpoints():
    assert qpe_kernel(0.0, 4) == 1.0
    m = 2 ** 4
    assert qpe_kernel(2 * math.pi / m, 4) == pytest.approx(0.0, abs=1e-12)


def test_qpe_guards_register_size():
    inst = _toy_instance([_unit(2, 1)], [_unit(2, 1)], _unit(2, 0))
    with pytest.raises(ValueError):
        qpe_simulate(inst, 0)
    with pytest.raises(ValueError):
        qpe_simulate(inst, 21)


def test_register_bits_for_scaling():
    assert register_bits_for(1.0) == 3
    assert register_bits_for(13.0) >= 5
    assert register_bits_for(1e-6) >= 1


def _reflection_residuals(inst):
    """The library's sparse residual and the dense oracle's, in that order."""
    return (verify_reflection_factorization(inst),
            dense_reflection_factorization_residual(inst))


def test_reflection_factorization_on_built_instances(small_pair):
    tol = DEFAULT_TOL.assert_tol
    for marked in (frozenset({1}), frozenset()):
        simple = build_simple_instance(OracleSpec(size=4, marked=marked), 4.0)
        assert max(_reflection_residuals(simple)) <= tol
    for pair in regime_pairs(*small_pair, REGIMES):
        for general in pair.instances().values():
            assert max(_reflection_residuals(general)) <= tol


def test_reflection_factorization_fails_for_merged_sets():
    """Splitting one side into non-orthogonal groups breaks the identity."""
    inst = build_simple_instance(OracleSpec(size=4, marked=frozenset({1})), 4.0)
    launch, check = inst.set_vectors("A", "launch"), inst.set_vectors("A", "check")
    query, absorb = inst.set_vectors("B", "query"), inst.set_vectors("B", "absorb")
    # "launch" overlaps the query transitions: grouping them with the check
    # vectors on one side and the absorbs on the other is not orthogonal
    broken = instance_from_sets(dim=inst.dim, psi0=inst.psi0,
                                a_sets={"bad1": launch + query, "bad2": check},
                                b_sets={"query": query, "absorb": absorb})
    sparse_resid, dense_resid = _reflection_residuals(broken)
    assert sparse_resid > 0.1 and dense_resid > 0.1
    # the decision engine's basis is the normalized generators: it refuses
    # a side whose generators are not pairwise orthogonal
    with pytest.raises(ValueError, match="side A"):
        broken.span_basis("A")
    with pytest.raises(ValueError, match="side A"):
        decide(broken, c_minus=13.0, c_plus=4.0)


def test_reflection_factorization_ignores_overlaps_within_a_set():
    """A set reflection is that of the set's span, whatever its generators."""
    inst = build_simple_instance(OracleSpec(size=4, marked=frozenset({1})), 4.0)
    check = inst.set_vectors("A", "check")
    within = instance_from_sets(dim=inst.dim, psi0=inst.psi0,
                                a_sets={"launch": inst.set_vectors("A", "launch"),
                                        "check": check + [check[0] + check[1]]},
                                b_sets={k: inst.set_vectors("B", k)
                                        for k in inst.structure.sets["B"]})
    assert within.gram_offdiagonal_residual("A") == pytest.approx(2.0)
    assert max(_reflection_residuals(within)) <= DEFAULT_TOL.assert_tol


def test_span_basis_rejects_overlaps_within_a_set():
    """The orthonormality check reads every shared-label pair of a side.

    The reflection factorization ignores overlaps within a set, but the
    engine's basis is the normalized generators, so it must not.
    """
    inst = build_simple_instance(OracleSpec(size=4, marked=frozenset({1})), 4.0)
    check = inst.set_vectors("A", "check")
    tilted = check[0] + 1e-6 * check[1]
    within = instance_from_sets(dim=inst.dim, psi0=inst.psi0,
                                a_sets={"launch": inst.set_vectors("A", "launch"),
                                        "check": check + [tilted]},
                                b_sets={k: inst.set_vectors("B", k)
                                        for k in inst.structure.sets["B"]})
    assert verify_reflection_factorization(within) == 0.0
    with pytest.raises(ValueError, match="side A: normalized generators"):
        within.span_basis("A")
    with pytest.raises(ValueError, match="side A: normalized generators"):
        decide(within, c_minus=13.0, c_plus=4.0)
    assert within.span_basis("B").shape[1] == len(inst.generators("B"))


def test_reflection_factorization_past_the_dense_cap():
    """n = 1024, d = 8200: checked on the sparse Gram, no d x d matrix."""
    inst = build_simple_instance(OracleSpec(size=1024, marked=frozenset({0})),
                                 1024.0)
    assert inst.dim == 8200 > DIM_CAP
    assert verify_reflection_factorization(inst) == 0.0
    with pytest.raises(DimensionCapError):
        inst.projector("A")


def test_span_basis_rejects_vanishing_generators():
    inst = _toy_instance([_unit(3, 1)], [_unit(3, 2), 1e-11 * _unit(3, 0)],
                         _unit(3, 0))
    assert inst.span_basis("A").shape == (3, 1)
    with pytest.raises(ValueError, match="side B"):
        inst.span_basis("B")


def test_cached_results_follow_the_tolerance_policy():
    """Cached checks and projectors are those of the one fixed policy."""
    # side A's normalized generators overlap by 1e-6, past assert_tol
    tilted = _unit(3, 1) + 1e-6 * _unit(3, 0)
    inst = _toy_instance([_unit(3, 0), tilted / np.linalg.norm(tilted)],
                         [_unit(3, 2)], (_unit(3, 0) + _unit(3, 2)) / math.sqrt(2))
    for _ in range(2):  # a failed check is not cached as a pass
        with pytest.raises(ValueError, match="side A: normalized generators"):
            decide(inst, 4.0, 2.0)

    # a stack of three rows of one structure, only row 1 not orthonormal:
    # every row shares row 1's failed pass, each time, and nothing is kept
    good = _toy_instance([_unit(3, 0) + _unit(3, 1), _unit(3, 1) - _unit(3, 0)],
                         [_unit(3, 2)], (_unit(3, 0) + _unit(3, 2)) / math.sqrt(2))
    bad_values = good.values["A"].copy()
    bad_values[-1] += 2e-6
    rows = [good, PEInstance(good.structure, good.psi0,
                             {"A": bad_values, "B": good.values["B"]}),
            PEInstance(good.structure, good.psi0,
                       {side: v.copy() for side, v in good.values.items()})]
    InstanceStack(rows)
    for row in (0, 2, 1, 0, 2):
        with pytest.raises(ValueError, match="side A: normalized generators are not "
                                             r"orthonormal, residual .* in row 1$"):
            decide(rows[row], 4.0, 2.0)
    assert not good.stack.spectra

    # 1e-7 apart is above rank_tol, so the SVD projector keeps both directions
    near_parallel = _toy_instance([_unit(3, 0), _unit(3, 0) + 1e-7 * _unit(3, 1)],
                                  [_unit(3, 2)], _unit(3, 0))
    assert near_parallel.projector("A").rank == 2


def test_simple_witness_report_roundtrip():
    oracle = OracleSpec(size=4, marked=frozenset({0}))
    inst = build_simple_instance(oracle, 4.0)
    report = verify_witnesses(inst, simple_witnesses(oracle, 4.0))
    payload = report.to_jsonable()
    assert payload["kind"] == "positive"
    assert payload["norm_sq_closed"] == pytest.approx(4.0)


def _oracle_p0_cases():
    for shape in ((2, 2, 2), (4, 2, 2), (16, 4, 4)):
        yield pytest.param(("stacked", shape), id=f"{shape}")
    for n in (4, 16, 64, 80):
        yield pytest.param(("simple", n), id=f"simple-{n}")


@pytest.fixture
def on_the_star(monkeypatch):
    """Every component with a hub decided on the star, small ones too."""
    monkeypatch.setattr(phase_mod, "STAR_COLUMNS", 0)


@pytest.mark.parametrize("star_everywhere", [False, True], ids=["by-size", "star"])
@pytest.mark.parametrize("case", _oracle_p0_cases())
def test_star_p0_matches_the_principal_angle_oracle(case, star_everywhere, request):
    """p0 of the engine against the principal-angle engine on the whole component.

    Every regime's row of both sides, decided as the stacks regime_pairs
    ties, within 1e-12 at decide's cutoff and at THETA_STARS, both with
    small components as one block and with every component on the star;
    the oracle is the engine the star decision replaced (tests/conftest.py).
    """
    if star_everywhere:
        request.getfixturevalue("on_the_star")
    for label, inst, c_minus, c_plus in _oracle_instances(case):
        reference = principal_angle_spectrum(inst)
        decision = decide(inst, c_minus=c_minus, c_plus=c_plus)
        for theta in (decision.theta_star, *THETA_STARS):
            want = dense_zero_phase_overlap((reference.phases, reference.weights), theta)
            assert abs(zero_phase_overlap(inst, theta) - want) <= ORACLE_TOL, (label, theta)
        assert decision.verdict == ("positive" if label == "marked" else "negative")


def _poles_of(theta, w, own):
    """A _Poles of one row: theta ascending in (-pi, pi], w > 0."""
    return phase_mod._Poles(np.asarray(theta, dtype=float)[None], np.asarray(w, dtype=float)[None],
                            np.array([len(theta)]), np.array([own]), np.array([0.0]), False)


def _secular_cases():
    rng = np.random.default_rng(11)
    for m in (1, 2, 3, 6, 23, 40):
        theta = np.sort(rng.uniform(-np.pi, np.pi, m))
        yield f"random-{m}", theta, rng.dirichlet(np.ones(m)), int(rng.integers(m))
    # the simple loop's poles, exact 0 and pi among them
    yield ("simple", np.array([-2, -1, 0, 1, 2, 3]) * np.pi / 3,
           np.array([0.004, 0.325, 0.016, 0.325, 0.004, 0.326]), 2)
    # clustered phases, weights over twenty orders, poles at both ends of the seam
    theta = np.array([-np.pi + 1e-9, -1.0, -1.0 + 1e-8, -1.0 + 2e-8, 0.0, 1e-7, 0.5,
                      np.pi - 1e-6, np.pi])
    w = np.array([1e-3, 0.2, 0.2, 1e-20, 0.3, 1e-12, 0.1, 0.1, 0.099])
    yield "clustered", theta, w / w.sum(), 4


@pytest.mark.parametrize("name, theta, w, own", list(_secular_cases()),
                         ids=[c[0] for c in _secular_cases()])
def test_secular_roots_match_the_compressed_unitary(name, theta, w, own):
    """The secular roots against the eigenphases of (I - 2 a a^H) diag(e^{i theta_G}).

    a_G = sqrt(w_G).  One root lies in each gap, within 1e-12 of an
    eigenphase on the circle, with secular residual within 8 eps of its
    scale; the weight formula on the own pole matches |x_own|^2 of the
    eigenvectors where the phases are well separated, and the weights sum
    to 1 within 1e-12 everywhere, clustered phases included.
    """
    poles = _poles_of(theta, w, own)
    roots, (f, slope, scale, csc_own) = phase_mod._secular_roots(poles)
    phi = theta[roots.ref] + roots.s * roots.delta
    assert np.all(np.abs(f) <= 8 * np.finfo(float).eps * scale)
    a = np.sqrt(w)
    compressed = (np.eye(len(w)) - 2.0 * np.outer(a, a)) * np.exp(1j * theta)
    values, vectors = np.linalg.eig(compressed)
    # match every root to its nearest eigenvalue on the circle
    gaps = np.abs(np.exp(1j * phi)[:, None] - values[None, :])
    nearest = gaps.argmin(axis=1)
    assert sorted(nearest) == list(range(len(w)))
    assert gaps.min(axis=1).max() <= ORACLE_TOL
    weights = w[own] * csc_own / slope
    assert abs(weights.sum() - 1.0) <= ORACLE_TOL
    if name != "clustered":
        want = np.abs(vectors[own, nearest]) ** 2 / np.sum(np.abs(vectors[:, nearest]) ** 2,
                                                           axis=0)
        assert np.max(np.abs(weights - want)) <= 1e-10


def test_a_moved_block_singular_value_fails_the_certificate(small_pair, monkeypatch,
                                                           on_the_star):
    """One block's singular values in row 3 moved by 1e-6 break C V = U Sigma there.

    The blocks of all five rows share one stacked SVD per pattern, so the
    mutation is in place before the first decision; every row raises,
    naming the certificate and row 3.
    """
    pairs = regime_pairs(*small_pair, REGIMES)
    svd = np.linalg.svd

    def moved(a, full_matrices=True):
        u, s, vh = svd(a, full_matrices=full_matrices)
        assert len(s) == 5  # one block a row: the marked side's patterns
        s = s.copy()
        s[3] += 1e-6
        return u, s, vh

    monkeypatch.setattr(phase_mod.np.linalg, "svd", moved)
    for pair in pairs:
        with pytest.raises(ValueError, match=r"principal-vector residual \d\.\d+e-0[67] "
                                             r"exceeds assert_tol 1e-08 in row 3$"):
            decide(pair.built["marked"], c_minus=pair.c_minus, c_plus=pair.c_plus_decide)
    assert not pairs[0].built["marked"].stack.spectra


def test_a_broken_weight_sum_names_its_row(small_pair, monkeypatch, on_the_star):
    """psi0's weights, summed as a sum, must reach |psi0|^2 in every row.

    A weight of row 2 moved by 1e-6 after the secular step leaves the sum
    short there, and the check names it and the row.
    """
    pairs = regime_pairs(*small_pair, REGIMES)
    star_spectra = phase_mod._star_spectra

    def broken(*args):
        spectra = star_spectra(*args)
        phases, weights = spectra[2]
        spectra[2] = (phases, weights + np.eye(1, len(weights))[0] * 1e-6)
        return spectra

    monkeypatch.setattr(phase_mod, "_star_spectra", broken)
    with pytest.raises(ValueError, match=r"psi0's weights miss \|psi0\|\^2 by 1\.000e-06, "
                                         r"over assert_tol 1e-08 in row 2$"):
        decide(pairs[0].built["empty"], c_minus=pairs[0].c_minus, c_plus=pairs[0].c_plus_decide)
    assert not pairs[0].built["empty"].stack.spectra


def test_a_secular_residual_names_its_row(small_pair, monkeypatch, on_the_star):
    """A root whose secular function is off by 1e-6 of its scale fails in its row."""
    pairs = regime_pairs(*small_pair, REGIMES)
    roots_of = phase_mod._secular_roots

    def off(poles):
        roots, final = roots_of(poles)
        first = int(np.searchsorted(roots.row, 1))
        final[0, first] += 1e-6 * final[2, first]
        return roots, final

    monkeypatch.setattr(phase_mod, "_secular_roots", off)
    with pytest.raises(ValueError, match=r"secular residual 1\.000e-06 exceeds assert_tol "
                                         r"1e-08 in row 1$"):
        decide(pairs[0].built["marked"], c_minus=pairs[0].c_minus, c_plus=pairs[0].c_plus_decide)


@pytest.mark.parametrize("n", [16, 80, 320])
def test_simple_loop_star_has_at_most_six_poles(n, monkeypatch, on_the_star):
    """The simple loop's W0 has phases 0, +-pi/3, pi, and +-2 pi/3 when marked, at every n.

    Its blocks are n copies of one or two layouts, each decided once, so
    the secular equation has at most six poles whatever n is.
    """
    seen = []
    poles_of = phase_mod._poles
    monkeypatch.setattr(phase_mod, "_poles",
                        lambda *args: seen.append(poles_of(*args)) or seen[-1])
    for marked, most in ((frozenset(), 4), (frozenset({0}), 6)):
        inst = build_simple_instance(OracleSpec(size=n, marked=marked), float(n))
        star = inst.structure.component.structure.star
        assert star.hub == 0 and sum(len(p.rows) for p in star.patterns) == n
        decide(inst, c_minus=1.0 + 3.0 * n, c_plus=4.0)
        poles = seen[-1]
        assert poles.count[0] <= most
        found = np.sort(poles.theta[0, :poles.count[0]] / (np.pi / 3))
        assert np.allclose(found, np.round(found), atol=1e-12)


def test_star_of_built_and_hand_built_instances():
    """The hub is the launch generator; the blocks are the inputs' copies of one template.

    At (n, T, Z) = (16, 4, 4) every block has 37 rows, 18 generators of
    side A' and 16 of side B, 15 in the marked input's block; psi0's row
    is free.  A psi0 on several rows has no hub, and its component is one
    block.
    """
    pair, = regime_pairs(*subroutine_pair(0, 16, 4, 4), ["ii-b"])
    for label, inst in pair.built.items():
        part = inst.structure.component.structure
        star = part.star
        assert star.hub == 0 and list(star.free) == list(part.support)
        shapes = sorted((len(p.rows), p.structure.dim, p.structure.sides["A"].shape[1],
                         p.structure.sides["B"].shape[1]) for p in star.patterns)
        want = [(16, 37, 18, 16)] if label == "empty" else [(1, 37, 18, 15), (15, 37, 18, 16)]
        assert shapes == want
        # the blocks and the free rows cover the component once
        held = np.concatenate([p.rows.ravel() for p in star.patterns] + [star.free])
        assert sorted(held) == list(range(part.dim))
    inst = _toy_instance([_unit(3, 0) + _unit(3, 1)], [_unit(3, 2)],
                         (_unit(3, 0) + _unit(3, 1)) / math.sqrt(2))
    star = inst.structure.component.structure.star
    assert star.hub is None and len(star.patterns) == 1 and len(star.free) == 0


def _rebuilt(inst, **plans):
    """inst on a fresh structure on the same sides, handed plans."""
    s = inst.structure
    return PEInstance(InstanceStructure(s.dim, s.support, s.sides, s.sets, **plans),
                      inst.psi0, inst.values)


def test_a_component_handed_no_star_is_decided_as_one_block():
    """Past STAR_COLUMNS, a structure handed no star is one block, and decides alike.

    Every regime of both sides of (16, 4, 4), rebuilt on the layout's
    sides without the star: its p0, min_angle and verdict agree with the
    laid-out star's within ORACLE_TOL, and p0 with the principal-angle
    oracle's.  Handed the search oracle's star instead, it has the star
    path's bytes.
    """
    for pair in regime_pairs(*subroutine_pair(0, 16, 4, 4), REGIMES):
        for inst in pair.built.values():
            bare = _rebuilt(inst)
            searched = _rebuilt(inst, component_star=lambda rows, part: searched_star(part))
            part = bare.structure.component.structure
            assert min(m.shape[1] for m in part.sides.values()) > phase_mod.STAR_COLUMNS
            assert phase_mod._star_of(bare.structure) is part.one_block
            assert phase_mod._star_of(inst.structure).hub == 0
            one, star, oracle_star = (decide(x, c_minus=pair.c_minus, c_plus=pair.c_plus_decide)
                                      for x in (bare, inst, searched))
            reference = principal_angle_spectrum(inst)
            want = dense_zero_phase_overlap((reference.phases, reference.weights),
                                            star.theta_star)
            assert abs(one.p0 - star.p0) <= ORACLE_TOL and abs(one.p0 - want) <= ORACLE_TOL
            assert abs(one.min_angle - star.min_angle) <= ORACLE_TOL
            assert one.verdict == star.verdict == (
                "positive" if want >= star.threshold else "negative")
            assert (oracle_star.p0, oracle_star.min_angle) == (star.p0, star.min_angle)


def test_a_component_is_decided_on_its_own_star():
    """psi0's component is its own component: deciding it reads the star its builder laid out.

    The simple instance at n = 80 and the general one at (16, 4, 4), both
    marked; the component's p0 and min_angle are the instance's, bit for bit.
    """
    pair, = regime_pairs(*subroutine_pair(0, 16, 4, 4), ["ii-b"])
    cases = [(build_simple_instance(OracleSpec(size=80, marked=frozenset({0})), 80.0),
              1.0 + 3.0 * 80, 4.0),
             (pair.built["marked"], pair.c_minus, pair.c_plus_decide)]
    for inst, c_minus, c_plus in cases:
        part = inst.psi0_component()
        assert part.structure.component.structure is part.structure
        assert phase_mod._star_of(part.structure) is phase_mod._star_of(inst.structure)
        assert phase_mod._star_of(part.structure).hub == 0
        got, want = (decide(x, c_minus=c_minus, c_plus=c_plus) for x in (part, inst))
        assert (got.p0, got.min_angle, got.verdict) == (want.p0, want.min_angle, want.verdict)


def test_general_decide_rows_read_no_star(monkeypatch):
    """At (2, 2, 2) every component is below STAR_COLUMNS: no star is laid out or checked."""
    checked = []
    check = inst_mod._check_star
    monkeypatch.setattr(inst_mod, "_check_star",
                        lambda structure, star: checked.append(star) or check(structure, star))
    for seed in (0, 1):
        pairs = regime_pairs(*subroutine_pair(seed, 2, 2, 2), REGIMES)
        for pair in pairs:
            for inst in pair.built.values():
                decide(inst, c_minus=pair.c_minus, c_plus=pair.c_plus_decide)
        for inst in pairs[0].built.values():
            assert "star" not in vars(inst.structure.component.structure)
    assert not checked


def test_min_angle_is_half_the_smallest_weighted_phase():
    """min_angle against the dense walk: the smallest |phi| / 2 carrying psi0 weight.

    On simple-loop instances every phase psi0 sees carries at least 1e-6
    of its weight, so the dense oracle's weighted phases are well defined.
    """
    for n in (2, 4, 9, 16):
        for marked in (frozenset(), frozenset({0})):
            inst = build_simple_instance(OracleSpec(size=n, marked=marked), float(n))
            phases, weights = dense_walk_spectrum(inst)
            seen = np.abs(phases[(weights > 1e-9) & (np.abs(phases) > 1e-9)])
            decision = decide(inst, c_minus=1.0 + 3.0 * n, c_plus=4.0)
            assert abs(decision.min_angle - seen.min() / 2.0) <= 1e-10
