"""Tests for the spectral decision engine and phase-register simulation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vtsearch.instances as inst_mod
import vtsearch.phase as phase_mod
from vtsearch.grover import OracleSpec
from vtsearch.instances import (REGIMES, PEInstance, SetMatrix,
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
                             cluster_phases)
from vtsearch.subroutines import stopping_moments, subroutine_pair

from conftest import (dense_qpe_distribution, dense_qpe_zero_prediction,
                      dense_reflection_factorization_residual,
                      dense_walk_spectrum, dense_zero_phase_overlap,
                      reflected_compressions, reflected_walk_spectrum)

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
        scaled = PEInstance(inst.structure, scale * inst.psi0,
                            {side: m.values for side, m in inst.sides.items()})
        with pytest.raises(ValueError, match="psi0 has norm"):
            decide(scaled, c_minus=13.0, c_plus=4.0)
    # within assert_tol of 1, the verdict stands
    near = PEInstance(inst.structure, (1.0 + 1e-12) * inst.psi0,
                      {side: m.values for side, m in inst.sides.items()})
    assert decide(near, c_minus=13.0, c_plus=4.0).verdict == "positive"


@pytest.mark.parametrize("entry", ["decide", "zero_phase_overlap",
                                   "qpe_zero_prediction", "qpe_simulate"])
def test_every_spectrum_entry_point_rejects_a_non_unit_psi0(entry):
    """A doubled psi0 would scale every weight by 4, so each entry point refuses it."""
    inst = build_simple_instance(OracleSpec(size=4, marked=frozenset({0})), 4.0)
    doubled = PEInstance(inst.structure, 2.0 * inst.psi0,
                         {side: m.values for side, m in inst.sides.items()})
    call = {"decide": lambda i: decide(i, c_minus=13.0, c_plus=4.0),
            "zero_phase_overlap": lambda i: zero_phase_overlap(i, 0.2),
            "qpe_zero_prediction": lambda i: qpe_zero_prediction(i, 3),
            "qpe_simulate": lambda i: qpe_simulate(i, 3)}[entry]
    call(inst)
    with pytest.raises(ValueError, match="psi0 has norm 2.0, not 1"):
        call(doubled)


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
    monkeypatch.setattr(inst_mod, "general_negative_witness", lambda *a: (
        dataclasses.replace(general_negative_witness(*a), closed_norm_sq=0.5)))
    assert regime_pairs(marked, empty, [regime])[0].c_minus == max(c_plus, 1.0)


def test_regime_pair_reaches_layers_through_their_modules(monkeypatch, small_pair):
    """Wrappers installed on vtsearch.instances' attributes see every call.

    The benchmark's tracer wraps module attributes this way; names imported
    into phase would bypass the wrappers and read zero calls.
    """
    calls = {}
    for name in ("regime_parameters", "build_general_instance"):
        def counted(*args, _name=name, _fn=getattr(inst_mod, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(inst_mod, name, counted)
    pair, = regime_pairs(*small_pair, ["ii-b"])
    decisions = pair.decide()
    assert calls == {"regime_parameters": 2, "build_general_instance": 2}
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
                      {side: m.values.astype(complex) for side, m in inst.sides.items()})


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
        # one phase-pi entry per side, then the complement's phase 0
        assert list(spectrum.phases[-3:]) == [math.pi, math.pi, 0.0]


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


def _oracle_instances(case):
    """(label, instance, c_minus, c_plus) for both sides of one case."""
    if case[0] == "general":
        _, shape, regime = case
        pair, = regime_pairs(*subroutine_pair(0, *shape), [regime])
        return [(label, inst, pair.c_minus, pair.c_plus_decide)
                for label, inst in pair.instances().items()]
    n = case[1]
    return [(label, build_simple_instance(OracleSpec(size=n, marked=marked), float(n)),
             1.0 + 3.0 * n, 4.0)
            for label, marked in (("marked", frozenset({0})), ("empty", frozenset()))]


def _engine_blocks(inst, monkeypatch):
    """The engine's spectrum and the rotation stack it hands to unitary_eig."""
    seen = []

    def capture(blocks):
        seen.append(blocks)
        return eig(blocks)

    eig = phase_mod.unitary_eig
    with monkeypatch.context() as m:
        m.setattr(phase_mod, "unitary_eig", capture)
        spectrum = _walk_spectrum(inst)
    return spectrum, seen[0]


@pytest.mark.parametrize("case", _oracle_cases())
def test_closed_form_planes_match_the_reflected_engine(case, monkeypatch):
    """Closed-form rotations against W's compression and the previous engine.

    The planes are rebuilt on dense span bases from the SVD of the same
    cross Gram, so they are the engine's; W's compression on them,
    computed with dense reflections, must be the engine's rotation by
    -2 theta_j.  Verdicts equal the reflected engine's, and p0 at every
    cutoff and min_angle agree with it within 1e-12.
    """
    for label, inst, c_minus, c_plus in _oracle_instances(case):
        spectrum, blocks = _engine_blocks(inst, monkeypatch)
        part = inst.psi0_component()
        qa, qb = part.span_basis("A"), part.span_basis("B")
        u, cos, vh = np.linalg.svd(part.cross_gram(), full_matrices=False)
        ua = qa @ u
        perp = qb @ vh.conj().T - ua * cos
        sin = np.linalg.norm(perp, axis=0)
        rot = sin > DEFAULT_TOL.rank_tol
        compressions = reflected_compressions(part, ua[:, rot], perp[:, rot] / sin[rot])
        assert blocks.shape == compressions.shape and len(blocks) > 0
        assert np.max(np.abs(blocks - compressions)) <= ORACLE_TOL, label

        reference = reflected_walk_spectrum(inst)
        assert abs(spectrum.min_angle - reference.min_angle) <= ORACLE_TOL
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


def _assert_cross_gram_is_dense_product(inst):
    part = inst.psi0_component()
    want = part.span_basis("A").conj().T @ part.span_basis("B")
    got = part.cross_gram()
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
    assert inst.structure.cross.left.shape == (4 * 2 * 3 - 2 * 3,)
    _assert_cross_gram_is_dense_product(inst)
    _assert_matches_dense_oracle(inst)


def test_a_moved_singular_vector_fails_the_certificate(small_pair, monkeypatch):
    """One left singular vector moved by 1e-6 breaks C V = U Sigma past assert_tol."""
    pair, = regime_pairs(*small_pair, ["ii-b"])
    inst = pair.instances()["marked"]
    svd = np.linalg.svd

    def moved(a, full_matrices=True):
        u, s, vh = svd(a, full_matrices=full_matrices)
        u = u.copy()
        u[:, 0] += 1e-6 * u[:, 1]
        return u, s, vh

    decide(inst, c_minus=pair.c_minus, c_plus=pair.c_plus_decide)
    monkeypatch.setattr(phase_mod.np.linalg, "svd", moved)
    with pytest.raises(ValueError, match=r"principal-vector residual \d\.\d+e-0[67]"):
        decide(inst, c_minus=pair.c_minus, c_plus=pair.c_plus_decide)


def test_decide_builds_no_dense_basis_or_operator(monkeypatch):
    """Both sides of (16, 4, 4) decided with every densifying path refused."""
    pair, = regime_pairs(*subroutine_pair(0, 16, 4, 4), ["ii-b"])
    want = {label: decision.verdict for label, decision in pair.decide().items()}

    def refuse(*args, **kwargs):
        raise AssertionError("a dense path was taken")

    for owner, name in ((PEInstance, "span_basis"), (PEInstance, "generators"),
                        (PEInstance, "projector"), (PEInstance, "walk_unitary"),
                        (SetMatrix, "toarray")):
        monkeypatch.setattr(owner, name, refuse)
    got = {label: decision.verdict for label, decision in pair.decide().items()}
    assert got == want == {"marked": "positive", "empty": "negative"}


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
