"""Shared fixtures and helpers for the test suite."""

import math

import numpy as np
import pytest

from vtsearch import (DEFAULT_TOL, cluster_phases, projector_from_set,
                      qpe_kernel, reflection, stopping_profile, subroutine_pair,
                      unitary_eig)
from vtsearch.instances import (GeneralBasis, NegativeWitness, PositiveWitness,
                                SimpleBasis)


def span_residual(generators, vec):
    """Distance from vec to the span of a list of generators (least squares)."""
    m = np.stack([np.asarray(g, dtype=complex) for g in generators], axis=1)
    coef, *_ = np.linalg.lstsq(m, np.asarray(vec, dtype=complex), rcond=None)
    return float(np.linalg.norm(vec - m @ coef))


def dense_walk_spectrum(instance, tol=DEFAULT_TOL):
    """Oracle: Schur decomposition of the full d x d walk.

    Returns every eigenphase with the squared overlap of psi0 on its
    eigenvector; the library's decision engine never builds this walk.
    """
    dec = unitary_eig(instance.walk_unitary(tol), tol)
    return dec.phases, np.abs(dec.vectors.conj().T @ instance.psi0) ** 2


def dense_zero_phase_overlap(spectrum, theta_star, tol=DEFAULT_TOL):
    """Oracle p0: weight on eigenphase clusters of magnitude <= theta_star."""
    phases, weights = spectrum
    return sum(float(np.sum(weights[c]))
               for c in cluster_phases(phases, tol.eig_cluster_tol)
               if abs(float(np.mean(phases[c]))) <= theta_star + tol.eig_cluster_tol)


def dense_qpe_zero_prediction(spectrum, bits):
    """Oracle Pr[register = 0] from the leakage kernel."""
    phases, weights = spectrum
    return float(sum(w * qpe_kernel(th, bits) for th, w in zip(phases, weights)))


def dense_qpe_distribution(instance, bits, tol=DEFAULT_TOL):
    """Oracle phase-register distribution from the full d x d walk."""
    m = 1 << bits
    u = instance.walk_unitary(tol)
    states = [np.asarray(instance.psi0, dtype=complex)]
    for _ in range(m - 1):
        states.append(u @ states[-1])
    return np.sum(np.abs(np.fft.fft(np.array(states), axis=0) / m) ** 2, axis=1)


def dense_reflection_factorization_residual(instance, tol=DEFAULT_TOL):
    """Oracle: each side's reflection against the product of its set reflections.

    Uses the subspace-negating convention D = I - 2P, for which orthogonal
    generator groups compose multiplicatively: prod_k (I - 2P_k) =
    I - 2 sum_k P_k.  Returns the largest entry of the difference over
    both sides, from one d x d SVD projector and product per set; the
    library reads the same identity off the sparse cross-set Gram.
    """
    worst = 0.0
    eye = np.eye(instance.dim, dtype=complex)
    for side in ("A", "B"):
        sets = instance.a_sets if side == "A" else instance.b_sets
        product = eye
        for name in sets:
            p = projector_from_set(instance.set_vectors(side, name), tol,
                                   dim=instance.dim)
            product = product @ (-reflection(p))
        direct = -reflection(instance.projector(side, tol))
        worst = max(worst, float(np.max(np.abs(direct - product))))
    return worst


def dense_simple_sets(oracle, omega):
    """Oracle: the simple instance's generator sets, one dense vector each.

    (a_sets, b_sets) as dicts of vector lists, built label by label; the
    library assembles the same sets as sparse matrices from index arrays.
    """
    n = oracle.size
    e = SimpleBasis(n).unit
    launch = e("src", 0, 0)
    for i in range(1, n + 1):
        launch -= math.sqrt(omega / n) * e("qry", i, 0)
    query = [e("qry", i, 0) - e("ret", i, 1 if (i - 1) in oracle.marked else 0)
             for i in range(1, n + 1)]
    check = [e("ret", i, b) - e("chk", i, b)
             for i in range(1, n + 1) for b in (0, 1)]
    absorb = [e("chk", i, 0) for i in range(1, n + 1)
              if (i - 1) not in oracle.marked]
    return ({"launch": [launch], "check": check},
            {"query": query, "absorb": absorb})


def dense_general_sets(spec, weights):
    """Oracle: the general instance's generator sets, one dense vector each."""
    n = spec.num_inputs
    basis = GeneralBasis.for_spec(spec)
    alpha = weights.alpha
    w = spec.workspace_size
    t_max = spec.num_steps
    e = basis.unit

    launch = e("src", 0, 0)
    for i in range(1, n + 1):
        launch -= math.sqrt(weights.omega[i - 1] / n) * e("src", i, 0)
    forward = [e("src", i, b, a) - e("fwd", i, b, a)
               for i in range(1, n + 1) for b in (0, 1) for a in (0, 1)]
    backward = [e("bwd", i, b, a) - e("ret", i, b, a)
                for i in range(1, n + 1) for b in (0, 1) for a in (0, 1)]
    check = [e("ret", i, b, a) - e("chk", i, b, a)
             for i in range(1, n + 1) for b in (0, 1) for a in (0, 1)]
    absorb = [e("chk", i, 0, a) for i in range(1, n + 1)
              if spec.outputs[i - 1] == 0 for a in (0, 1)]

    even, odd = [], []
    for j in range(n):
        i = j + 1
        for t in range(t_max):
            active = [z for z in range(w) if z not in spec.halted_labels(t)]
            u_next = spec.unitaries[j, t]
            bucket = even if t % 2 == 0 else odd
            for tag in ("fwd", "bwd"):
                for b in (0, 1):
                    there = basis.az_indices(tag, i, b, t + 1)
                    for a in (0, 1):
                        for z in active:
                            vec = np.zeros(basis.dim, dtype=complex)
                            vec[basis.index(tag, i, b, a, z, t)] = math.sqrt(alpha[t])
                            vec[there] -= math.sqrt(alpha[t + 1]) * u_next[:, a * w + z]
                            bucket.append(vec)
        for t in range(1, t_max + 1):
            cell = spec.partition[t - 1]
            bucket = even if t % 2 == 0 else odd
            for a in (0, 1):
                for b in (0, 1):
                    for z in cell:
                        vec = np.zeros(basis.dim, dtype=complex)
                        vec[basis.index("fwd", i, b, a, z, t)] = 1.0
                        vec[basis.index("bwd", i, b ^ a, a, z, t)] = -1.0
                        bucket.append(vec)
    return ({"launch": [launch], "even": even, "check": check},
            {"forward": forward, "odd": odd, "backward": backward,
             "absorb": absorb})


def dense_simple_witnesses(oracle, omega):
    """Oracle: simple_witnesses summed label by label from dense unit vectors."""
    n = oracle.size
    basis = SimpleBasis(n)

    e = basis.unit

    if oracle.marked:
        m_count = len(oracle.marked)
        w = e("src", 0, 0)
        for j in sorted(oracle.marked):
            i = j + 1
            w += (1.0 / m_count) * math.sqrt(n / omega) * (
                e("qry", i, 0) + e("ret", i, 1) + e("chk", i, 1))
        return PositiveWitness(vector=w,
                               closed_norm_sq=1.0 + 3.0 * n / (m_count * omega))

    w_a = e("src", 0, 0)
    for i in range(1, n + 1):
        c = math.sqrt(omega / n)
        w_a += c * (-e("qry", i, 0) + e("ret", i, 0) - e("chk", i, 0))
    w_b = e("src", 0, 0) - w_a
    return NegativeWitness(w_a=w_a, w_b=w_b, closed_norm_sq=1.0 + 3.0 * omega)


def _dense_inner_history(spec, i):
    states = [spec.initial_state()]
    for t in range(1, spec.num_steps + 1):
        prev = states[-1].copy()
        mask = spec.halted_mask(t - 1)
        prev[mask] = 0.0
        states.append(spec.unitaries[i, t - 1] @ prev)
    return states


def _dense_history_states(spec, i, alpha):
    """Oracle: input i's (w_plus, w_minus, norm_plus, norm_minus), dense d-vectors.

    Summed label by label into fresh d-length vectors; the closed norms
    come from a fresh stopping_profile, not from the spec's cached ones.
    """
    alpha = np.asarray(alpha, dtype=float)
    basis = GeneralBasis.for_spec(spec)
    fi = spec.outputs[i]
    inner = _dense_inner_history(spec, i)
    profile = stopping_profile(spec, i)

    w_plus = np.zeros(basis.dim, dtype=complex)
    w_minus = np.zeros(basis.dim, dtype=complex)
    for t, state in enumerate(inner):
        fwd = basis.az_indices("fwd", i + 1, 0, t)
        bwd = basis.az_indices("bwd", i + 1, fi, t)
        w_plus[fwd] += state / math.sqrt(alpha[t])
        w_plus[bwd] += state / math.sqrt(alpha[t])
        signed = (-1.0) ** t * math.sqrt(alpha[t]) * state
        w_minus[fwd] += signed
        w_minus[bwd] -= signed

    norm_plus = 2.0 * profile.expected_sum(lambda t: 1.0 / alpha[t])
    norm_minus = 2.0 * profile.expected_sum(lambda t: alpha[t])
    return w_plus, w_minus, norm_plus, norm_minus


def dense_general_witnesses(spec, weights):
    """Oracle: the general witness of spec, summed from dense history states.

    Positive (from the marked inputs' forward histories) when spec marks
    an input, negative (from every input's rewind history) otherwise.
    """
    basis = GeneralBasis.for_spec(spec)
    n = spec.num_inputs
    marked = [j for j, b in enumerate(spec.outputs) if b == 1]
    if marked:
        vec = np.zeros(basis.dim, dtype=complex)
        vec[basis.index("src", 0, 0, 0, 0, 0)] = 1.0
        closed = 1.0
        for j in marked:
            i = j + 1
            coef = math.sqrt(n) * math.sqrt(weights.beta[j]) / math.sqrt(weights.omega[j])
            w_plus, _, norm_plus, _ = _dense_history_states(spec, j, weights.alpha)
            vec[basis.index("src", i, 0, 0, 0, 0)] += coef
            vec += coef * w_plus
            vec[basis.index("ret", i, 1, 0, 0, 0)] += coef
            vec[basis.index("chk", i, 1, 0, 0, 0)] += coef
            closed += n * weights.beta[j] / weights.omega[j] * (2.0 + norm_plus + 1.0)
        return PositiveWitness(vector=vec, closed_norm_sq=closed)

    w_a = np.zeros(basis.dim, dtype=complex)
    psi0_idx = basis.index("src", 0, 0, 0, 0, 0)
    w_a[psi0_idx] = 1.0
    closed = 1.0
    for j in range(n):
        i = j + 1
        coef = math.sqrt(weights.omega[j] / n)
        _, w_minus, _, norm_minus = _dense_history_states(spec, j, weights.alpha)
        w_a[basis.index("src", i, 0, 0, 0, 0)] -= coef
        w_a += coef * w_minus
        w_a[basis.index("ret", i, 0, 0, 0, 0)] += coef
        w_a[basis.index("chk", i, 0, 0, 0, 0)] -= coef
        closed += weights.omega[j] / n * (2.0 + norm_minus + 1.0)
    w_b = -w_a
    w_b[psi0_idx] += 1.0
    return NegativeWitness(w_a=w_a, w_b=w_b, closed_norm_sq=closed)


@pytest.fixture(scope="session")
def small_pair():
    """Smallest nontrivial pair (instance dimension 504)."""
    return subroutine_pair(7, 2, 2, 2)
