"""Tests for the dense linear-algebra primitives."""

import numpy as np
import pytest
import scipy.stats

from vtsearch.linalg import (DIM_CAP, DimensionCapError, NonUnitaryError,
                             TolerancePolicy, check_dim, cluster_phases,
                             orthonormalize, projector_from_set, reflection,
                             unitarity_residual, unitary_eig)

RNG = np.random.default_rng(1234)


def test_tolerance_policy_validates():
    with pytest.raises(ValueError):
        TolerancePolicy(rank_tol=1e-6, assert_tol=1e-8)
    with pytest.raises(ValueError):
        TolerancePolicy(rank_tol=0.0)


def test_check_dim_cap():
    check_dim(DIM_CAP)
    with pytest.raises(DimensionCapError):
        check_dim(DIM_CAP + 1)
    with pytest.raises(ValueError):
        check_dim(0)


def test_orthonormalize_rank_and_orthogonality():
    # 5 vectors in C^8 with rank 3: two exact duplicates of combinations
    base = RNG.normal(size=(8, 3)) + 1j * RNG.normal(size=(8, 3))
    cols = [base[:, 0], base[:, 1], base[:, 2],
            base[:, 0] + 2 * base[:, 1], 0.5 * base[:, 2] - base[:, 0]]
    q = orthonormalize(cols)
    assert q.shape == (8, 3)
    assert np.max(np.abs(q.conj().T @ q - np.eye(3))) < 1e-12
    # span is preserved: each input is reproduced by its projection
    p = q @ q.conj().T
    for c in cols:
        assert np.linalg.norm(p @ c - c) < 1e-10


def test_orthonormalize_rank_rule_on_near_dependent_inputs():
    e = np.eye(4, dtype=complex)
    # [e0, e1, e0 + eps e2] has smallest singular value ~ eps / sqrt(2)
    for eps, rank in ((1e-8, 3), (1e-12, 2)):
        cols = [e[0], e[1], e[0] + eps * e[2]]
        q = orthonormalize(cols)
        assert q.shape == (4, rank)
        assert np.max(np.abs(q.conj().T @ q - np.eye(rank))) < 1e-12
        assert all(np.linalg.norm(c - q @ (q.conj().T @ c)) <= eps for c in cols)
    # the cutoff is rank_tol times the largest input column norm
    tol = TolerancePolicy()
    assert orthonormalize([2 * e[0], 3 * tol.rank_tol * e[1]], tol).shape == (4, 2)
    assert orthonormalize([2 * e[0], 1.9 * tol.rank_tol * e[1]], tol).shape == (4, 1)


def test_orthonormalize_empty_and_zero():
    assert orthonormalize([]).shape == (0, 0)
    z = orthonormalize([np.zeros(4)])
    assert z.shape == (4, 0)


def test_projector_properties():
    vecs = [RNG.normal(size=6) + 1j * RNG.normal(size=6) for _ in range(2)]
    p = projector_from_set(vecs)
    assert p.rank == 2
    assert p.hermiticity_residual() < 1e-12
    assert p.idempotency_residual() < 1e-12
    p.check()


def test_projector_empty_set_needs_dim():
    p = projector_from_set([], dim=5)
    assert p.rank == 0 and p.matrix.shape == (5, 5)
    with pytest.raises(ValueError):
        projector_from_set([])


def test_reflection_is_involution():
    vecs = [RNG.normal(size=7) for _ in range(3)]
    r = reflection(projector_from_set(vecs))
    assert np.max(np.abs(r @ r - np.eye(7))) < 1e-12
    assert np.max(np.abs(r - r.conj().T)) < 1e-12


def test_unitary_eig_reconstructs():
    u = scipy.stats.unitary_group.rvs(12, random_state=RNG)
    dec = unitary_eig(u)
    assert np.max(np.abs(dec.reconstruct() - u)) < 1e-10
    assert np.all(dec.phases > -np.pi - 1e-12) and np.all(dec.phases <= np.pi + 1e-12)
    assert unitarity_residual(dec.vectors) < 1e-12


def test_unitary_eig_rejects_non_unitary():
    with pytest.raises(NonUnitaryError):
        unitary_eig(np.diag([1.0, 2.0]))


def test_cluster_phases_groups_near_degenerate():
    phases = np.array([0.0, 1e-12, 0.5, 0.5 + 1e-12, -0.5])
    clusters = cluster_phases(phases, 1e-9)
    sizes = sorted(len(c) for c in clusters)
    assert sizes == [1, 2, 2]
    # each cluster internally tight
    for c in clusters:
        assert np.ptp(phases[c]) <= 1e-9
