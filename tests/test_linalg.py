"""Tests for the dense linear-algebra primitives."""

import numpy as np
import pytest
import scipy.stats

from vtsearch.linalg import (DEFAULT_TOL, DIM_CAP, DimensionCapError,
                             NonUnitaryError, TolerancePolicy, check_dim,
                             cluster_phases, projector_from_set, reflection,
                             unitarity_residual, unitary_eig)

from conftest import dense_unitary_eig

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


def test_projector_rank_and_span_with_duplicates():
    # 5 vectors in C^8 with rank 3: two exact duplicates of combinations
    base = RNG.normal(size=(8, 3)) + 1j * RNG.normal(size=(8, 3))
    cols = [base[:, 0], base[:, 1], base[:, 2],
            base[:, 0] + 2 * base[:, 1], 0.5 * base[:, 2] - base[:, 0]]
    p = projector_from_set(cols)
    assert p.rank == 3
    assert p.hermiticity_residual() < 1e-12
    assert p.idempotency_residual() < 1e-12
    assert abs(np.trace(p.matrix) - 3) < 1e-12
    # span is preserved: each input is reproduced by its projection
    for c in cols:
        assert np.linalg.norm(p.matrix @ c - c) < 1e-10


def test_projector_rank_rule_on_near_dependent_inputs():
    e = np.eye(4, dtype=complex)
    # [e0, e1, e0 + eps e2] has smallest singular value ~ eps / sqrt(2)
    for eps, rank in ((1e-8, 3), (1e-12, 2)):
        cols = [e[0], e[1], e[0] + eps * e[2]]
        p = projector_from_set(cols)
        assert p.rank == rank
        assert abs(np.trace(p.matrix) - rank) < 1e-12
        assert p.idempotency_residual() < 1e-12
        assert all(np.linalg.norm(c - p.matrix @ c) <= eps for c in cols)
    # the cutoff is rank_tol times the largest input column norm
    rank_tol = DEFAULT_TOL.rank_tol
    assert projector_from_set([2 * e[0], 3 * rank_tol * e[1]]).rank == 2
    assert projector_from_set([2 * e[0], 1.9 * rank_tol * e[1]]).rank == 1


def test_projector_empty_and_zero():
    for vectors in ([], [np.zeros(4)]):
        p = projector_from_set(vectors, dim=4)
        assert p.rank == 0
        assert p.matrix.shape == (4, 4) and not np.any(p.matrix)


def test_projector_properties():
    vecs = [RNG.normal(size=6) + 1j * RNG.normal(size=6) for _ in range(2)]
    p = projector_from_set(vecs)
    assert p.rank == 2
    assert p.hermiticity_residual() < 1e-12
    assert p.idempotency_residual() < 1e-12


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
    """The library's stack path, and the dense oracle on one 12 x 12 unitary."""
    u = scipy.stats.unitary_group.rvs(12, random_state=RNG)
    stack = scipy.stats.unitary_group.rvs(2, size=12, random_state=RNG)
    for dec, want in ((dense_unitary_eig(u), u), (unitary_eig(stack), stack)):
        assert np.max(np.abs(dec.reconstruct() - want)) < 1e-10
        assert np.all(dec.phases > -np.pi - 1e-12) and np.all(dec.phases <= np.pi + 1e-12)
        assert unitarity_residual(dec.vectors) < 1e-12


def test_unitary_eig_rejects_non_unitary():
    with pytest.raises(NonUnitaryError):
        unitary_eig(np.diag([1.0, 2.0])[None])
    with pytest.raises(NonUnitaryError):
        dense_unitary_eig(np.diag([1.0, 2.0]))


PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _block(alpha, beta, axis):
    """e^{i alpha} (cos beta I + i sin beta n.sigma) for the unit vector along axis."""
    n = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    n_sigma = np.tensordot(n, PAULI, axes=1)
    return np.exp(1j * alpha) * (np.cos(beta) * np.eye(2) + 1j * np.sin(beta) * n_sigma)


def test_unitary_eig_stack_matches_schur_per_block():
    rng = np.random.default_rng(99)
    special = [np.eye(2), -np.eye(2), 1j * np.eye(2),
               np.diag([1.0, -1.0]), np.array([[0, 1], [1, 0]]),
               _block(0.3, 1e-9, rng.normal(size=3)),
               _block(-2.0, 1e-9, [0, 0, 1]),
               _block(0.0, np.pi - 1e-10, rng.normal(size=3)),
               _block(np.pi / 2, np.pi / 2 - 1e-12, rng.normal(size=3)),
               np.diag(np.exp([1j * (np.pi - 1e-12), -1j * (np.pi - 1e-12)]))]
    haar = scipy.stats.unitary_group.rvs(2, size=40, random_state=rng)
    stack = np.concatenate([haar, np.array(special, dtype=complex)])
    dec = unitary_eig(stack)
    assert dec.phases.shape == (len(stack), 2)
    assert dec.vectors.shape == (len(stack), 2, 2)
    assert np.max(np.abs(dec.reconstruct() - stack)) < 1e-12
    assert unitarity_residual(dec.vectors) < 1e-12
    assert np.all(dec.phases > -np.pi) and np.all(dec.phases <= np.pi)
    for block, phases in zip(stack, dec.phases):
        # compare eigenvalues on the circle, so a phase at the +-pi cut matches
        ours, ref = np.exp(1j * phases), np.exp(1j * dense_unitary_eig(block).phases)
        assert min(np.max(np.abs(ours - ref)),
                   np.max(np.abs(ours - ref[::-1]))) < 1e-12
    # the near-identity blocks keep their +-1e-9 splitting
    for k in (5, 6):
        assert abs(np.ptp(dec.phases[len(haar) + k]) - 2e-9) < 1e-15


def test_unitary_eig_stack_edge_cases():
    empty = unitary_eig(np.zeros((0, 2, 2)))
    assert empty.phases.shape == (0, 2) and empty.vectors.shape == (0, 2, 2)
    stack = np.array([np.eye(2), np.diag([1.0, 1.0 + 1e-6])], dtype=complex)
    with pytest.raises(NonUnitaryError, match="block 1 is not unitary") as failed:
        unitary_eig(stack)
    assert failed.value.block == 1
    with pytest.raises(ValueError):
        unitary_eig(np.array([np.eye(3)]))
    # a single matrix is not a stack: whole walks are the dense oracle's
    with pytest.raises(ValueError):
        unitary_eig(np.eye(2))


def test_cluster_phases_groups_near_degenerate():
    phases = np.array([0.0, 1e-12, 0.5, 0.5 + 1e-12, -0.5])
    clusters = cluster_phases(phases, 1e-9)
    sizes = sorted(len(c) for c in clusters)
    assert sizes == [1, 2, 2]
    # each cluster internally tight
    for c in clusters:
        assert np.ptp(phases[c]) <= 1e-9
    # a chain, each phase within tol of the next, is one cluster however
    # far its ends lie apart; a gap just over tol splits it
    chain = 0.3 + 0.9e-9 * np.arange(50)
    shuffled = np.random.default_rng(5).permutation(len(chain))
    clusters = cluster_phases(np.concatenate([chain[shuffled], [0.3 + 46e-9]]), 1e-9)
    assert [len(c) for c in clusters] == [50, 1]
    assert cluster_phases(np.array([]), 1e-9) == []
