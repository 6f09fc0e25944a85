"""Dense linear-algebra primitives shared by every other module.

Every tolerance-sensitive comparison in the package reads the one fixed
policy :data:`DEFAULT_TOL`, so assertions are reproducible across modules
and no caller can loosen them.  Everything here operates on plain
``numpy`` arrays, and nothing else is imported.  Vectors are 1-d arrays,
float64 or complex128 in the dtype of the instance they come from (a
simple-loop instance is real, a general one complex), so real instances
keep real arithmetic; the operators built here (projectors, reflections,
the 2 x 2 walk blocks and their eigenvectors) are square complex arrays.

Projectors onto the span of an arbitrary vector set come from one SVD
(:func:`projector_from_set`); the decision engine needs none, because its span
bases are normalized pairwise-orthogonal generators.  It writes the walk
on each rotation plane of each block in closed form, a rotation by
-2 theta_j from the principal angle theta_j, and hands all of them to
:func:`unitary_eig` as one (k, 2, 2) stack, which is decomposed in closed
form with its unitarity and reconstruction checks.  No d x d unitary is ever
diagonalized here: the dense Schur decomposition of a whole walk is the
test suite's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Hard cap on operator dimension.  All intended instances fit comfortably
#: below this; anything above it is almost certainly a configuration error.
DIM_CAP = 5000


class DimensionCapError(ValueError):
    """Raised when a requested dense operator would exceed DIM_CAP."""


class NonUnitaryError(ValueError):
    """Raised when a matrix expected to be unitary is not.

    block is the first failing block of a stack, when the input is one.
    """

    def __init__(self, message: str, block: int | None = None):
        super().__init__(message)
        self.block = block


@dataclass(frozen=True)
class TolerancePolicy:
    """Shared numerical thresholds.

    rank_tol governs numerical-rank decisions, assert_tol governs
    pass/fail residual checks, eig_cluster_tol governs grouping of
    numerically split eigenphases.  DEFAULT_TOL is the one policy every
    check reads; no function takes another.
    """

    rank_tol: float = 1e-10
    assert_tol: float = 1e-8
    eig_cluster_tol: float = 1e-9

    def __post_init__(self):
        if not (0.0 < self.rank_tol <= self.assert_tol):
            raise ValueError("require 0 < rank_tol <= assert_tol")


DEFAULT_TOL = TolerancePolicy()


def check_dim(dim: int) -> None:
    if dim <= 0:
        raise ValueError(f"dimension must be positive, got {dim}")
    if dim > DIM_CAP:
        raise DimensionCapError(f"dimension {dim} exceeds cap {DIM_CAP}")


@dataclass(frozen=True)
class Projector:
    """An orthogonal projector with its numerical rank."""

    matrix: np.ndarray
    rank: int

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def hermiticity_residual(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def idempotency_residual(self) -> float:
        return float(np.max(np.abs(self.matrix @ self.matrix - self.matrix)))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenphases and orthonormal eigenvectors of a unitary or a stack of them.

    phases[..., j] in (-pi, pi] and vectors[..., :, j] satisfy
    U @ vectors[..., :, j] == exp(1j * phases[..., j]) * vectors[..., :, j].
    """

    phases: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return ((self.vectors * np.exp(1j * self.phases)[..., None, :])
                @ _adjoint(self.vectors))


def _as_matrix(vectors, dim_hint: int | None = None) -> np.ndarray:
    """Stack a list of 1-d vectors as columns of a complex matrix."""
    if len(vectors) == 0:
        dim = 0 if dim_hint is None else dim_hint
        return np.zeros((dim, 0), dtype=complex)
    cols = [np.asarray(v, dtype=complex).ravel() for v in vectors]
    dims = {c.shape[0] for c in cols}
    if len(dims) != 1:
        raise ValueError(f"dimension mismatch among input vectors: {sorted(dims)}")
    return np.stack(cols, axis=1)


def projector_from_set(vectors, dim: int | None = None) -> Projector:
    """Orthogonal projector onto the span of the given vectors.

    Built from the left singular vectors of the stacked inputs whose
    singular values exceed rank_tol times the largest input column norm,
    so its rank is the numerical rank of the inputs.
    """
    a = _as_matrix(vectors, dim_hint=dim)
    if a.shape[1] == 0:
        if a.shape[0] == 0:
            raise ValueError("empty vector set with unknown dimension; pass dim=")
        return Projector(np.zeros((a.shape[0], a.shape[0]), dtype=complex), 0)
    check_dim(a.shape[0])
    threshold = DEFAULT_TOL.rank_tol * float(np.max(np.linalg.norm(a, axis=0)))
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    q = u[:, s > threshold]
    return Projector(q @ q.conj().T, q.shape[1])


def reflection(p: Projector) -> np.ndarray:
    """The reflection 2P - I through the range of P."""
    return 2.0 * p.matrix - np.eye(p.dim, dtype=complex)


def _adjoint(u: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return u.conj().swapaxes(-1, -2)


def unitarity_residual(u: np.ndarray) -> float:
    """Largest entry of U^H U - I, over every matrix of a stack."""
    u = np.asarray(u, dtype=complex)
    return float(np.max(np.abs(_adjoint(u) @ u - np.eye(u.shape[-1])),
                        initial=0.0))


def _eig_2x2(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigenphases and eigenvectors of a (k, 2, 2) unitary stack.

    Writes each block as U = e^{i a} (cos b I + i sin b n.sigma) with
    e^{2 i a} = det U; the eigenvalues are e^{i a} (cos b +- i sin b) on
    the eigenvectors of n.sigma.  sin b comes from the Hermitian part
    H = sin b n.sigma of (V - V^H) / 2i, V = e^{-i a} U, and b is never
    taken from an arccos, so near-identity blocks keep their small phases.
    The +1 eigenvector of n.sigma is built from whichever of its two
    closed forms avoids cancellation, and the -1 eigenvector is its
    orthogonal complement, so each pair is orthonormal by construction.
    Blocks proportional to I (sin b = 0) keep the standard basis.
    """
    det = u[:, 0, 0] * u[:, 1, 1] - u[:, 0, 1] * u[:, 1, 0]
    half = np.exp(-0.5j * np.angle(det))
    v = u * half[:, None, None]
    cos = 0.5 * (v[:, 0, 0] + v[:, 1, 1]).real
    # (V - V^H) / 2i has traceless part [[h, g*], [g, -h]] = sin b n.sigma
    h = 0.5 * (v[:, 0, 0].imag - v[:, 1, 1].imag)
    g = (v[:, 1, 0] - v[:, 0, 1].conj()) / 2j
    sin = np.hypot(h, np.abs(g))
    top = np.where(h >= 0, sin + h, g.conj())
    bottom = np.where(h >= 0, g, sin - h)
    norm = np.hypot(np.abs(top), np.abs(bottom))
    flat = norm == 0.0
    top, norm = np.where(flat, 1.0, top), np.where(flat, 1.0, norm)
    top, bottom = top / norm, bottom / norm
    vectors = np.empty_like(u)
    vectors[:, 0, 0], vectors[:, 1, 0] = top, bottom
    vectors[:, 0, 1], vectors[:, 1, 1] = -bottom.conj(), top.conj()
    root = half.conj()
    phases = np.angle(np.stack([root * (cos + 1j * sin),
                                root * (cos - 1j * sin)], axis=-1))
    return phases, vectors


def _within_tol(resid: np.ndarray, axis=None):
    """Whether the largest residual entry is at most assert_tol: false for NaN."""
    return np.max(resid, axis=axis, initial=0.0) <= DEFAULT_TOL.assert_tol


def _first_block_over(resid: np.ndarray) -> int:
    """The first block of a failed stack whose residual is over assert_tol or NaN."""
    return int(np.flatnonzero(~_within_tol(resid, axis=(1, 2)))[0])


def unitary_eig(u: np.ndarray) -> SpectralDecomposition:
    """Spectral decomposition of a (k, 2, 2) stack of unitaries, in closed form.

    The blocks go through :func:`_eig_2x2`; every block's unitarity and
    reconstruction residuals must stay within assert_tol, and
    NonUnitaryError names the first block that fails, as it does a block
    with a NaN residual.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 3 or u.shape[1:] != (2, 2):
        raise ValueError(f"input must be a (k, 2, 2) stack, got shape {u.shape}")
    resid = np.abs(_adjoint(u) @ u - np.eye(2))
    if not _within_tol(resid):
        block = _first_block_over(resid)
        raise NonUnitaryError(f"block {block} is not unitary within tolerance", block)
    phases, q = _eig_2x2(u)
    phases = np.where(phases <= -np.pi + 1e-300, np.pi, phases)
    dec = SpectralDecomposition(phases=phases, vectors=q)
    resid = np.abs(dec.reconstruct() - u)
    if not _within_tol(resid):
        block = _first_block_over(resid)
        raise NonUnitaryError(f"spectral reconstruction residual "
                              f"{resid[block].max():.3e} too large in block {block}", block)
    return dec


def cluster_phases(phases: np.ndarray, cluster_tol: float) -> list[np.ndarray]:
    """Group sorted phase indices into clusters closer than cluster_tol.

    A cluster ends where consecutive sorted phases differ by more than
    cluster_tol, so a chain of close phases forms one cluster.
    """
    order = np.argsort(phases)
    if not len(order):
        return []
    gaps = np.abs(np.diff(np.asarray(phases)[order])) > cluster_tol
    return np.split(order, np.flatnonzero(gaps) + 1)
