"""Two-reflection phase-estimation instances for search.

Two variants share one representation:

* the *simple* variant queries the oracle at unit cost.  Its basis labels
  are (tag, i, b) with four flow tags: "src" (the launch node holding the
  initial state), "qry" (branch i queried), "ret" (result returned), and
  "chk" (result checked).
* the *general* variant replaces the unit-cost query with a variable-time
  subroutine.  Labels grow to (tag, i, b, a, z, t) where (a, z) is the
  subroutine's answer/workspace pair and t its program counter.  Three
  tags are added: "fwd" and "bwd" for the forward and rewind tracks of
  the subroutine run, and "turn", which is part of the label space but
  never carries amplitude (kept so the space matches its source
  definition exactly).

An instance consists of a unit initial vector and two families of
pairwise-orthogonal generator sets whose spans define the reflections; a
positive witness (marked input present) is orthogonal to both spans while
overlapping the initial vector, and a negative witness (no marked input)
splits the initial vector across the two spans.

Every generator touches only a few basis labels (at most 1 + 2|Z| in the
general variant), so each named set is stored as a sparse d x k CSC matrix
that the builders assemble straight from index arrays; no length-d vector
is allocated per generator, and each witness is one zero vector with its
entries (history_states among them) scattered in from index arrays.
Well-formedness, witness and reflection-factorization checks run on these
sparse matrices, and only the dense oracle paths (the span projectors and
the walk unitary) expand a set into dense columns.

Generators that share a basis label are joined into connected components
with disjoint label supports, over which both reflections and the walk are
block-diagonal.  PEInstance.psi0_component keeps only the components the
initial vector reaches, so decisions need no cap on the full dimension;
only the dense d x d paths check the dimension cap.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from .linalg import (DEFAULT_TOL, Projector, TolerancePolicy, check_dim,
                     projector_from_set, reflection)
from .grover import OracleSpec
# unused here, but the benchmark's tracer wraps stopping_profile in this module
from .subroutines import SubroutineSpec, stopping_profile

SIMPLE_TAGS = ("src", "qry", "ret", "chk")
GENERAL_TAGS = ("src", "qry", "ret", "chk", "fwd", "bwd", "turn")


@dataclass(frozen=True)
class SimpleBasis:
    """Index layout for the simple variant: (tag, i, b), i in 0..N."""

    n: int

    @property
    def dim(self) -> int:
        return 4 * (self.n + 1) * 2

    def index(self, tag: str, i: int, b: int) -> int:
        return (SIMPLE_TAGS.index(tag) * (self.n + 1) + i) * 2 + b

    def unit(self, tag: str, i: int, b: int) -> np.ndarray:
        """The basis vector of label (tag, i, b)."""
        v = np.zeros(self.dim, dtype=complex)
        v[self.index(tag, i, b)] = 1.0
        return v


@dataclass(frozen=True)
class GeneralBasis:
    """Index layout for the general variant: (tag, i, b, a, z, t)."""

    n: int
    workspace: int
    t_max: int

    @property
    def dim(self) -> int:
        return 7 * (self.n + 1) * 2 * 2 * self.workspace * (self.t_max + 1)

    def index(self, tag: str, i: int, b: int, a: int, z: int, t: int) -> int:
        d = GENERAL_TAGS.index(tag)
        return ((((d * (self.n + 1) + i) * 2 + b) * 2 + a)
                * self.workspace + z) * (self.t_max + 1) + t

    def unit(self, tag: str, i: int, b: int, a: int = 0, z: int = 0,
             t: int = 0) -> np.ndarray:
        """The basis vector of label (tag, i, b, a, z, t)."""
        v = np.zeros(self.dim, dtype=complex)
        v[self.index(tag, i, b, a, z, t)] = 1.0
        return v

    def az_indices(self, tag: str, i, b, t) -> np.ndarray:
        """Indices of the whole (a, z) block at fixed (tag, i, b, t), last axis."""
        base = np.asarray(self.index(tag, i, b, 0, 0, t))
        stride = self.t_max + 1
        return base[..., None] + np.arange(2 * self.workspace) * stride

    @staticmethod
    def for_spec(spec: SubroutineSpec) -> "GeneralBasis":
        return GeneralBasis(n=spec.num_inputs, workspace=spec.workspace_size,
                            t_max=spec.num_steps)


@dataclass(frozen=True)
class Weights:
    """Instance weights: per-input omega, per-step alpha, analysis-only beta.

    beta is keyed by 0-based marked input and only enters witness
    construction, never the reflections themselves.
    """

    omega: np.ndarray
    alpha: np.ndarray
    beta: dict[int, float]
    mu: float | None = None
    k: float | None = None

    def __post_init__(self):
        if np.any(self.omega <= 0) or np.any(self.alpha <= 0):
            raise ValueError("omega and alpha weights must be positive")
        if abs(self.alpha[0] - 1.0) > 1e-14:
            raise ValueError("the step-0 alpha weight is fixed to 1")
        if self.beta:
            s = sum(math.sqrt(b) for b in self.beta.values())
            if abs(s - 1.0) > 1e-12:
                raise ValueError(f"sqrt-beta must sum to 1, got {s}")


REGIMES = ("i-a", "i-b", "ii-a", "ii-b", "ii-c")


def promise_parameter(regime: str, exp_t: np.ndarray, exp_t2: np.ndarray,
                      marked) -> float:
    """The promise parameter of one regime on one marked set M.

    mu = |M| for i-a and ii-a; otherwise k = sum_{j in M} 1/c_j with
    c = E[T]^2 (i-b), E[T] (ii-b) or E[T^2] (ii-c).  The sum runs over
    marked in the order given, so callers that must agree bit for bit pass
    the same order.  Raises ValueError for an unknown regime or an empty M.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    if not marked:
        raise ValueError("the promise parameter needs a nonempty marked set")
    if regime in ("i-a", "ii-a"):
        return float(len(marked))
    if regime == "i-b":
        return float(sum(1.0 / exp_t[j] ** 2 for j in marked))
    cost = exp_t if regime == "ii-b" else exp_t2
    return float(sum(1.0 / cost[j] for j in marked))


def regime_parameters(regime: str, exp_t: np.ndarray, exp_t2: np.ndarray,
                      t_max: int, marked=(), mu: float | None = None,
                      k: float | None = None) -> Weights:
    """Weight settings for one of the five analysis regimes.

    exp_t / exp_t2 are the first and second stopping-time moments per
    input.  The regime's promise parameter is mu (i-a, ii-a) or k (the
    others); when it is not given it is promise_parameter on the marked
    set (a promise class of size one), which must then be nonempty.  beta
    is spread over the marked set; in ii-b and ii-c it is normalized by
    the marked set's own k, whatever k is given.  Known-cost regimes
    (i-a, i-b) put per-input costs into omega; unknown-cost regimes (ii-*)
    keep omega independent of i and shift the cost adaptivity into alpha.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    exp_t = np.asarray(exp_t, dtype=float)
    exp_t2 = np.asarray(exp_t2, dtype=float)
    n = len(exp_t)
    marked = sorted(set(marked))
    if np.any(exp_t < 1.0) or np.any(exp_t2 <= 0.0):
        raise ValueError("stopping-time moments must satisfy E[T] >= 1, E[T^2] > 0")
    alpha = np.ones(t_max + 1)
    # the marked set's own mu or k: the default, and beta's normalizer s_f
    s_f = promise_parameter(regime, exp_t, exp_t2, marked) if marked else None
    if regime in ("i-a", "ii-a"):
        mu = s_f if mu is None else mu
        if mu is None:
            raise ValueError("need mu or a nonempty marked set")
    else:
        k = s_f if k is None else k
        if k is None:
            raise ValueError("need k or a nonempty marked set")

    if regime == "i-a":
        omega = n / mu * exp_t
        beta = {i: 1.0 / len(marked) ** 2 for i in marked}
    elif regime == "i-b":
        omega = n / (k * exp_t)
        beta = {i: 1.0 / (exp_t[i] ** 4 * k ** 2) for i in marked}
    elif regime == "ii-a":
        alpha = np.arange(t_max + 1, dtype=float) + 1.0
        omega = np.full(n, n * max(math.log2(t_max), 1.0) / mu)
        beta = {i: 1.0 / len(marked) ** 2 for i in marked}
    elif regime == "ii-b":
        omega = np.full(n, n / k)
        beta = {i: (1.0 / exp_t[i] / s_f) ** 2 for i in marked}
    else:  # ii-c
        alpha = 1.0 / (np.arange(t_max + 1, dtype=float) + 1.0)
        omega = np.full(n, n / k)
        beta = {i: (1.0 / exp_t2[i] / s_f) ** 2 for i in marked}
    alpha[0] = 1.0
    return Weights(omega=omega, alpha=alpha, beta=beta, mu=mu, k=k)


# ---------------------------------------------------------------------------
# Instance container
# ---------------------------------------------------------------------------

def _set_matrix(dim: int, pieces) -> sparse.csc_array:
    """One generator set as a d x k CSC matrix, assembled from index arrays.

    Each piece is a (rows, values) pair of equal-shape 2-d arrays: row g
    of a piece lists the basis indices and the entries of one generator.
    Generators keep the order of the pieces and of the rows within them.
    Exact-zero entries (a step unitary's zeros) are not stored, so every
    stored entry is a basis label the generator touches.
    """
    if not pieces:
        return sparse.csc_array((dim, 0), dtype=complex)
    rows = np.concatenate([np.ravel(r) for r, _ in pieces])
    values = np.concatenate([np.ravel(v) for _, v in pieces]).astype(complex)
    counts = np.concatenate([np.full(len(r), r.shape[1]) for r, _ in pieces])
    indptr = np.concatenate([[0], np.cumsum(counts)])
    m = sparse.csc_array((values, rows, indptr), shape=(dim, len(counts)))
    m.sort_indices()
    m.eliminate_zeros()
    return m


def _hstack(dim: int, mats: list[sparse.csc_array]) -> sparse.csc_array:
    """Generator sets side by side as one d x k CSC matrix."""
    if not mats:
        return sparse.csc_array((dim, 0), dtype=complex)
    return sparse.hstack(mats, format="csc")


def _as_set_matrix(dim: int, vectors) -> sparse.csc_array:
    """A generator set given as a sparse matrix or as a list of dense vectors."""
    if sparse.issparse(vectors):
        m = sparse.csc_array(vectors, dtype=complex)
    elif len(vectors) == 0:
        m = sparse.csc_array((dim, 0), dtype=complex)
    else:
        m = sparse.csc_array(np.stack([np.asarray(v, dtype=complex).ravel()
                                       for v in vectors], axis=1))
    if m.shape[0] != dim:
        raise ValueError(f"generator length {m.shape[0]} does not match dim {dim}")
    return m


class PEInstance:
    """A two-reflection phase-estimation instance.

    Holds the initial vector and the named generator sets of the two
    reflection spans.  Each set is a sparse d x k CSC matrix whose columns
    are the generators; a list of dense vectors is accepted too (for
    hand-built instances) and converted once, so a_sets and b_sets always
    hold sparse matrices.  Projections and span-membership distances of
    single vectors run on the sparse side matrix, which is also the one
    place generator norms are computed and checked; the Gram residual and
    the cross-set cosines of the reflection-factorization check share one
    cached sparse Gram per side.  No set reflection is ever built.

    Each side's generators are pairwise orthogonal (well_formedness_report
    reports it), so the side's orthonormal span basis is its normalized
    generators; span_basis densifies them once, checks orthonormality, and
    raises rather than falling back when the check fails.  The decision
    engine takes the principal angles between the two spans from these
    bases of psi0_component, the instance cut down to the generator
    components psi0 reaches.  The dense projectors and the walk unitary are
    built lazily from an SVD of the dense generator columns instead, so
    the dense oracle does not share the engine's basis; they are d x d, so
    they alone check the dimension cap.
    """

    def __init__(self, dim: int, psi0: np.ndarray,
                 a_sets: dict[str, sparse.sparray | list[np.ndarray]],
                 b_sets: dict[str, sparse.sparray | list[np.ndarray]]):
        self.dim = dim
        self.psi0 = psi0
        self.a_sets = {k: _as_set_matrix(dim, v) for k, v in a_sets.items()}
        self.b_sets = {k: _as_set_matrix(dim, v) for k, v in b_sets.items()}
        # results that depend on a TolerancePolicy are keyed by it too, so a
        # call with one policy never reuses a check passed under another
        self._cache: dict[object, object] = {}

    def _sets(self, side: str) -> dict[str, sparse.csc_array]:
        return self.a_sets if side == "A" else self.b_sets

    def set_vectors(self, side: str, name: str) -> list[np.ndarray]:
        """The generators of one named set as dense vectors."""
        return list(self._sets(side)[name].T.toarray())

    def generators(self, side: str) -> list[np.ndarray]:
        """All of one side's generators as dense vectors, set by set.

        For the dense oracle paths; the sparse checks never call it.
        """
        return [v for name in self._sets(side) for v in self.set_vectors(side, name)]

    def _gen_matrix(self, side: str, tol: TolerancePolicy = DEFAULT_TOL):
        """The side's sets stacked column-wise, with the generator norms.

        Raises ValueError naming the side when a generator norm is at or
        below rank_tol: such a generator spans nothing, and every check
        that divides by its norm would report NaN instead.
        """
        key = f"mat_{side}"
        if key not in self._cache:
            m = _hstack(self.dim, list(self._sets(side).values()))
            # sequential per-column sums in row order, as a dense column norm
            cols = np.repeat(np.arange(m.shape[1]), np.diff(m.indptr))
            sq = m.data.real ** 2 + m.data.imag ** 2
            norms = np.sqrt(np.bincount(cols, weights=sq, minlength=m.shape[1]))
            self._cache[key] = (m, norms)
        m, norms = self._cache[key]
        if np.any(norms <= tol.rank_tol):
            raise ValueError(f"side {side}: generator norm {norms.min():.3e} "
                             f"is at or below rank_tol")
        return m, norms

    def _gram(self, side: str, tol: TolerancePolicy = DEFAULT_TOL):
        """The side's sparse generator Gram matrix (COO), with the norms."""
        m, norms = self._gen_matrix(side, tol)
        if f"gram_{side}" not in self._cache:
            self._cache[f"gram_{side}"] = (m.conj().T @ m).tocoo()
        return self._cache[f"gram_{side}"], norms

    def gram_offdiagonal_residual(self, side: str,
                                  tol: TolerancePolicy = DEFAULT_TOL) -> float:
        """Largest off-diagonal Gram entry among one side's generators."""
        gram, _ = self._gram(side, tol)
        off = gram.row != gram.col
        return float(np.max(np.abs(gram.data[off]), initial=0.0))

    def cross_set_cosine(self, side: str,
                         tol: TolerancePolicy = DEFAULT_TOL) -> float:
        """Largest |<g, h>| / (|g| |h|) over generators in different sets of a side.

        0 for a side with a single set; overlaps within a set are ignored.
        """
        gram, norms = self._gram(side, tol)
        sets = self._sets(side)
        owner = np.repeat(np.arange(len(sets)), [s.shape[1] for s in sets.values()])
        row, col = gram.row, gram.col
        cross = owner[row] != owner[col]
        cosines = np.abs(gram.data[cross]) / (norms[row[cross]] * norms[col[cross]])
        return float(np.max(cosines, initial=0.0))

    def projection_norm_sq(self, side: str, vec: np.ndarray,
                           tol: TolerancePolicy = DEFAULT_TOL) -> float:
        """Squared norm of the projection of vec onto one side's span.

        Valid because the side's generators are pairwise orthogonal.
        """
        m, norms = self._gen_matrix(side, tol)
        if m.shape[1] == 0:
            return 0.0
        overlaps = m.conj().T @ vec
        return float(np.sum(np.abs(overlaps) ** 2 / norms ** 2))

    def membership_residual(self, side: str, vec: np.ndarray,
                            tol: TolerancePolicy = DEFAULT_TOL) -> float:
        """Distance from vec to one side's span.

        Computed as the norm of the residual vector vec - P vec (not via
        squared norms, which would cancel catastrophically for vectors
        inside the span).
        """
        m, norms = self._gen_matrix(side, tol)
        if m.shape[1] == 0:
            return float(np.linalg.norm(vec))
        overlaps = m.conj().T @ vec
        residual = vec - m @ (overlaps / norms ** 2)
        return float(np.linalg.norm(residual))

    def span_basis(self, side: str, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
        """Orthonormal basis (dim x generator count) of one side's span.

        The side's generators, densified once and each divided by its
        norm.  This is a basis only because the generators are pairwise
        orthogonal, so that is checked here: a basis with max|Q^H Q - I|
        above assert_tol raises ValueError (as does a vanishing generator,
        in _gen_matrix).  Cached per side and tolerance policy.
        """
        key = ("basis", side, tol)
        if key not in self._cache:
            m, norms = self._gen_matrix(side, tol)
            q = m.toarray() / norms
            resid = float(np.max(np.abs(q.conj().T @ q - np.eye(q.shape[1])),
                                 initial=0.0))
            if resid > tol.assert_tol:
                raise ValueError(f"side {side}: normalized generators are not "
                                 f"orthonormal, residual {resid:.3e}")
            self._cache[key] = q
        return self._cache[key]

    def psi0_component(self) -> "PEInstance":
        """The instance on the generator components that psi0's support meets.

        Join a basis row and a generator when the generator touches the
        row.  Connected components of this rows <-> generators graph have
        disjoint row supports, so both spans split as orthogonal direct
        sums over them and W = R_A R_B is block-diagonal; a row that no
        generator touches is a component of its own, on which W = I.  The
        walk therefore keeps psi0 inside the union of the components its
        support meets, and the restriction to those rows (in their order)
        and generators (set names and generator order kept) has the same
        spectrum weights, zero-phase overlap and phase-register
        distribution as the full instance.  Cached.
        """
        if "component" not in self._cache:
            mats = [m for side in ("A", "B") for m in self._sets(side).values()]
            m = _hstack(self.dim, mats)
            gens = self.dim + np.repeat(np.arange(m.shape[1]), np.diff(m.indptr))
            nodes = self.dim + m.shape[1]
            graph = sparse.coo_array((np.ones(m.nnz), (m.indices, gens)),
                                     shape=(nodes, nodes))
            _, labels = connected_components(graph, directed=False)
            reached = np.isin(labels, labels[np.flatnonzero(self.psi0)])
            rows = np.flatnonzero(reached[:self.dim])
            start, parts = self.dim, []
            for side in ("A", "B"):
                part = {}
                for name, mat in self._sets(side).items():
                    part[name] = mat[rows][:, reached[start:start + mat.shape[1]]]
                    start += mat.shape[1]
                parts.append(part)
            self._cache["component"] = PEInstance(
                len(rows), self.psi0[rows], a_sets=parts[0], b_sets=parts[1])
        return self._cache["component"]

    def projector(self, side: str, tol: TolerancePolicy = DEFAULT_TOL) -> Projector:
        """Dense projector onto one side's span, from an SVD of its generators.

        Computed independently of span_basis, so the dense walk built from
        it checks the decision engine rather than sharing its basis.
        Cached per side and tolerance policy (rank_tol sets the rank).
        """
        key = ("proj", side, tol)
        if key not in self._cache:
            check_dim(self.dim)
            self._cache[key] = projector_from_set(self.generators(side), tol,
                                                  dim=self.dim)
        return self._cache[key]

    def walk_unitary(self, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
        key = ("walk", tol)
        if key not in self._cache:
            ra = reflection(self.projector("A", tol))
            rb = reflection(self.projector("B", tol))
            self._cache[key] = ra @ rb
        return self._cache[key]

    def well_formedness_report(self, tol: TolerancePolicy = DEFAULT_TOL) -> dict:
        """Orthogonality within each side and psi0 against the B span."""
        psi0_b = math.sqrt(max(self.projection_norm_sq("B", self.psi0, tol), 0.0))
        report = {
            "gram_offdiag_A": self.gram_offdiagonal_residual("A", tol),
            "gram_offdiag_B": self.gram_offdiagonal_residual("B", tol),
            "psi0_norm_residual": abs(float(np.linalg.norm(self.psi0)) - 1.0),
            "psi0_overlap_B": psi0_b,
        }
        report["passed"] = all(v <= tol.assert_tol for v in report.values())
        return report


# ---------------------------------------------------------------------------
# Simple variant
# ---------------------------------------------------------------------------

def build_simple_instance(oracle: OracleSpec, omega: float) -> PEInstance:
    """Unit-cost-query loop instance over domain [1..N] (label 0 reserved).

    Generator sets: "launch" (one vector tying the source label to all
    query branches, weighted by omega), "query" (query transition folding
    the oracle answer into the returned bit), "check" (return-to-check
    transitions for both bit values), "absorb" (checked unmarked branches,
    the dead end that closes the loop).  Each set is built as a sparse
    matrix from index arrays.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    n = oracle.size
    basis = SimpleBasis(n)

    idx = basis.index
    i = np.arange(1, n + 1)
    answer = np.array([int((k - 1) in oracle.marked) for k in i], dtype=int)
    pair = np.array([[1.0, -1.0]])

    launch = (np.concatenate([[idx("src", 0, 0)], idx("qry", i, 0)])[None, :],
              np.concatenate([[1.0], np.full(n, -math.sqrt(omega / n))])[None, :])
    # the query transition carries the oracle's answer into the b register
    query = (np.stack([idx("qry", i, 0), idx("ret", i, answer)], axis=1),
             np.repeat(pair, n, axis=0))
    ic, bc = np.repeat(i, 2), np.tile([0, 1], n)
    check = (np.stack([idx("ret", ic, bc), idx("chk", ic, bc)], axis=1),
             np.repeat(pair, 2 * n, axis=0))
    unmarked = i[answer == 0]
    absorb = (idx("chk", unmarked, 0)[:, None], np.ones((len(unmarked), 1)))

    dim = basis.dim
    return PEInstance(
        dim=dim, psi0=basis.unit("src", 0, 0),
        a_sets={"launch": _set_matrix(dim, [launch]),
                "check": _set_matrix(dim, [check])},
        b_sets={"query": _set_matrix(dim, [query]),
                "absorb": _set_matrix(dim, [absorb])},
    )


@dataclass(frozen=True)
class PositiveWitness:
    vector: np.ndarray
    closed_norm_sq: float


@dataclass(frozen=True)
class NegativeWitness:
    w_a: np.ndarray
    w_b: np.ndarray
    closed_norm_sq: float   # closed form for the squared norm of w_a


def _scatter(dim: int, pieces) -> np.ndarray:
    """Sum of (rows, values) pieces as a d-vector; no two entries share a label."""
    vec = np.zeros(dim, dtype=complex)
    vec[np.concatenate([np.ravel(r) for r, _ in pieces])] = np.concatenate(
        [np.broadcast_to(v, np.shape(r)).ravel() for r, v in pieces])
    return vec


def simple_witnesses(oracle: OracleSpec, omega: float):
    """Witness for the simple instance: positive iff a marked element exists.

    Positive: norm^2 = 1 + 3N/(|M| omega), unit overlap with the source
    state.  Negative: the source state splits exactly across the two
    spans, with norm^2 of the launch-side part equal to 1 + 3 omega.
    """
    n = oracle.size
    basis = SimpleBasis(n)
    idx = basis.index
    src = idx("src", 0, 0)

    if oracle.marked:
        m_count = len(oracle.marked)
        i = np.array(sorted(oracle.marked)) + 1
        coef = (1.0 / m_count) * math.sqrt(n / omega)
        path = np.stack([idx("qry", i, 0), idx("ret", i, 1), idx("chk", i, 1)])
        w = _scatter(basis.dim, [(src, 1.0), (path, coef)])
        return PositiveWitness(vector=w,
                               closed_norm_sq=1.0 + 3.0 * n / (m_count * omega))

    i = np.arange(1, n + 1)
    coef = math.sqrt(omega / n)
    w_a = _scatter(basis.dim, [(src, 1.0), (idx("qry", i, 0), -coef),
                               (idx("ret", i, 0), coef), (idx("chk", i, 0), -coef)])
    w_b = -w_a
    w_b[src] += 1.0
    return NegativeWitness(w_a=w_a, w_b=w_b, closed_norm_sq=1.0 + 3.0 * omega)


# ---------------------------------------------------------------------------
# General variant: history states and witnesses
# ---------------------------------------------------------------------------

def history_states(spec: SubroutineSpec, inputs, alpha: np.ndarray):
    """History states of the given inputs as (rows, plus, minus, norm_plus, norm_minus).

    Row j of rows lists the distinct labels of input inputs[j]'s history:
    the (a, z) block at every program counter t on the "fwd" (bit 0) and
    "bwd" (bit f(i)) tracks.  plus[j] and minus[j] are the forward and
    rewind states on those labels: 1/sqrt(alpha_t) weights on both tracks,
    and alternating-sign sqrt(alpha_t) weights with a relative minus sign
    between tracks.  norm_plus and norm_minus are their closed squared
    norms, from spec.stopping_profiles.
    """
    alpha = np.asarray(alpha, dtype=float)
    if len(alpha) != spec.num_steps + 1 or abs(alpha[0] - 1.0) > 1e-14:
        raise ValueError("need one positive alpha per step with alpha[0] = 1")
    if np.any(alpha <= 0):
        raise ValueError("alpha weights must be positive")
    inputs = np.asarray(inputs, dtype=int)
    if np.any((inputs < 0) | (inputs >= spec.num_inputs)):
        raise IndexError(f"input index out of range 0..{spec.num_inputs - 1}")
    basis = GeneralBasis.for_spec(spec)
    i, t = inputs[:, None] + 1, np.arange(spec.num_steps + 1)
    fi = np.asarray(spec.outputs, dtype=int)[inputs][:, None]
    # (input, t, track, (a, z) block)
    rows = np.stack([basis.az_indices("fwd", i, 0, t),
                     basis.az_indices("bwd", i, fi, t)], axis=2)
    # the part halted by step t - 1 is projected away before step t, so the
    # squared norm of states[j, t] is the survival probability P[T_i >= t]
    states = np.zeros((len(inputs), len(t), spec.space_dim), dtype=complex)
    states[:, 0] = spec.initial_state()
    for step in range(1, len(t)):
        live = ~spec.halted_mask(step - 1)
        for j, k in enumerate(inputs):
            states[j, step] = (spec.unitaries[k, step - 1]
                               @ np.where(live, states[j, step - 1], 0))
    forward = states / np.sqrt(alpha)[:, None]
    signed = states * np.array([(-1.0) ** s * math.sqrt(a)
                                for s, a in enumerate(alpha)])[:, None]
    width = 2 * len(t) * spec.space_dim
    profiles = [spec.stopping_profiles[k] for k in inputs]
    return (rows.reshape(-1, width),
            np.stack([forward, forward], axis=2).reshape(-1, width),
            np.stack([signed, -signed], axis=2).reshape(-1, width),
            np.array([2.0 * p.expected_sum(lambda s: 1.0 / alpha[s]) for p in profiles]),
            np.array([2.0 * p.expected_sum(lambda s: alpha[s]) for p in profiles]))


def build_general_instance(spec: SubroutineSpec, weights: Weights) -> PEInstance:
    """Loop instance whose query is implemented by a variable-time subroutine.

    Slot sets ("launch", "forward", "backward", "check", "absorb") live at
    program counter 0 and workspace 0 and mirror the simple variant; the
    inner transition sets ("even", "odd" by step parity) carry the
    subroutine steps on the fwd/bwd tracks and the turnaround vectors that
    reverse direction on freshly halted workspace labels.  Each set is
    built as a sparse matrix from index arrays; the inner generators of
    one step are computed for all inputs at once.
    """
    n = spec.num_inputs
    basis = GeneralBasis.for_spec(spec)
    if len(weights.omega) != n or len(weights.alpha) != spec.num_steps + 1:
        raise ValueError("weights do not match the subroutine dimensions")
    alpha = weights.alpha
    w = spec.workspace_size
    t_max = spec.num_steps

    idx = basis.index
    inputs = np.arange(1, n + 1)
    pair = np.array([[1.0, -1.0]])
    # slot generators run over (i, b, a) with a fastest, at z = 0, t = 0
    i_s = np.repeat(inputs, 4)
    b_s, a_s = np.tile(np.repeat([0, 1], 2), n), np.tile([0, 1], 2 * n)

    def slot(tag_plus, tag_minus):
        rows = np.stack([idx(tag_plus, i_s, b_s, a_s, 0, 0),
                         idx(tag_minus, i_s, b_s, a_s, 0, 0)], axis=1)
        return [(rows, np.repeat(pair, len(i_s), axis=0))]

    launch = [(np.concatenate([[idx("src", 0, 0, 0, 0, 0)],
                               idx("src", inputs, 0, 0, 0, 0)])[None, :],
               np.concatenate([[1.0], -np.sqrt(weights.omega / n)])[None, :])]
    unmarked = np.repeat(inputs[np.array(spec.outputs) == 0], 2)
    a_u = np.tile([0, 1], len(unmarked) // 2)
    absorb = [(idx("chk", unmarked, 0, a_u, 0, 0)[:, None],
               np.ones((len(unmarked), 1)))]

    # inner transitions at step t run over (tag, b, a, z) with z fastest:
    # sqrt(alpha_t) on the label, -sqrt(alpha_{t+1}) U_{t+1} column on the
    # (a, z) block one step later
    i_g, b_g = inputs[:, None, None, None], np.array([0, 1])[:, None, None]
    a_g = np.array([0, 1])[None, :, None]
    steps = []   # (step, rows, values), each with a leading input axis
    for t in range(t_max):
        halted = spec.halted_labels(t)
        z_g = np.array([z for z in range(w) if z not in halted], dtype=int)
        shape = (n, 2, 2, 2, len(z_g), 2 * w)   # input, tag, b, a, z, entry
        here = np.stack([idx(tag, i_g, b_g, a_g, z_g, t)
                         for tag in ("fwd", "bwd")], axis=1)
        there = np.stack([basis.az_indices(tag, i_g, b_g, t + 1)
                          for tag in ("fwd", "bwd")], axis=1)
        u_cols = spec.unitaries[:, t][:, :, a_g * w + z_g]
        # subtracted from zero, as the label-by-label construction does
        there_values = np.moveaxis(0.0 - math.sqrt(alpha[t + 1]) * u_cols, 1, -1)
        rows = np.concatenate([np.broadcast_to(here[..., None], shape[:-1] + (1,)),
                               np.broadcast_to(there, shape)], axis=-1)
        values = np.concatenate([np.full(shape[:-1] + (1,), math.sqrt(alpha[t]),
                                         dtype=complex),
                                 np.broadcast_to(there_values[:, None], shape)],
                                axis=-1)
        steps.append((t, rows.reshape(n, -1, 2 * w + 1),
                      values.reshape(n, -1, 2 * w + 1)))
    # turnarounds at step t run over (a, b, z in the step's cell)
    for t in range(1, t_max + 1):
        cell = np.array(spec.partition[t - 1], dtype=int)
        a_t = np.repeat([0, 1], 2 * len(cell))
        b_t = np.tile(np.repeat([0, 1], len(cell)), 2)
        z_t = np.tile(cell, 4)
        rows = np.stack([idx("fwd", inputs[:, None], b_t, a_t, z_t, t),
                         idx("bwd", inputs[:, None], b_t ^ a_t, a_t, z_t, t)],
                        axis=-1)
        steps.append((t, rows, np.broadcast_to(pair, rows.shape)))
    # per input: its transitions by step, then its turnarounds by step
    even: list[tuple[np.ndarray, np.ndarray]] = []
    odd: list[tuple[np.ndarray, np.ndarray]] = []
    for j in range(n):
        for t, rows, values in steps:
            (even if t % 2 == 0 else odd).append((rows[j], values[j]))

    dim = basis.dim
    return PEInstance(
        dim=dim, psi0=basis.unit("src", 0, 0),
        a_sets={"launch": _set_matrix(dim, launch),
                "even": _set_matrix(dim, even),
                "check": _set_matrix(dim, slot("ret", "chk"))},
        b_sets={"forward": _set_matrix(dim, slot("src", "fwd")),
                "odd": _set_matrix(dim, odd),
                "backward": _set_matrix(dim, slot("bwd", "ret")),
                "absorb": _set_matrix(dim, absorb)},
    )


def general_positive_witness(spec: SubroutineSpec, weights: Weights) -> PositiveWitness:
    """Positive witness built from forward history states of marked inputs.

    Closed squared norm: 1 + N sum_{marked} (beta_i/omega_i)
    (3 + 2 E[sum_{t<=T_i} 1/alpha_t]).
    """
    marked = [j for j, b in enumerate(spec.outputs) if b == 1]
    if not marked:
        raise ValueError("positive witness requires a marked input")
    if set(weights.beta) != set(marked):
        raise ValueError("beta weights must cover exactly the marked inputs")
    basis = GeneralBasis.for_spec(spec)
    n = spec.num_inputs
    rows, plus, _, norm_plus, _ = history_states(spec, marked, weights.alpha)
    coef = np.array([math.sqrt(n) * math.sqrt(weights.beta[j])
                     / math.sqrt(weights.omega[j]) for j in marked])[:, None]
    i = np.array(marked)[:, None] + 1
    slots = np.concatenate([basis.index(tag, i, b, 0, 0, 0)
                            for tag, b in (("src", 0), ("ret", 1), ("chk", 1))], axis=1)
    vec = _scatter(basis.dim, [(basis.index("src", 0, 0, 0, 0, 0), 1.0),
                               (slots, coef), (rows, coef * plus)])
    closed = 1.0
    for j, norm in zip(marked, norm_plus):
        closed += n * weights.beta[j] / weights.omega[j] * (2.0 + norm + 1.0)
    return PositiveWitness(vector=vec, closed_norm_sq=closed)


def general_negative_witness(spec: SubroutineSpec, weights: Weights) -> NegativeWitness:
    """Negative witness from rewind history states; requires no marked input.

    Closed squared norm of the A-side part:
    1 + (1/N) sum_i omega_i (3 + 2 E[sum_{t<=T_i} alpha_t]).
    """
    if any(spec.outputs):
        raise ValueError("negative witness requires an all-unmarked subroutine")
    basis = GeneralBasis.for_spec(spec)
    n = spec.num_inputs
    rows, _, minus, _, norm_minus = history_states(spec, range(n), weights.alpha)
    coef = np.sqrt(weights.omega / n)[:, None]
    i = np.arange(1, n + 1)[:, None]
    slots = np.concatenate([basis.index(tag, i, 0, 0, 0, 0)
                            for tag in ("src", "ret", "chk")], axis=1)
    psi0_idx = basis.index("src", 0, 0, 0, 0, 0)
    w_a = _scatter(basis.dim, [(psi0_idx, 1.0), (slots, coef * [-1.0, 1.0, -1.0]),
                               (rows, coef * minus)])
    closed = 1.0
    for j in range(n):
        closed += weights.omega[j] / n * (2.0 + norm_minus[j] + 1.0)
    w_b = -w_a
    w_b[psi0_idx] += 1.0
    return NegativeWitness(w_a=w_a, w_b=w_b, closed_norm_sq=closed)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

@dataclass
class WitnessReport:
    """Residuals and norm comparisons for one witness against one instance."""

    kind: str
    residual_a: float
    residual_b: float
    decomposition_residual: float
    overlap: float
    norm_sq_measured: float
    norm_sq_closed: float
    c_plus_effective: float | None = None
    c_minus_effective: float | None = None

    def passed(self, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
        return (self.residual_a <= tol.assert_tol
                and self.residual_b <= tol.assert_tol
                and self.decomposition_residual <= tol.assert_tol
                and abs(self.norm_sq_measured - self.norm_sq_closed) <= tol.assert_tol)

    def to_jsonable(self) -> dict:
        return asdict(self)


def verify_witnesses(instance: PEInstance, witness,
                     tol: TolerancePolicy = DEFAULT_TOL) -> WitnessReport:
    """Check a witness against an instance and report residuals.

    Positive: residuals are the norms of the projections onto the two
    spans (should vanish); effective c_plus is norm^2 / overlap^2.
    Negative: residuals are span-membership distances of the two parts,
    and the decomposition residual measures w_a + w_b - psi0.
    """
    if isinstance(witness, PositiveWitness):
        vec = witness.vector
        overlap = complex(np.vdot(instance.psi0, vec))
        norm_sq = float(np.linalg.norm(vec) ** 2)
        res_a = math.sqrt(max(instance.projection_norm_sq("A", vec, tol), 0.0))
        res_b = math.sqrt(max(instance.projection_norm_sq("B", vec, tol), 0.0))
        c_plus = norm_sq / abs(overlap) ** 2 if abs(overlap) > 0 else math.inf
        return WitnessReport(kind="positive", residual_a=res_a, residual_b=res_b,
                             decomposition_residual=0.0, overlap=abs(overlap),
                             norm_sq_measured=norm_sq,
                             norm_sq_closed=witness.closed_norm_sq,
                             c_plus_effective=c_plus)
    if isinstance(witness, NegativeWitness):
        res_a = instance.membership_residual("A", witness.w_a, tol)
        res_b = instance.membership_residual("B", witness.w_b, tol)
        decomp = float(np.linalg.norm(witness.w_a + witness.w_b - instance.psi0))
        norm_sq = float(np.linalg.norm(witness.w_a) ** 2)
        return WitnessReport(kind="negative", residual_a=res_a, residual_b=res_b,
                             decomposition_residual=decomp, overlap=0.0,
                             norm_sq_measured=norm_sq,
                             norm_sq_closed=witness.closed_norm_sq,
                             c_minus_effective=norm_sq)
    raise TypeError(f"unsupported witness type {type(witness)!r}")
