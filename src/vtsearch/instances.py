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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (DEFAULT_TOL, Projector, TolerancePolicy, check_dim,
                     projector_from_set, reflection)
from .grover import OracleSpec
from .subroutines import SubroutineSpec, StoppingProfile, stopping_profile

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

    def az_indices(self, tag: str, i: int, b: int, t: int) -> np.ndarray:
        """Indices of the whole (a, z) block at fixed (tag, i, b, t)."""
        base = self.index(tag, i, b, 0, 0, t)
        stride = self.t_max + 1
        return base + np.arange(2 * self.workspace) * stride

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
    regime: str = "custom"
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


def regime_parameters(regime: str, exp_t: np.ndarray, exp_t2: np.ndarray,
                      t_max: int, marked=(), mu: float | None = None,
                      k: float | None = None) -> Weights:
    """Weight settings for one of the five analysis regimes.

    exp_t / exp_t2 are the first and second stopping-time moments per
    input.  mu and k are promise-class parameters; when omitted they are
    computed from the supplied marked set (promise class of size one).
    Known-cost regimes (i-a, i-b) put per-input costs into omega;
    unknown-cost regimes (ii-*) keep omega independent of i and shift the
    cost adaptivity into alpha.
    """
    exp_t = np.asarray(exp_t, dtype=float)
    exp_t2 = np.asarray(exp_t2, dtype=float)
    n = len(exp_t)
    marked = sorted(set(marked))
    if np.any(exp_t < 1.0) or np.any(exp_t2 <= 0.0):
        raise ValueError("stopping-time moments must satisfy E[T] >= 1, E[T^2] > 0")
    alpha = np.ones(t_max + 1)
    beta: dict[int, float] = {}

    if regime == "i-a":
        if mu is None:
            if not marked:
                raise ValueError("need mu or a nonempty marked set")
            mu = float(len(marked))
        omega = n / mu * exp_t
        beta = {i: 1.0 / len(marked) ** 2 for i in marked}
    elif regime == "i-b":
        if k is None:
            if not marked:
                raise ValueError("need k or a nonempty marked set")
            k = float(sum(1.0 / exp_t[j] ** 2 for j in marked))
        omega = n / (k * exp_t)
        beta = {i: 1.0 / (exp_t[i] ** 4 * k ** 2) for i in marked}
    elif regime == "ii-a":
        if mu is None:
            if not marked:
                raise ValueError("need mu or a nonempty marked set")
            mu = float(len(marked))
        alpha = np.arange(t_max + 1, dtype=float) + 1.0
        omega = np.full(n, n * max(math.log2(t_max), 1.0) / mu)
        beta = {i: 1.0 / len(marked) ** 2 for i in marked}
    elif regime == "ii-b":
        if k is None:
            if not marked:
                raise ValueError("need k or a nonempty marked set")
            k = float(sum(1.0 / exp_t[j] for j in marked))
        omega = np.full(n, n / k)
        s_f = float(sum(1.0 / exp_t[j] for j in marked))
        beta = {i: (1.0 / exp_t[i] / s_f) ** 2 for i in marked}
    elif regime == "ii-c":
        if k is None:
            if not marked:
                raise ValueError("need k or a nonempty marked set")
            k = float(sum(1.0 / exp_t2[j] for j in marked))
        alpha = 1.0 / (np.arange(t_max + 1, dtype=float) + 1.0)
        omega = np.full(n, n / k)
        s_f = float(sum(1.0 / exp_t2[j] for j in marked))
        beta = {i: (1.0 / exp_t2[i] / s_f) ** 2 for i in marked}
    else:
        raise ValueError(f"unknown regime {regime!r}")
    alpha[0] = 1.0
    return Weights(omega=omega, alpha=alpha, beta=beta, regime=regime, mu=mu, k=k)


# ---------------------------------------------------------------------------
# Instance container
# ---------------------------------------------------------------------------

class PEInstance:
    """A two-reflection phase-estimation instance.

    Holds the initial vector and the tagged generator sets for the two
    reflection spans.  Each side's generators are pairwise orthogonal
    (well_formedness_report reports it), so the side's orthonormal span
    basis is its normalized generators; span_basis builds it once, checks
    it, and raises rather than falling back when the check fails.  The
    decision engine takes the principal angles between the two spans from
    these bases.  Dense projectors, sub-projectors and the walk unitary
    are built lazily from an SVD of the generators instead, so the dense
    oracle does not share the engine's basis.  Projections of single
    vectors go through the generator lists directly.
    """

    def __init__(self, variant: str, dim: int, psi0: np.ndarray,
                 a_sets: dict[str, list[np.ndarray]],
                 b_sets: dict[str, list[np.ndarray]],
                 weights: Weights | None = None,
                 spec: SubroutineSpec | None = None,
                 oracle: OracleSpec | None = None,
                 basis=None):
        self.variant = variant
        self.dim = dim
        self.psi0 = psi0
        self.a_sets = a_sets
        self.b_sets = b_sets
        self.weights = weights
        self.spec = spec
        self.oracle = oracle
        self.basis = basis
        self._cache: dict[str, object] = {}

    def generators(self, side: str) -> list[np.ndarray]:
        sets = self.a_sets if side == "A" else self.b_sets
        return [v for vs in sets.values() for v in vs]

    def _gen_matrix(self, side: str):
        key = f"mat_{side}"
        if key not in self._cache:
            gens = self.generators(side)
            m = np.stack(gens, axis=1) if gens else np.zeros((self.dim, 0), complex)
            norms = np.linalg.norm(m, axis=0)
            self._cache[key] = (m, norms)
        return self._cache[key]

    def gram_offdiagonal_residual(self, side: str) -> float:
        """Largest off-diagonal Gram entry among one side's generators."""
        m, _ = self._gen_matrix(side)
        gram = m.conj().T @ m
        np.fill_diagonal(gram, 0.0)
        return float(np.max(np.abs(gram))) if gram.size else 0.0

    def projection_norm_sq(self, side: str, vec: np.ndarray) -> float:
        """Squared norm of the projection of vec onto one side's span.

        Valid because the side's generators are pairwise orthogonal.
        """
        m, norms = self._gen_matrix(side)
        if m.shape[1] == 0:
            return 0.0
        overlaps = m.conj().T @ vec
        return float(np.sum(np.abs(overlaps) ** 2 / norms ** 2))

    def membership_residual(self, side: str, vec: np.ndarray) -> float:
        """Distance from vec to one side's span.

        Computed as the norm of the residual vector vec - P vec (not via
        squared norms, which would cancel catastrophically for vectors
        inside the span).
        """
        m, norms = self._gen_matrix(side)
        if m.shape[1] == 0:
            return float(np.linalg.norm(vec))
        overlaps = m.conj().T @ vec
        residual = vec - m @ (overlaps / norms ** 2)
        return float(np.linalg.norm(residual))

    def span_basis(self, side: str, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
        """Orthonormal basis (dim x generator count) of one side's span.

        The side's generators, each divided by its norm.  This is a basis
        only because the generators are pairwise orthogonal, so that is
        checked here: a generator norm at or below rank_tol, or a basis
        with max|Q^H Q - I| above assert_tol, raises ValueError.
        """
        key = f"basis_{side}"
        if key not in self._cache:
            check_dim(self.dim)
            m, norms = self._gen_matrix(side)
            if np.any(norms <= tol.rank_tol):
                raise ValueError(f"side {side}: generator norm {norms.min():.3e} "
                                 f"is at or below rank_tol")
            q = m / norms
            resid = float(np.max(np.abs(q.conj().T @ q - np.eye(q.shape[1])),
                                 initial=0.0))
            if resid > tol.assert_tol:
                raise ValueError(f"side {side}: normalized generators are not "
                                 f"orthonormal, residual {resid:.3e}")
            self._cache[key] = q
        return self._cache[key]

    def projector(self, side: str, tol: TolerancePolicy = DEFAULT_TOL) -> Projector:
        """Dense projector onto one side's span, from an SVD of its generators.

        Computed independently of span_basis, so the dense walk built from
        it checks the decision engine rather than sharing its basis.
        """
        key = f"proj_{side}"
        if key not in self._cache:
            self._cache[key] = projector_from_set(self.generators(side), tol,
                                                  dim=self.dim)
        return self._cache[key]

    def sub_reflection(self, side: str, name: str,
                       tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
        sets = self.a_sets if side == "A" else self.b_sets
        p = projector_from_set(sets[name], tol, dim=self.dim)
        return reflection(p)

    def walk_unitary(self, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
        if "walk" not in self._cache:
            ra = reflection(self.projector("A", tol))
            rb = reflection(self.projector("B", tol))
            self._cache["walk"] = ra @ rb
        return self._cache["walk"]

    def well_formedness_report(self, tol: TolerancePolicy = DEFAULT_TOL) -> dict:
        """Orthogonality within each side and psi0 against the B span."""
        psi0_b = math.sqrt(max(self.projection_norm_sq("B", self.psi0), 0.0))
        report = {
            "gram_offdiag_A": self.gram_offdiagonal_residual("A"),
            "gram_offdiag_B": self.gram_offdiagonal_residual("B"),
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
    the dead end that closes the loop).
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    n = oracle.size
    basis = SimpleBasis(n)
    check_dim(basis.dim)

    e = basis.unit

    launch = e("src", 0, 0)
    for i in range(1, n + 1):
        launch -= math.sqrt(omega / n) * e("qry", i, 0)
    # the query transition carries the oracle's answer into the b register
    query = [e("qry", i, 0) - e("ret", i, 1 if (i - 1) in oracle.marked else 0)
             for i in range(1, n + 1)]
    check = [e("ret", i, b) - e("chk", i, b)
             for i in range(1, n + 1) for b in (0, 1)]
    absorb = [e("chk", i, 0) for i in range(1, n + 1)
              if (i - 1) not in oracle.marked]

    return PEInstance(
        variant="simple", dim=basis.dim, psi0=e("src", 0, 0),
        a_sets={"launch": [launch], "check": check},
        b_sets={"query": query, "absorb": absorb},
        oracle=oracle, basis=basis,
        weights=Weights(omega=np.full(n, float(omega)), alpha=np.ones(1),
                        beta={}, regime="simple"),
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


def simple_witnesses(oracle: OracleSpec, omega: float):
    """Witness for the simple instance: positive iff a marked element exists.

    Positive: norm^2 = 1 + 3N/(|M| omega), unit overlap with the source
    state.  Negative: the source state splits exactly across the two
    spans, with norm^2 of the launch-side part equal to 1 + 3 omega.
    """
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


# ---------------------------------------------------------------------------
# General variant: history states and witnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HistoryTriple:
    """Forward/rewind computation-history states for one input."""

    w_plus: np.ndarray
    w_minus: np.ndarray
    w_minus_prime: np.ndarray
    norm_plus_closed: float
    norm_minus_closed: float


def _inner_history(spec: SubroutineSpec, i: int) -> list[np.ndarray]:
    """Step-by-step states on the answer-workspace space, halted parts frozen.

    Entry t is the state after step t with the halted-by-(t-1) component
    projected away *before* each step, so its squared norm is the survival
    probability P[T_i >= t].
    """
    states = [spec.initial_state()]
    for t in range(1, spec.num_steps + 1):
        prev = states[-1].copy()
        mask = spec.halted_mask(t - 1)
        prev[mask] = 0.0
        states.append(spec.unitaries[i, t - 1] @ prev)
    return states


def history_states(spec: SubroutineSpec, i: int, alpha: np.ndarray,
                   basis: GeneralBasis | None = None) -> HistoryTriple:
    """History states of input i embedded in the full instance space.

    The forward state spreads the run over the program counter with
    1/sqrt(alpha_t) weights on both the "fwd" (bit 0) and "bwd" (bit
    f(i)) tracks; the rewind state uses alternating-sign sqrt(alpha_t)
    weights with a relative minus sign between tracks.
    """
    alpha = np.asarray(alpha, dtype=float)
    if len(alpha) != spec.num_steps + 1 or abs(alpha[0] - 1.0) > 1e-14:
        raise ValueError("need one positive alpha per step with alpha[0] = 1")
    if np.any(alpha <= 0):
        raise ValueError("alpha weights must be positive")
    if basis is None:
        basis = GeneralBasis.for_spec(spec)
    fi = spec.outputs[i]
    inner = _inner_history(spec, i)
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
    w_minus_prime = w_minus.copy()
    w_minus_prime[basis.index("fwd", i + 1, 0, 0, 0, 0)] -= 1.0
    w_minus_prime[basis.index("bwd", i + 1, fi, 0, 0, 0)] += 1.0

    norm_plus = 2.0 * profile.expected_sum(lambda t: 1.0 / alpha[t])
    norm_minus = 2.0 * profile.expected_sum(lambda t: alpha[t])
    return HistoryTriple(w_plus=w_plus, w_minus=w_minus,
                         w_minus_prime=w_minus_prime,
                         norm_plus_closed=norm_plus,
                         norm_minus_closed=norm_minus)


def build_general_instance(spec: SubroutineSpec, weights: Weights) -> PEInstance:
    """Loop instance whose query is implemented by a variable-time subroutine.

    Slot sets ("launch", "forward", "backward", "check", "absorb") live at
    program counter 0 and workspace 0 and mirror the simple variant; the
    inner transition sets ("even", "odd" by step parity) carry the
    subroutine steps on the fwd/bwd tracks and the turnaround vectors that
    reverse direction on freshly halted workspace labels.
    """
    n = spec.num_inputs
    basis = GeneralBasis.for_spec(spec)
    check_dim(basis.dim)
    if len(weights.omega) != n or len(weights.alpha) != spec.num_steps + 1:
        raise ValueError("weights do not match the subroutine dimensions")
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

    even: list[np.ndarray] = []
    odd: list[np.ndarray] = []
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

    return PEInstance(
        variant="general", dim=basis.dim, psi0=e("src", 0, 0),
        a_sets={"launch": [launch], "even": even, "check": check},
        b_sets={"forward": forward, "odd": odd, "backward": backward,
                "absorb": absorb},
        weights=weights, spec=spec, basis=basis,
    )


def general_positive_witness(spec: SubroutineSpec, weights: Weights,
                             basis: GeneralBasis | None = None) -> PositiveWitness:
    """Positive witness built from forward history states of marked inputs.

    Closed squared norm: 1 + N sum_{marked} (beta_i/omega_i)
    (3 + 2 E[sum_{t<=T_i} 1/alpha_t]).
    """
    marked = [j for j, b in enumerate(spec.outputs) if b == 1]
    if not marked:
        raise ValueError("positive witness requires a marked input")
    if set(weights.beta) != set(marked):
        raise ValueError("beta weights must cover exactly the marked inputs")
    if basis is None:
        basis = GeneralBasis.for_spec(spec)
    n = spec.num_inputs
    vec = np.zeros(basis.dim, dtype=complex)
    vec[basis.index("src", 0, 0, 0, 0, 0)] = 1.0
    closed = 1.0
    for j in marked:
        i = j + 1
        coef = math.sqrt(n) * math.sqrt(weights.beta[j]) / math.sqrt(weights.omega[j])
        hist = history_states(spec, j, weights.alpha, basis)
        vec[basis.index("src", i, 0, 0, 0, 0)] += coef
        vec += coef * hist.w_plus
        vec[basis.index("ret", i, 1, 0, 0, 0)] += coef
        vec[basis.index("chk", i, 1, 0, 0, 0)] += coef
        closed += n * weights.beta[j] / weights.omega[j] * (2.0 + hist.norm_plus_closed + 1.0)
    return PositiveWitness(vector=vec, closed_norm_sq=closed)


def general_negative_witness(spec: SubroutineSpec, weights: Weights,
                             basis: GeneralBasis | None = None) -> NegativeWitness:
    """Negative witness from rewind history states; requires no marked input.

    Closed squared norm of the A-side part:
    1 + (1/N) sum_i omega_i (3 + 2 E[sum_{t<=T_i} alpha_t]).
    """
    if any(spec.outputs):
        raise ValueError("negative witness requires an all-unmarked subroutine")
    if basis is None:
        basis = GeneralBasis.for_spec(spec)
    n = spec.num_inputs
    w_a = np.zeros(basis.dim, dtype=complex)
    psi0_idx = basis.index("src", 0, 0, 0, 0, 0)
    w_a[psi0_idx] = 1.0
    closed = 1.0
    for j in range(n):
        i = j + 1
        coef = math.sqrt(weights.omega[j] / n)
        hist = history_states(spec, j, weights.alpha, basis)
        w_a[basis.index("src", i, 0, 0, 0, 0)] -= coef
        w_a += coef * hist.w_minus
        w_a[basis.index("ret", i, 0, 0, 0, 0)] += coef
        w_a[basis.index("chk", i, 0, 0, 0, 0)] -= coef
        closed += weights.omega[j] / n * (2.0 + hist.norm_minus_closed + 1.0)
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
    extras: dict = field(default_factory=dict)

    def passed(self, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
        return (self.residual_a <= tol.assert_tol
                and self.residual_b <= tol.assert_tol
                and self.decomposition_residual <= tol.assert_tol
                and abs(self.norm_sq_measured - self.norm_sq_closed) <= tol.assert_tol)

    def to_jsonable(self) -> dict:
        out = {
            "kind": self.kind,
            "residual_a": self.residual_a,
            "residual_b": self.residual_b,
            "decomposition_residual": self.decomposition_residual,
            "overlap": self.overlap,
            "norm_sq_measured": self.norm_sq_measured,
            "norm_sq_closed": self.norm_sq_closed,
            "c_plus_effective": self.c_plus_effective,
            "c_minus_effective": self.c_minus_effective,
        }
        out.update(self.extras)
        return out


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
        res_a = math.sqrt(max(instance.projection_norm_sq("A", vec), 0.0))
        res_b = math.sqrt(max(instance.projection_norm_sq("B", vec), 0.0))
        c_plus = norm_sq / abs(overlap) ** 2 if abs(overlap) > 0 else math.inf
        return WitnessReport(kind="positive", residual_a=res_a, residual_b=res_b,
                             decomposition_residual=0.0, overlap=abs(overlap),
                             norm_sq_measured=norm_sq,
                             norm_sq_closed=witness.closed_norm_sq,
                             c_plus_effective=c_plus)
    if isinstance(witness, NegativeWitness):
        res_a = instance.membership_residual("A", witness.w_a)
        res_b = instance.membership_residual("B", witness.w_b)
        decomp = float(np.linalg.norm(witness.w_a + witness.w_b - instance.psi0))
        norm_sq = float(np.linalg.norm(witness.w_a) ** 2)
        return WitnessReport(kind="negative", residual_a=res_a, residual_b=res_b,
                             decomposition_residual=decomp, overlap=0.0,
                             norm_sq_measured=norm_sq,
                             norm_sq_closed=witness.closed_norm_sq,
                             c_minus_effective=norm_sq)
    raise TypeError(f"unsupported witness type {type(witness)!r}")
