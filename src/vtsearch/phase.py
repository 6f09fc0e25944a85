"""Spectral decision engine for two-reflection instances.

The decision statistic is the exact overlap of the initial vector with
the small-phase eigenspace of the walk W = R_A R_B.  The walk is
block-diagonal over the connected components of the generators, so the
spectrum is taken on PEInstance.psi0_component, the components psi0
reaches, for every instance size.  By Jordan's lemma the walk splits
there along the principal angles theta_j between span A and span B: the
thin SVD of C = Q_A^H Q_B (each side's basis is its normalized,
pairwise-orthogonal generators) pairs a principal vector u_j of A with
one of B, and W rotates the plane they span by -2 theta_j, so its phases
there are +-2 theta_j.  The engine works on each side's normalized sparse
generators and never on a dense span basis: C is summed from the entry
pairs that share a label, the plane vectors are sparse-times-dense
products, and each plane's rotation is written in closed form.  Two
checks run on every decision and together certify every plane invariant
under W: the generators' orthonormality (PEInstance.normalized) and the
principal-vector residual max(|C V - U Sigma|, |C^H U - V Sigma|) <=
assert_tol.  The stack of rotations goes to one unitary_eig call; the
remaining directions are fixed analytically: intersection lines and the
complement of span A + span B have phase 0, and the directions of either
side that the SVD leaves unpaired (orthogonal to the other span) have
phase pi.  The thin SVD never forms those directions: psi0's weight on
them is the squared norm of its residual after projecting onto the paired
ones, in generator coordinates, so the spectrum carries one pi entry per
side.  The arithmetic follows the instance's values: a simple-loop
instance is real, so its generators, cross Gram, SVD and products are
float64; a general instance is complex.  Every weight is a fraction of a
unit psi0, so the spectrum refuses any other (zero_phase_overlap,
qpe_zero_prediction and decide alike), and so does qpe_simulate.
The phase-register simulation runs the dense walk of psi0's component,
kept as an independent cross-check; the dense walk of the full instance,
and the same engine on dense bases with W's compression computed by
dense reflections, are the oracles in the test suite.  The
reflection-factorization identity used to implement the walk cheaply,
each side's reflection as the product of its set reflections, is checked
on the sparse cross-set Gram: it holds exactly when the sets of a side
span mutually orthogonal subspaces.

RegimePair is the paper's regime experiment on one marked/empty pair.  It
calls the instance and subroutine layers through their modules, so that
wrappers installed on those module attributes see every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import instances as inst_mod
from . import subroutines as subs_mod
from .linalg import DEFAULT_TOL, unitary_eig
from .instances import NegativeWitness, PEInstance, PositiveWitness, Weights
from .subroutines import SubroutineSpec

#: largest c_plus that decide accepts
C_PLUS_MAX = 50.0


class WalkSpectrum(NamedTuple):
    """Eigenphases of the walk on psi0's component with psi0's weight on each.

    First come the +-2 theta_j pairs of the rotation planes, as
    unitary_eig orders each closed-form rotation's eigenvalues, then a
    phase 0 for each intersection line.  The last three entries are the
    phase-pi weights of the directions left unpaired on side A and on
    side B, then the phase-0 weight outside span A + span B.  dim, rank_a
    and rank_b are the row and generator counts of psi0's component;
    min_angle is the smallest principal angle among its rotation planes,
    or None when the spans meet there in no plane.
    """

    phases: np.ndarray
    weights: np.ndarray
    dim: int
    rank_a: int
    rank_b: int
    min_angle: float | None


def _rotation_blocks(angles: np.ndarray) -> np.ndarray:
    """W on each rotation plane, in the basis (u_j, w_j): rotation by -2 theta_j.

    R_B reflects the plane about Q_B v_j = cos_j u_j + sin_j w_j and R_A
    about u_j, so R_A R_B = [[cos 2theta_j, sin 2theta_j],
    [-sin 2theta_j, cos 2theta_j]], a (count, 2, 2) stack.
    """
    twice = 2.0 * angles
    c, s = np.cos(twice), np.sin(twice)
    return np.stack([c, s, -s, c], axis=-1).reshape(-1, 2, 2)


def _check_unit_psi0(psi0: np.ndarray) -> None:
    """ValueError when |psi0| differs from 1 by more than assert_tol."""
    norm = float(np.linalg.norm(psi0))
    if abs(norm - 1.0) > DEFAULT_TOL.assert_tol:
        raise ValueError(f"psi0 has norm {norm!r}, not 1")


def _walk_spectrum(instance: PEInstance) -> WalkSpectrum:
    """Spectrum of W = R_A R_B from the principal angles of the two spans.

    Taken on instance.psi0_component(), which has psi0's spectrum weights,
    from each side's normalized sparse generators Q_A and Q_B
    (PEInstance.normalized, which checks their orthonormality); no dense
    span basis is formed.  ValueError is raised when |psi0| differs from
    1 by more than assert_tol, since every weight below is a fraction of
    a unit psi0.  The cross Gram C = Q_A^H Q_B is summed from the entry
    pairs that share a label (PEInstance.cross_gram), and its thin SVD
    C = U diag(cos) V^H is certified: ValueError names the principal-
    vector residual max(|C V - U cos|, |C^H U - V cos|) when it exceeds
    assert_tol.  Column j pairs u_j = Q_A U_j with Q_B V_j = cos_j u_j +
    sin_j w_j; both are sparse-times-dense products, and sin_j is the
    norm of the residual Q_B V_j - cos_j u_j, which stays accurate where
    sqrt(1 - cos_j^2) would cancel.  Pairs with sin_j <= rank_tol are
    intersection lines.  W rotates every other plane span{u_j, w_j} by
    -2 theta_j in closed form (_rotation_blocks); with the orthonormal
    generators, the certificate makes each plane invariant under W, and
    unitary_eig decomposes the stack of rotations.  The directions of a
    side that no column pairs (its complement of U's or V's columns,
    orthogonal to the other span) have phase pi; psi0's weight on them is
    the squared norm of a residual vector in generator coordinates, r_A =
    p_A - U U^H p_A and r_B = p_B - V V^H p_B with p = Q^H psi0, so the
    spectrum carries one pi entry per side.  psi0's overlap with w_j is
    (V_j^H p_B - cos_j U_j^H p_A) / sin_j, and its weight outside span A
    + span B is the squared norm of psi0 - Q_A p_A - sum_j w_j <w_j, psi0>
    - Q_B r_B.  Neither is a cancelling 1 - sum of weights.  The
    arithmetic follows the instance's values: real for a real instance.
    """
    instance = instance.psi0_component()
    psi0 = instance.psi0
    _check_unit_psi0(psi0)
    qa, qb = instance.normalized("A"), instance.normalized("B")
    c = instance.cross_gram()
    u, cos, vh = np.linalg.svd(c, full_matrices=False)
    v = vh.conj().T
    resid = max(float(np.abs(c @ v - u * cos).max(initial=0.0)),
                float(np.abs(c.conj().T @ u - v * cos).max(initial=0.0)))
    if resid > DEFAULT_TOL.assert_tol:
        raise ValueError(f"principal-vector residual {resid:.3e} exceeds "
                         f"assert_tol {DEFAULT_TOL.assert_tol:g}")
    pa, pb = qa.rmatvec(psi0), qb.rmatvec(psi0)
    ca, cb = (pa.conj() @ u).conj(), vh @ pb
    ra, rb = pa - u @ ca, pb - v @ cb
    # one product per side; the extra last columns are Q_B r_B and Q_A p_A
    on_b = qb.matmat(np.concatenate([v, rb[:, None]], axis=1))
    on_a = qa.matmat(np.concatenate([u * cos, pa[:, None]], axis=1))
    perp = on_b[:, :-1]
    perp -= on_a[:, :-1]
    sin = np.linalg.norm(perp, axis=0)
    rot = sin > DEFAULT_TOL.rank_tol
    cw = (cb - cos * ca)[rot] / sin[rot]
    # sum_j w_j <w_j, psi0> = perp x, x_j = <w_j, psi0> / sin_j
    x = np.zeros(len(cos), dtype=cw.dtype)
    x[rot] = cw / sin[rot]
    outside = float(np.linalg.norm(psi0 - on_a[:, -1] - perp @ x - on_b[:, -1]) ** 2)

    angles = np.arctan2(sin[rot], cos[rot])
    coeffs = np.stack([ca[rot], cw], axis=-1)
    dec = unitary_eig(_rotation_blocks(angles))
    weights = np.abs(np.einsum("kij,ki->kj", dec.vectors.conj(), coeffs)) ** 2

    lines = np.abs(ca[~rot]) ** 2
    unpaired = [np.linalg.norm(ra) ** 2, np.linalg.norm(rb) ** 2]
    return WalkSpectrum(
        phases=np.concatenate([dec.phases.ravel(), np.zeros(len(lines)),
                               [np.pi, np.pi, 0.0]]),
        weights=np.concatenate([weights.ravel(), lines, unpaired, [outside]]),
        dim=instance.dim, rank_a=qa.shape[1], rank_b=qb.shape[1],
        min_angle=float(angles.min()) if len(angles) else None)


def _zero_phase_weight(spectrum: WalkSpectrum, theta_star: float) -> float:
    """psi0's weight on the phase clusters whose mean is within the cutoff.

    The clusters are cluster_phases': runs of the sorted phases whose
    consecutive gaps are at most eig_cluster_tol, each summed in one
    reduceat.
    """
    order = np.argsort(spectrum.phases)
    phases, weights = spectrum.phases[order], spectrum.weights[order]
    starts = np.flatnonzero(np.diff(phases, prepend=-np.inf)
                            > DEFAULT_TOL.eig_cluster_tol)
    mean = np.add.reduceat(phases, starts) / np.diff(starts, append=len(phases))
    kept = np.abs(mean) <= theta_star + DEFAULT_TOL.eig_cluster_tol
    return float(np.sum(np.add.reduceat(weights, starts)[kept]))


def zero_phase_overlap(instance: PEInstance, theta_star: float) -> float:
    """Total squared overlap of psi0 with eigenphases of magnitude <= theta_star.

    Eigenphases within eig_cluster_tol of each other are aggregated
    before the cutoff is applied, so numerically split degenerate zero
    phases count as one cluster.
    """
    return _zero_phase_weight(_walk_spectrum(instance), theta_star)


@dataclass(frozen=True)
class Decision:
    """A verdict with the size of the instance it was reached on.

    dim is the instance dimension and rank_a / rank_b its generator counts
    per side (the ranks of the two spans); dim_decided is the row count of
    psi0's component, on which the spectrum was taken, and min_angle the
    smallest principal angle among the rotation planes of that component
    (None when there is none).
    """

    verdict: str            # "positive" | "negative"
    p0: float
    threshold: float
    theta_star: float
    dim: int
    dim_decided: int
    rank_a: int
    rank_b: int
    min_angle: float | None


def decide(instance: PEInstance, c_minus: float, c_plus: float) -> Decision:
    """Positive/negative verdict from the zero-phase overlap.

    Cutoff theta* = 1/sqrt(c_plus * c_minus) and threshold 1/(2 c_plus):
    a positive witness guarantees p0 >= 1/c_plus, while a negative
    witness of size c_minus suppresses p0 below theta*^2 c_minus / 4 =
    1/(4 c_plus), leaving a factor-2 margin on each side.  Both bounds
    are for a unit psi0, so ValueError is raised when |psi0| differs from
    1 by more than assert_tol (in _walk_spectrum, on psi0's component, a
    short vector with the same norm).
    """
    if not (1.0 <= c_plus <= C_PLUS_MAX):
        raise ValueError(f"c_plus must lie in [1, {C_PLUS_MAX:g}]")
    if c_minus < 1.0:
        raise ValueError("c_minus must be at least 1")
    theta_star = 1.0 / math.sqrt(c_plus * c_minus)
    spectrum = _walk_spectrum(instance)
    p0 = _zero_phase_weight(spectrum, theta_star)
    threshold = 1.0 / (2.0 * c_plus)
    verdict = "positive" if p0 >= threshold else "negative"
    return Decision(verdict=verdict, p0=p0, threshold=threshold,
                    theta_star=theta_star, dim=instance.dim,
                    dim_decided=spectrum.dim, rank_a=instance.sides["A"].shape[1],
                    rank_b=instance.sides["B"].shape[1], min_angle=spectrum.min_angle)


@dataclass(frozen=True)
class RegimePair:
    """One weight regime of the marked/empty experiment, with decide's constants.

    The empty side reuses the marked side's promise parameters mu and k.
    c_plus is the positive witness's squared norm (its overlap with psi0 is
    1), capped at 6 in regime ii-c and 8 otherwise; c_minus is the larger
    of the negative witness's closed-form norm, c_plus and 1.  decide
    receives c_plus_decide, c_plus clamped to C_PLUS_MAX.
    """

    regime: str
    marked: SubroutineSpec
    empty: SubroutineSpec
    weights_pos: Weights
    weights_neg: Weights
    positive: PositiveWitness
    negative: NegativeWitness
    c_plus: float
    c_plus_cap: float
    c_minus: float

    @property
    def c_plus_decide(self) -> float:
        return min(self.c_plus, C_PLUS_MAX)

    def instances(self) -> dict[str, PEInstance]:
        build = inst_mod.build_general_instance
        return {"marked": build(self.marked, self.weights_pos),
                "empty": build(self.empty, self.weights_neg)}

    def decide(self) -> dict[str, Decision]:
        """Both sides' decisions; marked should be positive, empty negative."""
        return {label: decide(instance, c_minus=self.c_minus,
                              c_plus=self.c_plus_decide)
                for label, instance in self.instances().items()}


def regime_pairs(marked: SubroutineSpec, empty: SubroutineSpec,
                 regimes) -> list[RegimePair]:
    """The regime experiment on a (marked, all-unmarked) subroutine pair.

    Each side's stopping moments are computed once for all regimes.
    """
    t_max = marked.num_steps
    moments_m = subs_mod.stopping_moments(marked)
    moments_e = subs_mod.stopping_moments(empty)
    pairs = []
    for regime in regimes:
        w_pos = inst_mod.regime_parameters(regime, *moments_m, t_max,
                                           marked=sorted(marked.marked_set()))
        w_neg = inst_mod.regime_parameters(regime, *moments_e, t_max,
                                           mu=w_pos.mu, k=w_pos.k)
        pos = inst_mod.general_positive_witness(marked, w_pos)
        neg = inst_mod.general_negative_witness(empty, w_neg)
        c_plus = inst_mod.fsum_norm_sq(pos.vector)
        pairs.append(RegimePair(
            regime=regime, marked=marked, empty=empty, weights_pos=w_pos,
            weights_neg=w_neg, positive=pos, negative=neg, c_plus=c_plus,
            c_plus_cap=6.0 if regime == "ii-c" else 8.0,
            c_minus=max(neg.closed_norm_sq, c_plus, 1.0)))
    return pairs


@dataclass(frozen=True)
class QPEOutcome:
    bits: int
    distribution: np.ndarray

    @property
    def p_zero(self) -> float:
        return float(self.distribution[0])


def qpe_simulate(instance: PEInstance, bits: int) -> QPEOutcome:
    """Exact outcome distribution of a phase-register estimation run.

    Builds the 2^bits controlled powers of the walk unitary applied to
    psi0 explicitly and transforms the register axis; no sampling.  The
    dense walk is that of psi0's component, which the walk never leaves,
    so the distribution is the full instance's.  ValueError is raised
    when |psi0| differs from 1 by more than assert_tol, before the walk is
    built: the distribution would sum to |psi0|^2.
    """
    if not (1 <= bits <= 20):
        raise ValueError("register size must be between 1 and 20 bits")
    m = 1 << bits
    part = instance.psi0_component()
    _check_unit_psi0(part.psi0)
    u = part.walk_unitary()
    states = np.empty((m, part.dim), dtype=complex)
    psi = part.psi0.astype(complex)
    for x in range(m):
        states[x] = psi
        if x + 1 < m:
            psi = u @ psi
    # register value y amplitude: (1/M) sum_x exp(-2 pi i x y / M) U^x psi0
    transformed = np.fft.fft(states, axis=0) / m
    distribution = np.sum(np.abs(transformed) ** 2, axis=1)
    return QPEOutcome(bits=bits, distribution=distribution)


def qpe_kernel(theta: float, bits: int) -> float:
    """Leakage kernel: probability mass a theta-eigenvector puts on register 0."""
    m = 1 << bits
    if abs(math.sin(theta / 2.0)) < 1e-15:
        return 1.0
    return (math.sin(m * theta / 2.0) / math.sin(theta / 2.0)) ** 2 / m ** 2


def qpe_zero_prediction(instance: PEInstance, bits: int) -> float:
    """Spectral prediction of Pr[register = 0] via the leakage kernel."""
    spectrum = _walk_spectrum(instance)
    return float(sum(w * qpe_kernel(th, bits)
                     for th, w in zip(spectrum.phases, spectrum.weights)))


def register_bits_for(c_minus: float) -> int:
    """Register size sufficient to resolve the decision gap."""
    return max(1, math.ceil(math.log2(8.0 * math.sqrt(c_minus))))


def verify_reflection_factorization(instance: PEInstance) -> float:
    """Largest cosine between generators in different sets of one side.

    Each side's reflection is implemented as the product of its set
    reflections, with the subspace-negating convention D = I - 2P:
    prod_k (I - 2P_k) = I - 2 sum_k P_k holds exactly when P_j P_k = 0 for
    every j != k, that is when every generator is orthogonal to every
    generator of the side's other sets.  Overlaps within a set do not
    matter, since a set reflection is that of its span.  So the residual
    is the largest |<g, h>| / (|g| |h|) over cross-set pairs, taken from
    each side's cached sparse Gram (PEInstance.cross_set_cosine); a side
    with a single set reads 0.  A deliberately merged non-orthogonal
    grouping makes it macroscopic.
    The dense d x d product of set reflections is the test suite's oracle.
    """
    return max(instance.cross_set_cosine(side) for side in ("A", "B"))
