"""Spectral decision engine for two-reflection instances.

The decision statistic is the exact overlap of the initial vector with
the small-phase eigenspace of the walk W = R_A R_B.  Both reflections map
span A + span B to itself and equal -I on its complement, where W is the
identity (Jordan's lemma): the spectrum comes from the r x r compression
of W onto span A + span B, and psi0's weight outside it has phase 0.  The
dense d x d walk serves only the phase-register simulation, kept as an
independent cross-check, and the dense oracle in the test suite; the
reflection-factorization identity used to implement the walk cheaply is
verified as an algebraic fact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (DEFAULT_TOL, TolerancePolicy, cluster_phases,
                     orthonormalize, reflection, unitary_eig)
from .instances import PEInstance


def _walk_spectrum(instance: PEInstance,
                   tol: TolerancePolicy) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases of the walk and the weight of psi0 on each.

    The last entry is phase 0 carrying the weight of psi0 outside
    span A + span B, taken as the squared norm of the residual vector
    (1 - |V^H psi0|^2 would cancel catastrophically).
    """
    qa, qb = instance.span_basis("A", tol), instance.span_basis("B", tol)
    v = orthonormalize([*qa.T, *qb.T], tol)
    # V^H R_A R_B V with each reflection applied as R x = 2 Q (Q^H x) - x
    rb_v = 2.0 * qb @ (qb.conj().T @ v) - v
    dec = unitary_eig(v.conj().T @ (2.0 * qa @ (qa.conj().T @ rb_v) - rb_v), tol)
    coeffs = v.conj().T @ instance.psi0
    weights = np.abs(dec.vectors.conj().T @ coeffs) ** 2
    outside = float(np.linalg.norm(instance.psi0 - v @ coeffs) ** 2)
    return np.append(dec.phases, 0.0), np.append(weights, outside)


def zero_phase_overlap(instance: PEInstance, theta_star: float,
                       tol: TolerancePolicy = DEFAULT_TOL) -> float:
    """Total squared overlap of psi0 with eigenphases of magnitude <= theta_star.

    Eigenphases within eig_cluster_tol of each other are aggregated
    before the cutoff is applied, so numerically split degenerate zero
    phases count as one cluster.
    """
    phases, weights = _walk_spectrum(instance, tol)
    p0 = 0.0
    for cluster in cluster_phases(phases, tol.eig_cluster_tol):
        rep = float(np.mean(phases[cluster]))
        if abs(rep) <= theta_star + tol.eig_cluster_tol:
            p0 += float(np.sum(weights[cluster]))
    return p0


@dataclass(frozen=True)
class Decision:
    verdict: str            # "positive" | "negative"
    p0: float
    threshold: float
    theta_star: float

    def to_json(self) -> str:
        return json.dumps({
            "verdict": self.verdict, "p0": self.p0,
            "threshold": self.threshold, "theta_star": self.theta_star,
        }, sort_keys=True)


def decide(instance: PEInstance, c_minus: float, c_plus: float,
           tol: TolerancePolicy = DEFAULT_TOL) -> Decision:
    """Positive/negative verdict from the zero-phase overlap.

    Cutoff theta* = 1/sqrt(c_plus * c_minus) and threshold 1/(2 c_plus):
    a positive witness guarantees p0 >= 1/c_plus, while a negative
    witness of size c_minus suppresses p0 below theta*^2 c_minus / 4 =
    1/(4 c_plus), leaving a factor-2 margin on each side.
    """
    if not (1.0 <= c_plus <= 50.0):
        raise ValueError("c_plus must lie in [1, 50]")
    if c_minus < 1.0:
        raise ValueError("c_minus must be at least 1")
    theta_star = 1.0 / math.sqrt(c_plus * c_minus)
    p0 = zero_phase_overlap(instance, theta_star, tol)
    threshold = 1.0 / (2.0 * c_plus)
    verdict = "positive" if p0 >= threshold else "negative"
    return Decision(verdict=verdict, p0=p0, threshold=threshold,
                    theta_star=theta_star)


@dataclass(frozen=True)
class QPEOutcome:
    bits: int
    distribution: np.ndarray

    @property
    def p_zero(self) -> float:
        return float(self.distribution[0])

    def to_json(self) -> str:
        digest = {
            "bits": self.bits,
            "p_zero": self.p_zero,
            "entries": len(self.distribution),
            "total": float(self.distribution.sum()),
        }
        return json.dumps(digest, sort_keys=True)


def qpe_simulate(instance: PEInstance, bits: int,
                 tol: TolerancePolicy = DEFAULT_TOL) -> QPEOutcome:
    """Exact outcome distribution of a phase-register estimation run.

    Builds the 2^bits controlled powers of the walk unitary applied to
    psi0 explicitly and transforms the register axis; no sampling.
    """
    if not (1 <= bits <= 20):
        raise ValueError("register size must be between 1 and 20 bits")
    m = 1 << bits
    u = instance.walk_unitary(tol)
    states = np.empty((m, instance.dim), dtype=complex)
    psi = instance.psi0.astype(complex)
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


def qpe_zero_prediction(instance: PEInstance, bits: int,
                        tol: TolerancePolicy = DEFAULT_TOL) -> float:
    """Spectral prediction of Pr[register = 0] via the leakage kernel."""
    phases, weights = _walk_spectrum(instance, tol)
    return float(sum(w * qpe_kernel(th, bits) for th, w in zip(phases, weights)))


def register_bits_for(c_minus: float) -> int:
    """Register size sufficient to resolve the decision gap."""
    return max(1, math.ceil(math.log2(8.0 * math.sqrt(c_minus))))


def verify_reflection_factorization(instance: PEInstance,
                                    tol: TolerancePolicy = DEFAULT_TOL) -> float:
    """Residual of writing each span reflection as a product of set reflections.

    Uses the subspace-negating convention D = I - 2P, for which
    orthogonal generator groups compose multiplicatively:
    prod_k (I - 2P_k) = I - 2 sum_k P_k.  A deliberately merged
    non-orthogonal grouping makes the residual macroscopic.  The overall
    sign relative to 2P - I cancels in the two-sided walk product.
    """
    worst = 0.0
    eye = np.eye(instance.dim, dtype=complex)
    for side in ("A", "B"):
        sets = instance.a_sets if side == "A" else instance.b_sets
        product = eye
        for name in sets:
            product = product @ (-instance.sub_reflection(side, name, tol))
        direct = -reflection(instance.projector(side, tol))
        worst = max(worst, float(np.max(np.abs(direct - product))))
    return worst
