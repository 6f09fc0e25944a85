"""Shared fixtures and helpers for the test suite."""

import numpy as np
import pytest

from vtsearch import (DEFAULT_TOL, cluster_phases, qpe_kernel,
                      stopping_profile, subroutine_pair, unitary_eig)


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


def moment_arrays(spec):
    """(E[T], E[T^2]) arrays across the inputs of a subroutine spec."""
    profiles = [stopping_profile(spec, i) for i in range(spec.num_inputs)]
    exp_t = np.array([p.moments()[0] for p in profiles])
    exp_t2 = np.array([p.moments()[1] for p in profiles])
    return exp_t, exp_t2


@pytest.fixture(scope="session")
def small_pair():
    """Smallest nontrivial pair (instance dimension 504)."""
    return subroutine_pair(7, 2, 2, 2)
