"""Grover iteration with composition instrumentation.

Simulates (U_pi U_f)^t |pi> step by step, checks the
rotation-angle closed forms, and accounts for per-query input weights --
the squared amplitude sitting on each oracle branch just before each
query -- which drive the average cost of an oracle implemented by a
variable-time subroutine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OracleSpec:
    """A boolean oracle on domain size N given by its marked subset."""

    size: int
    marked: frozenset[int]

    def __post_init__(self):
        if self.size < 2:
            raise ValueError("domain size must be at least 2")
        if not all(0 <= i < self.size for i in self.marked):
            raise ValueError("marked indices out of range")

    def phase_matrix(self) -> np.ndarray:
        """The oracle reflection: -1 phase on marked basis states."""
        signs = np.ones(self.size)
        for i in self.marked:
            signs[i] = -1.0
        return np.diag(signs)

    def diffusion_matrix(self) -> np.ndarray:
        """Reflection through the uniform superposition."""
        n = self.size
        return 2.0 * np.full((n, n), 1.0 / n) - np.eye(n)

    def iterate(self, psi: np.ndarray) -> np.ndarray:
        """One Grover step, diffusion_matrix() @ phase_matrix() @ psi, in O(N).

        The oracle flips the sign of the marked entries and the diffusion
        maps v to 2 mean(v) - v.
        """
        v = psi.copy()
        marked = list(self.marked)
        v[marked] = -v[marked]
        return 2.0 * v.mean() - v


def iteration_count(n: int) -> int:
    """Number of iterations, (pi/4)sqrt(N) rounded to nearest integer."""
    return int(np.rint(math.pi / 4.0 * math.sqrt(n)))


def grover_state(oracle: OracleSpec, t: int) -> np.ndarray:
    """The state after t iterations, starting from uniform."""
    if t < 0:
        raise ValueError("iteration count must be nonnegative")
    psi = np.full(oracle.size, 1.0 / math.sqrt(oracle.size))
    for _ in range(t):
        psi = oracle.iterate(psi)
    return psi


def success_probability(n: int, t: int) -> float:
    """Closed-form probability of landing on the unique marked element.

    sin^2((2t+1) arcsin(1/sqrt(N))); agrees with |<m|grover_state>|^2 for
    a unique marked element.
    """
    a = math.asin(1.0 / math.sqrt(n))
    return math.sin((2 * t + 1) * a) ** 2


@dataclass(frozen=True)
class QueryWeightTable:
    """Per-query input weights q[i, t] and their per-input averages.

    q[i, t-1] is the squared amplitude on branch i just before query t.
    closed_form_checked is False when the marked set falls outside the
    single-marked case the closed forms cover (the numeric table is still
    exact).
    """

    q: np.ndarray          # shape (N, Q)
    q_bar: np.ndarray      # length N
    num_queries: int
    closed_form_checked: bool

    def column_sum_residual(self) -> float:
        return float(np.max(np.abs(self.q.sum(axis=0) - 1.0)))


def query_weights(oracle: OracleSpec) -> QueryWeightTable:
    """Exact query weights over the full run of the iteration.

    Weight q[i, t] is computed from the simulated pre-query state; for a
    unique marked element m they match sin^2((2t-1)a) on the marked branch
    and cos^2((2t-1)a)/(N-1) elsewhere.
    """
    n = oracle.size
    q_count = iteration_count(n)
    psi = np.full(n, 1.0 / math.sqrt(n))
    q = np.zeros((n, q_count))
    for t in range(q_count):
        # state just before the (t+1)-th query
        q[:, t] = np.abs(psi) ** 2
        psi = oracle.iterate(psi)
    q_bar = q.mean(axis=1)
    return QueryWeightTable(q=q, q_bar=q_bar, num_queries=q_count,
                            closed_form_checked=len(oracle.marked) <= 1)


def closed_form_weights(n: int, m: int) -> np.ndarray:
    """Closed-form weight table for the unique-marked case."""
    a = math.asin(1.0 / math.sqrt(n))
    q_count = iteration_count(n)
    q = np.zeros((n, q_count))
    for t in range(1, q_count + 1):
        q[:, t - 1] = math.cos((2 * t - 1) * a) ** 2 / (n - 1)
        q[m, t - 1] = math.sin((2 * t - 1) * a) ** 2
    return q


@dataclass(frozen=True)
class CostProfile:
    """First and second stopping-time moments per input, with a sampling law."""

    exp_t: np.ndarray
    exp_t2: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        n = len(self.exp_t)
        if not (len(self.exp_t2) == len(self.pi) == n):
            raise ValueError("profile arrays must share one length")
        # each test is written to be false for nan, so a nan entry fails it
        if not (np.all(self.exp_t >= 1.0) and np.all(self.exp_t2 >= self.exp_t**2 - 1e-12)):
            raise ValueError("need E[T^2] >= E[T]^2 >= 1 per input")
        if not abs(float(self.pi.sum()) - 1.0) <= 1e-10:
            raise ValueError("sampling distribution must sum to 1")

    @property
    def size(self) -> int:
        return len(self.exp_t)

    @staticmethod
    def deterministic(times, pi=None) -> "CostProfile":
        t = np.asarray(times, dtype=float)
        if pi is None:
            pi = np.full(len(t), 1.0 / len(t))
        return CostProfile(exp_t=t, exp_t2=t**2, pi=np.asarray(pi, dtype=float))


@dataclass(frozen=True)
class AverageQueryCost:
    """Average per-query subroutine cost, numerically and in closed form.

    numeric is sum_i q_bar[i] * E[T_i]; midpoint is the symmetric half-sum
    sum_{i != m} E[T_i]/(2(N-1)) + E[T_m]/2; correction is the oscillatory
    remainder driven by the alternating cosine sum, so that
    midpoint + correction reproduces numeric exactly in exact arithmetic.
    """

    numeric: float
    midpoint: float
    correction: float

    @property
    def closed_form(self) -> float:
        return self.midpoint + self.correction


def average_query_cost(oracle: OracleSpec, costs: CostProfile) -> AverageQueryCost:
    """Average subroutine cost per oracle call for a unique marked element."""
    if len(oracle.marked) != 1:
        raise ValueError("average query cost analysis covers exactly one marked element")
    if costs.size != oracle.size:
        raise ValueError("cost profile size does not match the oracle domain")
    m = next(iter(oracle.marked))
    table = query_weights(oracle)
    numeric = float(table.q_bar @ costs.exp_t)

    n = oracle.size
    others = [i for i in range(n) if i != m]
    mean_other = float(sum(costs.exp_t[i] for i in others)) / (n - 1)
    midpoint = mean_other / 2.0 + float(costs.exp_t[m]) / 2.0
    cos_sum, _ = lagrange_cos_sum(n)
    correction = cos_sum / (2.0 * table.num_queries) * (mean_other - float(costs.exp_t[m]))
    return AverageQueryCost(numeric=numeric, midpoint=midpoint, correction=correction)


def lagrange_cos_sum(n: int) -> tuple[float, float]:
    """The alternating cosine sum over one run and its closed-form bound.

    Returns (sum_{t=0}^{Q-1} cos((4t+2)a), (pi/8)|pi/a - pi sqrt(N) - 4|).
    The bound inequality is only meaningful once N is large enough that
    rounding Q to an integer is below the slack; callers check it for
    N >= 16.
    """
    if n < 4:
        raise ValueError("need domain size at least 4")
    a = math.asin(1.0 / math.sqrt(n))
    q_count = iteration_count(n)
    numeric = float(sum(math.cos((4 * t + 2) * a) for t in range(q_count)))
    bound = math.pi / 8.0 * abs(math.pi / a - math.pi * math.sqrt(n) - 4.0)
    return numeric, bound
