"""Search cost-bound expressions over concrete stopping-time profiles.

Evaluates the raw radical/ratio forms of the search upper bounds (log
factors and unspecified constants dropped) so that different composition
strategies can be compared numerically on the same cost profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grover import CostProfile
from .instances import promise_parameter

BOUND_KINDS = ("naive", "l2", "l1", "l0", "straight_line",
               "regime_i_a", "regime_i_b", "regime_ii_a", "regime_ii_b",
               "regime_ii_c")

#: Absolute slack of compare_table's ordering and cap checks.
ORDER_SLACK = 1e-12


@dataclass(frozen=True)
class PromiseDescriptor:
    """Description of the allowed marked sets.

    Either an explicit list of candidate marked sets, or the
    unique-marked promise with a checking-time cap t_max (the degrees of
    freedom the tabulated special-case forms need), not both.
    """

    marked_sets: tuple[frozenset[int], ...] | None = None
    t_max: float | None = None
    unique_marked: bool = False

    def __post_init__(self):
        if self.marked_sets is not None and any(len(s) == 0 for s in self.marked_sets):
            raise ValueError("candidate marked sets must be nonempty")
        if self.marked_sets is None and not self.unique_marked:
            raise ValueError("need explicit marked sets or the unique-marked promise")
        if self.marked_sets is not None and self.unique_marked:
            # l1 and l0 would take the marked-set minimum, not the table's cap
            raise ValueError("explicit marked sets and the unique-marked "
                             "promise exclude each other")
        # every cap check compares against t_max, and each is false for nan
        if self.t_max is not None and math.isnan(self.t_max):
            raise ValueError("t_max must be a number, got nan")

    def epsilon(self, pi: np.ndarray) -> float:
        """Smallest sampling mass any allowed marked set can carry."""
        if self.marked_sets is not None:
            return min(float(sum(pi[i] for i in s)) for s in self.marked_sets)
        return float(np.min(pi))


def _min_marked_sum(kind: str, promise: PromiseDescriptor, values: np.ndarray,
                    pi: np.ndarray, power: int) -> float:
    """min over allowed marked sets of sum_{i in set} pi_i * values_i.

    values_i is 1/c_i for a per-input cost c_i bounded by t_max^power.
    Under the unique-marked promise the minimum is taken at the cap,
    min(pi) / t_max^power, so that promise needs t_max.
    """
    if promise.marked_sets is not None:
        return min(float(sum(pi[i] * values[i] for i in s))
                   for s in promise.marked_sets)
    if promise.t_max is None:
        raise ValueError(f"{kind} needs t_max under the unique-marked promise")
    return float(np.min(pi)) / promise.t_max ** power


def bound(kind: str, profile: CostProfile, promise: PromiseDescriptor) -> float:
    """One cost-bound value on a profile; raw expression, no hidden factors."""
    if kind not in BOUND_KINDS:
        raise ValueError(f"unknown bound kind {kind!r}")
    pi = profile.pi
    exp_t, exp_t2 = profile.exp_t, profile.exp_t2
    n = profile.size
    eps = promise.epsilon(pi)

    if kind == "naive":
        return float(np.max(exp_t)) / math.sqrt(eps)
    if kind == "l2":
        return math.sqrt(float(pi @ exp_t2) / eps)
    if kind == "l1":
        denom = _min_marked_sum(kind, promise, 1.0 / exp_t, pi, power=1)
        return math.sqrt(float(pi @ exp_t) / denom)
    if kind == "l0":
        denom = _min_marked_sum(kind, promise, 1.0 / exp_t2, pi, power=2)
        return 1.0 / math.sqrt(denom)
    if kind == "straight_line":
        if promise.t_max is None:
            t_cap = float(np.max(exp_t))
        else:
            t_cap = float(promise.t_max)
        return (float(pi @ exp_t) + t_cap) / math.sqrt(eps)

    # regime radicals are stated for uniform sampling: sqrt(radicand / p),
    # with p the regime's promise parameter minimized over the candidate sets
    if promise.marked_sets is None:
        raise ValueError("regime bounds need explicit candidate marked sets")
    regime = kind.removeprefix("regime_").replace("_", "-")
    p = min(promise_parameter(regime, exp_t, exp_t2, s)
            for s in promise.marked_sets)
    radicand = {"i-a": np.sum(exp_t ** 2), "i-b": n, "ii-a": np.sum(exp_t2),
                "ii-b": np.sum(exp_t), "ii-c": n}[regime]
    return math.sqrt(float(radicand) / p)


def full_report(profile: CostProfile, promise: PromiseDescriptor) -> dict[str, float]:
    """Each bound kind's value for one profile, NaN where the promise does not apply."""
    values = {}
    for kind in BOUND_KINDS:
        try:
            values[kind] = bound(kind, profile, promise)
        except ValueError:
            values[kind] = math.nan
    return values


@dataclass(frozen=True)
class ComparisonReport:
    l2: float
    l1: float
    l0: float
    straight_line: float
    naive: float
    ordering_holds: bool
    ratios: dict[str, float]


def compare_table(profile: CostProfile, promise: PromiseDescriptor) -> ComparisonReport:
    """Ordered comparison for the unique-marked-with-cap promise.

    Raises ValueError unless E[T_i] <= t_max and E[T_i^2] <= t_max E[T_i]
    per input.  ordering_holds says whether l2 <= l1 <= l0, straight_line
    >= l1 (the arithmetic-vs-geometric mean gap) and naive >= l2 hold, up
    to ORDER_SLACK.
    """
    if not promise.unique_marked or promise.t_max is None:
        raise ValueError("comparison table needs the unique-marked promise with t_max")
    if float(np.max(profile.exp_t)) > promise.t_max + ORDER_SLACK:
        raise ValueError("profile exceeds the promised checking-time cap")
    # T <= t_max gives T^2 <= t_max T, so E[T^2] <= t_max E[T] per input
    excess = float(np.max(profile.exp_t2 - promise.t_max * profile.exp_t))
    if excess > ORDER_SLACK:
        raise ValueError(f"E[T^2] exceeds t_max E[T] by {excess:.3e}, past the cap")
    vals = {k: bound(k, profile, promise)
            for k in ("naive", "l2", "l1", "l0", "straight_line")}
    ok = (vals["l2"] <= vals["l1"] + ORDER_SLACK
          and vals["l1"] <= vals["l0"] + ORDER_SLACK
          and vals["straight_line"] + ORDER_SLACK >= vals["l1"]
          and vals["naive"] + ORDER_SLACK >= vals["l2"])
    return ComparisonReport(
        l2=vals["l2"], l1=vals["l1"], l0=vals["l0"],
        straight_line=vals["straight_line"], naive=vals["naive"],
        ordering_holds=ok,
        ratios={"l1_over_l2": vals["l1"] / vals["l2"],
                "l0_over_l1": vals["l0"] / vals["l1"],
                "straight_over_l1": vals["straight_line"] / vals["l1"]},
    )
