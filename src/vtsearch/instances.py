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
general variant), so an instance is stored as compressed columns: an
InstanceStructure, where the entries sit (each side's named sets laid
side by side as one d x k Sparsity of indptr and rows, with each set's
name and generator count), plus psi0 and PEInstance.values, one (nnz,)
array per side in storage order, the one place an instance's entries are
kept.  The builders assemble these straight from index arrays; no
length-d vector is allocated per generator, and each witness is one zero
vector with its entries (history_states among them) scattered in from
index arrays.  The general instance's labels and generators are fixed by
its subroutine's sizes, partition and outputs and by where its step
unitaries are exactly 0, so a GeneralLayout holds them apart from any
spec's values, and each SubroutineSpec keeps one GeneralLayout, the
one object of this module it carries.  Specs with the same layout (many
random subroutines of one shape have one) share it when one
general_layouts call finds it theirs, after an exact check, entry by
entry; a weight regime only fills in values, reading the spec's
step-unitary entries with one take a side.  Every input runs its own
copy of the subroutine, so the layout lists one input's generators and
lays the others out as that template shifted by a fixed stride in
labels and in the step unitaries; the history states' labels are laid
out on the layout too, and the states are taken per call from the
spec's trajectory.  Every array that ignores values lives once per
layout: the general instances of one layout share its structure, and
with it the plans (the Gram's shared-label pairs within a side, psi0's
component and its star).  The row forms build_general_instances,
general_positive_witnesses and general_negative_witnesses take a
sequence of weightings in one pass, with a leading row axis, and the
one-weighting builders are their one-row case.
Well-formedness, witness, span-basis and reflection-factorization checks
run on these arrays with numpy alone (bincount sums and a Gram over the
generator pairs that share a label), and only the dense oracle paths
(generators, span_basis, the span projectors and the walk unitary)
expand a side into dense columns, through one densifier (_dense).
Values keep their type: the simple variant's sets and initial vector are
float64, the general variant's complex, and every product is taken in
the dtype of its operands.

Generators that share a basis label are joined into connected components
with disjoint label supports, over which both reflections and the walk are
block-diagonal.  PEInstance.psi0_component keeps only the components the
initial vector reaches, so decisions need no cap on the full dimension;
only the dense d x d paths check the dimension cap.
InstanceStructure.star splits a component further: when psi0 sits on
one row that a single side-A generator touches, that hub generator is
set aside, and the rest falls apart into blocks, grouped into patterns
of one local layout, on which the decision engine works block by block.
psi0's component has one path, whoever finds its rows: _component_on
checks a candidate set of rows and lays the component out on them, in
O(d + nnz).  build_simple_instance hands over the rows, which it knows
from n and the answer vector; for a GeneralLayout and a hand-built
structure they are searched breadth first from psi0's support (the
search follows U's exact zeros).  Every star is laid out by its
builder, never searched: in both loop variants the launch generator is
the hub, src the one free row and block i input i's part of psi0's
component.  Each builder hands its structure a function that lays the
star out on the first read of the component's star: _simple_star from
the answer vector, its blocks on one of two module constants
(SIMPLE_BLOCKS), and _input_star from the labels' input coordinate, one
pattern per kind of input.  A hand-built structure is handed no star and
is decided as one block.  Each plan is checked once, before any reader
sees it (_component_on, _check_star), and a plan that fails raises
ValueError naming the property, so no wrong plan is decided on.

Instances of any structures and dtypes can be tied into an
InstanceStack, which the decision engine decides in one pass: every
regime of both sides of a run's seeds, or every instance of a
simple-loop run, each row named for the errors of its checks (its seed
and regime, or its size and marked set).  The stack hands its rows over
grouped by structure and dtypes (InstanceStack.rows), each group an
InstanceRows: those rows' psi0 and values along a leading row axis, of
which the engine gathers psi0's component at once.  The blocks of
psi0's component that have the same local layout
(InstanceStructure.layout) share the engine's block steps across
structures, and the engine checks orthonormality block by block
(phase._principal_pairs).

Every other check of an instance runs on the instance's own cached
generator norms and shared-label Gram, each summed once a side
(PEInstance._norms, _gram): the well-formedness report, the
projections and span-membership distances, the cross-set cosines of the
reflection-factorization check and span_basis's orthonormality check,
the last two on one cached array of cosines (PEInstance._cosines).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property, partial
from itertools import accumulate
from typing import Callable, NamedTuple

import numpy as np

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
        """The basis vector of label (tag, i, b), real like the simple instance."""
        v = np.zeros(self.dim)
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
        # each test is written to be false for nan, so a nan weight fails it
        if not (np.all(self.omega > 0) and np.all(self.alpha > 0)):
            raise ValueError("omega and alpha weights must be positive")
        if not abs(self.alpha[0] - 1.0) <= 1e-14:
            raise ValueError("the step-0 alpha weight is fixed to 1")
        if self.beta:
            s = sum(math.sqrt(b) for b in self.beta.values())
            if not abs(s - 1.0) <= 1e-12:
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
    if not (np.all(exp_t >= 1.0) and np.all(exp_t2 > 0.0)):  # false for nan too
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

@dataclass(frozen=True, eq=False)
class Sparsity:
    """Where k generators' entries sit: a d x k CSC pattern, read-only.

    Column j is generator j, touching the basis labels
    rows[indptr[j]:indptr[j + 1]], ascending.  Instances with the same
    labels share one Sparsity per side, and with it the cached cols.
    """

    dim: int
    indptr: np.ndarray
    rows: np.ndarray

    def __post_init__(self):
        _read_only(self.indptr, self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return self.dim, len(self.indptr) - 1

    @cached_property
    def cols(self) -> np.ndarray:
        """The generator of every stored entry."""
        return _read_only(np.arange(self.shape[1]).repeat(self.indptr[1:] - self.indptr[:-1]))



def _read_only(*arrays: np.ndarray) -> np.ndarray:
    """Mark arrays read-only; returns the first."""
    for a in arrays:
        a.flags.writeable = False
    return arrays[0]


def _sum_by(index: np.ndarray, values: np.ndarray, length: int) -> np.ndarray:
    """Sums of values grouped by index, each taken in array order, in values' dtype."""
    if values.dtype.kind != "c":
        return np.bincount(index, weights=values, minlength=length)
    out = np.empty(length, dtype=complex)
    out.real = np.bincount(index, weights=values.real, minlength=length)
    out.imag = np.bincount(index, weights=values.imag, minlength=length)
    return out


def _from_entries(dim: int, rows, values, counts) -> tuple[Sparsity, np.ndarray]:
    """A set's Sparsity and values from entries listed column by column, exact zeros dropped.

    Real entries are stored as float64 and complex ones as complex128.
    """
    values = np.asarray(values)
    values = values.astype(np.result_type(values, np.float64), copy=False)
    keep = values != 0
    cols = np.repeat(np.arange(len(counts)), counts)[keep]
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=len(counts)), out=indptr[1:])
    return Sparsity(dim, indptr, np.asarray(rows, dtype=np.int64)[keep]), values[keep]


def _dense(sparsity: Sparsity, values: np.ndarray) -> np.ndarray:
    """The d x k dense columns of values on sparsity, in their dtype: for the dense oracles."""
    out = np.zeros(sparsity.shape, dtype=values.dtype)
    out[sparsity.rows, sparsity.cols] = values
    return out


def _hstack(dim: int, parts: list[Sparsity]) -> Sparsity:
    """Generator sets side by side as one Sparsity."""
    starts = np.cumsum([0] + [p.indptr[-1] for p in parts])
    indptr = np.concatenate([[0]] + [p.indptr[1:] + start
                                     for p, start in zip(parts, starts)])
    return Sparsity(dim, indptr, np.concatenate([np.zeros(0, dtype=np.int64)]
                                                + [p.rows for p in parts]))


class GramPlan(NamedTuple):
    """Where one side's off-diagonal Gram entries come from.

    Pair p is generators (first[p], second[p]), first < second, that share
    a basis label, with cross[p] true when they lie in different sets.
    Its entry <g_first, g_second> sums the products
    conj(values[left[e]]) * values[right[e]] over the e with segment[e] = p,
    in array order.
    """

    first: np.ndarray
    second: np.ndarray
    cross: np.ndarray
    left: np.ndarray
    right: np.ndarray
    segment: np.ndarray


#: the plan of a side on which no label holds two entries
_NO_PAIRS = GramPlan(*map(_read_only, (
    np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool),
    np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))))


class Component(NamedTuple):
    """psi0's component: its rows, each side's kept entries, and its structure.

    Made only by _component_on, which checks the rows and lays the rest
    out on them, and by InstanceStructure.component for a structure that
    is all reached, its own component.
    """

    rows: np.ndarray
    entries: dict[str, np.ndarray]
    structure: "InstanceStructure"


class BlockPattern(NamedTuple):
    """Blocks of one local layout: one small structure, laid out nb times.

    structure is one block's own InstanceStructure: its rows numbered
    0 .. b - 1 in ascending order, each side's generators in ascending
    order as one set "block".  rows[i] holds block i's rows of the
    structure the star was found on, in that order, (nb, b); entries[side][i]
    the numbers of its stored entries there, in the local storage order,
    (nb, nnz).
    """

    structure: "InstanceStructure"
    rows: np.ndarray
    entries: dict[str, np.ndarray]


class Star(NamedTuple):
    """A structure as a hub generator and the blocks left without it.

    hub is the side-A generator number of the one generator on psi0's
    row, or None: then the whole structure is one block.  Without the hub
    the generators fall apart into blocks, which no generator leaves;
    free lists the rows no block holds (psi0's row among them), and
    patterns groups the blocks by local layout, in the order of each
    layout's first block.  Stars are laid out by functions the builders
    hand over (_simple_star, _input_star), never searched, and checked
    once by their structure (_check_star).
    """

    hub: int | None
    free: np.ndarray
    patterns: tuple[BlockPattern, ...]


class InstanceStructure:
    """Where an instance's entries sit, and the plans that depend only on that.

    sides[side] is the d x k Sparsity of side "A" or "B", its named sets
    side by side in order; sets[side] maps each set's name to its
    generator count, in that order; support is psi0's.  Each plan (the
    Gram's shared-label pairs within a side, psi0's component and the
    star) is made on first use and kept, so the general instances of one
    layout, which share its structure, pay for it once.  The Gram pairs
    are searched.  psi0's component is laid out on its rows by
    _component_on, which checks them first: the rows handed over
    (component_rows), or else those a breadth-first search finds.  The
    star is never searched: star, a function that lays it out from this
    structure, is called on its first read and the star it returns is
    checked (_check_star); a structure handed none is one block.
    component_star, a function of the component's row labels and its
    structure, is handed to the component's structure as its star.  A
    handed-over plan that fails its check raises ValueError naming the
    property.  build_simple_instance hands over its component's rows and
    component_star (_simple_star), a GeneralLayout component_star
    (_input_star), and instance_from_sets nothing.
    """

    def __init__(self, dim: int, support: np.ndarray, sides: dict[str, Sparsity],
                 sets: dict[str, dict[str, int]], component_rows: np.ndarray | None = None,
                 star: Callable[["InstanceStructure"], Star] | None = None,
                 component_star: Callable[[np.ndarray, "InstanceStructure"], Star]
                 | None = None):
        self.dim = dim
        self.support = _read_only(support)
        self.sides = sides
        self.sets = sets
        self._grams: dict[str, GramPlan] = {}
        self._component_rows = component_rows
        self._star = star
        self._component_star = component_star

    def gram(self, side: str) -> GramPlan:
        """The pairs of generators of one side that share a label.

        A side on which no label holds two entries (both sides of a simple
        instance) has the empty plan, found by one bincount of its labels
        with nothing sorted.  Otherwise one stable argsort of the labels
        groups the entries by label; the entries are stored generator by
        generator, so within a label the generators stay ascending.  The
        pairs inside each label are enumerated by offset, and one stable
        argsort of the pair keys fixes the order in which each pair's
        products are summed.
        """
        if side not in self._grams:
            m = self.sides[side]
            if np.bincount(m.rows, minlength=1).max() < 2:
                self._grams[side] = _NO_PAIRS
                return _NO_PAIRS
            k = m.shape[1]
            order = np.argsort(m.rows, kind="stable")
            rows = m.rows[order]
            first, second = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
            for offset in range(1, len(rows)):
                # a label holding s entries has pairs at offsets 1 .. s - 1 only
                same = np.flatnonzero(rows[:-offset] == rows[offset:])
                if not len(same):
                    break
                first.append(same)
                second.append(same + offset)
            left, right = order[np.concatenate(first)], order[np.concatenate(second)]
            keys = m.cols[left] * k + m.cols[right]
            by_pair = np.argsort(keys, kind="stable")
            keys = keys[by_pair]
            new = np.diff(keys, prepend=-1) != 0
            unique = keys[new]
            counts = list(self.sets[side].values())
            owner = np.repeat(np.arange(len(counts)), counts)
            first, second = unique // k, unique % k
            self._grams[side] = GramPlan(*map(_read_only, (
                first, second, owner[first] != owner[second],
                left[by_pair], right[by_pair], np.cumsum(new) - 1)))
        return self._grams[side]

    @cached_property
    def component(self) -> Component:
        """The rows and generators of the components psi0's support meets.

        Laid out by _component_on on the rows handed to the constructor,
        or else on the rows grown breadth first from the support over the
        rows <-> generators incidence of the two sides joined, until the
        generators touching the reached rows stop changing (see
        PEInstance.psi0_component).  A structure that is all reached is its
        own component, so a component's component keeps its plans, its
        star among them.
        """
        rows = self._component_rows
        if rows is None:
            a, b = self.sides["A"], self.sides["B"]
            # every stored entry's row and generator, side B's numbered after side A's
            entry_rows = np.concatenate([a.rows, b.rows])
            entry_gens = np.concatenate([a.cols, b.cols + a.shape[1]])
            rows_in = np.zeros(self.dim, dtype=bool)
            rows_in[self.support] = True
            gens_in = np.zeros(a.shape[1] + b.shape[1], dtype=bool)
            while True:
                touched = np.zeros(len(gens_in), dtype=bool)
                touched[entry_gens[rows_in[entry_rows]]] = True
                if np.array_equal(touched, gens_in):
                    break
                gens_in = touched
                rows_in[entry_rows[gens_in[entry_gens]]] = True
            if rows_in.all() and gens_in.all():
                return Component(_read_only(np.arange(self.dim)), {
                    side: _read_only(np.arange(len(s.rows))) for side, s in self.sides.items()},
                    self)
            rows = np.flatnonzero(rows_in)
        return _component_on(self, rows)

    @cached_property
    def layout(self) -> bytes:
        """Where the entries sit, as bytes: equal bytes, entries laid out alike.

        The dimension, then each side's column and entry counts, column
        pointers and rows; psi0's support and the set names do not enter.
        """
        a, b = self.sides["A"], self.sides["B"]
        return np.concatenate([[self.dim, len(a.indptr), len(a.rows), len(b.indptr)],
                               a.indptr, a.rows, b.indptr, b.rows]).astype(np.int64).tobytes()

    @cached_property
    def one_block(self) -> Star:
        """The whole structure as one block, with no hub."""
        whole = BlockPattern(self, _read_only(np.arange(self.dim)[None]),
                             {side: _read_only(np.arange(len(s.rows))[None])
                              for side, s in self.sides.items()})
        return Star(None, _read_only(np.zeros(0, dtype=np.int64)), (whole,))

    @cached_property
    def star(self) -> Star:
        """The hub and the blocks left without it (see Star), or one_block.

        Laid out on this first read by the function handed to the
        constructor and checked once (_check_star); a structure handed
        none is one block.
        """
        if self._star is None:
            return self.one_block
        star = self._star(self)
        _check_star(self, star)
        return star


def _kept_counts(sets: dict[str, int], kept: np.ndarray) -> dict[str, int]:
    """Each set's kept generators, in set order: differences of kept's running count."""
    running = np.concatenate([[0], kept.cumsum()])[list(accumulate(sets.values(), initial=0))]
    return dict(zip(sets, (running[1:] - running[:-1]).tolist()))


def _refuse(plan: str, prop: str) -> None:
    """ValueError naming a handed-over plan and the property it fails."""
    raise ValueError(f"{plan} plan refused, it fails: {prop}")


def _component_on(structure: InstanceStructure, rows: np.ndarray) -> Component:
    """psi0's component of structure on rows, checked and laid out in O(d + nnz).

    ValueError names the first property of rows that fails: they are
    ascending labels; psi0's support lies in them; a generator is kept
    exactly when its entries lie in them; they are psi0's support and the
    kept generators' rows.  Whether the component is connected is not
    checked: psi0's walk stays on any such closed set of rows, so it is
    decided there alike.  The component's structure is the instance's on
    those rows and the kept generators, both renumbered in order, with
    each set's kept generators and the kept entries in storage order; it
    is handed structure's component_star, bound to the rows.
    """
    size, support = len(rows), structure.support
    if size and not (rows[0] >= 0 and rows[-1] < structure.dim
                     and (rows[1:] > rows[:-1]).all()):
        _refuse("component", "the component's rows are ascending labels")
    # each label's row in the component, or -1; increasing on the rows, so
    # each kept generator's rows stay sorted
    local = np.full(structure.dim, -1)
    local[rows] = np.arange(size)
    if (local[support] < 0).any():
        _refuse("component", "psi0's support lies in the component")
    reached = np.zeros(size, dtype=bool)
    reached[local[support]] = True
    entries, sides, sets = {}, {}, {}
    for side, s in structure.sides.items():
        at = local[s.rows]
        hit = at >= 0
        kept = np.zeros(s.shape[1], dtype=bool)
        kept[s.cols[hit]] = True
        if not (hit == kept[s.cols]).all():
            _refuse("component", "a generator is kept exactly when its entries lie "
                                 "in the component's rows")
        taken = np.flatnonzero(hit)
        entries[side] = _read_only(taken)
        reached[at[taken]] = True
        indptr = np.concatenate([[0], (s.indptr[1:] - s.indptr[:-1])[kept].cumsum()])
        sides[side] = Sparsity(size, indptr, at[taken])
        sets[side] = _kept_counts(structure.sets[side], kept)
    if not reached.all():
        _refuse("component", "the component's rows are psi0's support and its "
                             "generators' rows")
    star = (None if structure._component_star is None
            else partial(structure._component_star, rows))
    return Component(_read_only(rows), entries,
                     InstanceStructure(size, local[support], sides, sets, star=star))


def _check_star(structure: InstanceStructure, star: Star) -> None:
    """Check a star handed to structure's constructor, in O(d + nnz).

    ValueError names the first property that fails: the hub is the
    side-A generator on psi0's one row, and that row is free; the blocks
    and the free rows partition the rows; no generator other than the hub
    leaves its block; the patterns hold every entry but the hub's once;
    each pattern's entries sit on its template's rows, generator by
    generator.  The last holds when every block's entries lie on the
    block's rows in the template's order, each template generator's in
    one generator, and the patterns hold as many generators as the
    structure has nonempty ones besides the hub: then each template
    generator is one whole generator.
    """
    dim, support, a = structure.dim, structure.support, structure.sides["A"]
    hub = star.hub
    if not (len(support) == 1 and hub is not None and 0 <= hub < a.shape[1]
            and (a.rows[a.indptr[hub]:a.indptr[hub + 1]] == support[0]).any()
            and (star.free == support[0]).any()):
        _refuse("star", "the hub is the side-A generator on psi0's one row, a free row")
    held = np.concatenate([star.free, *(p.rows.ravel() for p in star.patterns)])
    if not (len(held) == dim and held.min() >= 0
            and (np.bincount(held, minlength=dim) == 1).all()):
        _refuse("star", "the blocks and the free rows partition the component's rows")
    # each row's block, numbered across the patterns in order; -1 for a free row
    block = np.full(dim, -1)
    count = 0
    for p in star.patterns:
        block[p.rows] = np.arange(count, count + len(p.rows))[:, None]
        count += len(p.rows)
    hub_entries = slice(a.indptr[hub], a.indptr[hub + 1])
    for side, s in structure.sides.items():
        # each entry's block against its generator's first entry's
        on = block[s.rows]
        left = (on < 0) | (on != on[s.indptr[s.cols]])
        if side == "A":
            left[hub_entries] = False
        if left.any():
            _refuse("star", "no generator other than the hub leaves its block")
        taken = np.concatenate([np.zeros(0, dtype=np.int64),
                                *(p.entries[side].ravel() for p in star.patterns)])
        times = (np.bincount(taken, minlength=len(s.rows)) if taken.min(initial=0) >= 0
                 else np.zeros(0, dtype=np.int64))
        if side == "A":
            times[hub_entries] += 1
        if not (len(s.rows) == len(times) and (times == 1).all()):
            _refuse("star", "the patterns hold every entry but the hub's once")
        generators = sum(p.entries[side].shape[0] * p.structure.sides[side].shape[1]
                         for p in star.patterns) + (side == "A")
        fits = generators == np.count_nonzero(s.indptr[1:] != s.indptr[:-1])
        for p in star.patterns:
            t, e = p.structure.sides[side], p.entries[side]
            gen = s.cols[e]
            fits = (fits and e.shape == (len(p.rows), len(t.rows)) and p.rows.shape[1] == t.dim
                    and (s.rows[e] == p.rows[:, t.rows]).all()
                    and (gen == gen[:, t.indptr[t.cols]]).all())
        if not fits:
            _refuse("star", "each pattern's entries sit on its template's rows")


def rmatvec(sparsity: Sparsity, values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """G^H x for values (nnz,) on sparsity and x (d,): one overlap per generator."""
    return _sum_by(sparsity.cols, values.conj() * x[sparsity.rows], sparsity.shape[1])


def _column_norms(sparsity: Sparsity, values: np.ndarray) -> np.ndarray:
    """Generator norms of values (nnz,): per-column sums in row order, as a dense column norm."""
    return np.sqrt(_sum_by(sparsity.cols, values.real ** 2 + values.imag ** 2,
                           sparsity.shape[1]))


def _gram_entries(plan: GramPlan, values: np.ndarray) -> np.ndarray:
    """The off-diagonal Gram entries of plan's pairs, for values (nnz,)."""
    return _sum_by(plan.segment, values[plan.left].conj() * values[plan.right],
                   len(plan.first))


class RowNames:
    """Rows of an InstanceStack as the checks of a pass name them.

    numbers are the rows' places in their stack and names their names
    there, if it names its rows; every check that fails names the row by
    both (where).
    """

    def __init__(self, numbers, names=None):
        self.numbers = tuple(numbers)
        self.names = (None,) * len(self.numbers) if names is None else tuple(names)

    def where(self, i: int) -> str:
        """Row i as an error names it: "row r", then its name in brackets when it has one."""
        name = self.names[i]
        return f"row {self.numbers[i]}" + (f" ({name})" if name else "")

    def raise_first(self, failed: np.ndarray, value: np.ndarray, message) -> None:
        """ValueError for the first row where failed is true: message(its value), and the row."""
        if np.count_nonzero(failed):
            row = int(np.argmax(failed))
            raise ValueError(f"{message(value[row])} in {self.where(row)}")


class InstanceRows(RowNames):
    """m instances of one InstanceStructure, their values along a leading row axis.

    psi0 is (m, d) and values[side] (m, nnz); the rows are numbered and
    named as in their InstanceStack (RowNames).  The decision engine takes
    a pass's rows in these groups (InstanceStack.rows) and gathers each
    group's psi0 component at once (component).
    """

    def __init__(self, structure: InstanceStructure, numbers, psi0: np.ndarray,
                 values: dict[str, np.ndarray], names=None):
        super().__init__(numbers, names)
        self.structure = structure
        self.psi0 = psi0
        self.values = values

    def component(self) -> "InstanceRows":
        """Every row on the components psi0's support meets (see PEInstance.psi0_component)."""
        part = self.structure.component
        return InstanceRows(part.structure, self.numbers, self.psi0.take(part.rows, axis=1),
                            {side: v.take(part.entries[side], axis=1)
                             for side, v in self.values.items()}, self.names)


class InstanceStack:
    """Instances tied to be decided together, of any structures and dtypes.

    Row r is the r-th instance given; each instance's stack becomes this
    one and its row r (PEInstance.stack, PEInstance.row).  names, when
    given, names each row for the errors of its checks (RowNames.where),
    such as the seed and regime, or the size and marked set, a row was
    built for.  The stack keeps each row's structure, psi0 and values, the
    instances' own arrays, and never the instances, so it holds no
    reference back to them; spectra is where the decision engine keeps
    each row's spectrum once it is computed.
    """

    def __init__(self, instances: list["PEInstance"], names=None):
        self.names = (None,) * len(instances) if names is None else tuple(names)
        if len(self.names) != len(instances):
            raise ValueError(f"{len(self.names)} names for {len(instances)} rows")
        self.structures = tuple(inst.structure for inst in instances)
        self._psi0 = [inst.psi0 for inst in instances]
        self._values = [inst.values for inst in instances]
        self.spectra: dict[int, object] = {}
        for row, inst in enumerate(instances):
            inst._stack, inst.row = self, row

    def __len__(self) -> int:
        return len(self._psi0)

    def rows(self, numbers) -> list[InstanceRows]:
        """The given rows grouped by structure and dtypes, each group stacked.

        Groups come in the order of their first rows, and each keeps its
        rows in the order given (a view when it has one).
        """
        groups: dict[tuple, list[int]] = {}
        for r in numbers:
            values = self._values[r]
            key = (self.structures[r], self._psi0[r].dtype, *(v.dtype for v in values.values()))
            groups.setdefault(key, []).append(r)

        def stacked(arrays):
            return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)

        return [InstanceRows(key[0], group, stacked([self._psi0[r] for r in group]),
                             {side: stacked([self._values[r][side] for r in group])
                              for side in key[0].sides},
                             [self.names[r] for r in group])
                for key, group in groups.items()]


class PEInstance:
    """A two-reflection phase-estimation instance: its structure plus values.

    The InstanceStructure says where every entry sits; the instance adds
    psi0 and values[side], one (nnz,) array per side on
    structure.sides[side], its generators set by set, so each value exists
    once.  ValueError is raised when psi0's length or a side's values
    length does not match the structure.  Hand-built instances come from
    instance_from_sets and simple ones from build_simple_instance, each
    with a structure of its own (the simple one handed its component's
    rows and the function that lays out its star); the general instances
    of one layout share its structure, and with it its plans (the
    shared-label pairs of the Gram, psi0's component and its star), so an
    instance computes only what depends on its values.  Each side's
    generator norms and shared-label Gram entries are summed once, checked
    and cached (_norms, _gram), and every check of the instance reads
    them: the well-formedness report, the projections and span-membership
    distances of single vectors (one rmatvec per side), and, through one
    cached array of cosines (_cosines), the cross-set cosines of the
    reflection-factorization check and span_basis's orthonormality check.
    No set reflection is ever built.

    Each side's generators are pairwise orthogonal (well_formedness_report
    reports it), so the side's orthonormal span basis is its normalized
    generators.  span_basis checks their orthonormality on the side's
    sparse Gram, raising rather than falling back, and densifies them for
    the oracles.  The decision engine works on psi0_component, the
    instance cut down to the generator components psi0 reaches, block by
    block of its star (InstanceStructure.star), for every row of the
    instance's stack (its own until an InstanceStack ties it to others,
    with row its place there), in the dtype of the values (float64 for a
    real instance such as a simple-loop one, complex otherwise), and
    checks orthonormality block by block itself.  The dense projectors
    and the walk unitary are built lazily from an SVD of the dense
    generator columns instead, so the dense oracle does not share the
    engine's basis; they are d x d, so they alone check the dimension cap.
    """

    def __init__(self, structure: InstanceStructure, psi0: np.ndarray,
                 values: dict[str, np.ndarray]):
        if np.shape(psi0) != (structure.dim,):
            raise ValueError(f"psi0 has shape {np.shape(psi0)}, not ({structure.dim},)")
        for side, sparsity in structure.sides.items():
            if len(values[side]) != len(sparsity.rows):
                raise ValueError(f"side {side}: {len(values[side])} values "
                                 f"for {len(sparsity.rows)} entries")
        self.structure = structure
        self.dim = structure.dim
        self.psi0 = psi0
        self.values = {side: values[side] for side in structure.sides}
        self._cache: dict[str, object] = {}
        self._stack: InstanceStack | None = None
        self.row = 0

    @property
    def stack(self) -> InstanceStack:
        """The InstanceStack this instance is decided in: one of its own until tied."""
        if self._stack is None:
            InstanceStack([self])
        return self._stack

    def set_vectors(self, side: str, name: str) -> list[np.ndarray]:
        """The generators of one named set as dense vectors."""
        counts = self.structure.sets[side]
        start = sum(list(counts.values())[:list(counts).index(name)])
        return self.generators(side)[start:start + counts[name]]

    def generators(self, side: str) -> list[np.ndarray]:
        """All of one side's generators as dense vectors, set by set.

        For the dense oracle paths; the record-based checks never call it.
        """
        return list(_dense(self.structure.sides[side], self.values[side]).T)

    def _norms(self, side: str) -> np.ndarray:
        """The side's generator norms, cached.

        Raises ValueError naming the side when a generator norm is not
        above rank_tol (NaN included): such a generator spans nothing, and
        every check that divides by its norm would report NaN instead.
        """
        key = f"norms_{side}"
        if key not in self._cache:
            norms = _column_norms(self.structure.sides[side], self.values[side])
            if not np.all(norms > DEFAULT_TOL.rank_tol):
                raise ValueError(f"side {side}: generator norm {norms.min():.3e} "
                                 f"is not above rank_tol")
            self._cache[key] = norms
        return self._cache[key]

    def _gram(self, side: str):
        """The side's off-diagonal generator Gram entries, with the norms.

        (i, j, value) arrays over the pairs i < j of generators that share a
        basis label, from the structure's GramPlan; every other off-diagonal
        entry is 0.
        """
        norms = self._norms(side)
        if f"gram_{side}" not in self._cache:
            plan = self.structure.gram(side)
            self._cache[f"gram_{side}"] = (plan.first, plan.second,
                                           _gram_entries(plan, self.values[side]))
        return self._cache[f"gram_{side}"], norms

    def _cosines(self, side: str) -> np.ndarray:
        """|G_ij| / (|g_i| |g_j|) over the side's shared-label pairs, in _gram's order, cached."""
        key = f"cosines_{side}"
        if key not in self._cache:
            (first, second, values), norms = self._gram(side)
            self._cache[key] = np.abs(values) / (norms[first] * norms[second])
        return self._cache[key]

    def gram_offdiagonal_residual(self, side: str) -> float:
        """Largest off-diagonal Gram entry among one side's generators."""
        (_, _, values), _ = self._gram(side)
        return float(np.max(np.abs(values), initial=0.0))

    def cross_set_cosine(self, side: str) -> float:
        """Largest |<g, h>| / (|g| |h|) over generators in different sets of a side.

        0 for a side with a single set; overlaps within a set are ignored.
        """
        cross = self.structure.gram(side).cross
        return float(np.max(self._cosines(side)[cross], initial=0.0))

    def projection_norm_sq(self, side: str, vec: np.ndarray) -> float:
        """Squared norm of the projection of vec onto one side's span.

        Valid because the side's generators are pairwise orthogonal.
        """
        norms = self._norms(side)
        overlaps = rmatvec(self.structure.sides[side], self.values[side], vec)
        return float(np.sum(np.abs(overlaps) ** 2 / norms ** 2))

    def membership_residual(self, side: str, vec: np.ndarray) -> float:
        """Distance from vec to one side's span.

        Computed as the norm of the residual vector vec - P vec (not via
        squared norms, which would cancel catastrophically for vectors
        inside the span).
        """
        sparsity, values = self.structure.sides[side], self.values[side]
        overlaps = rmatvec(sparsity, values, vec)
        # P vec = G c with c = overlaps / norms^2, each label's entries summed in order
        c = overlaps / self._norms(side) ** 2
        return float(np.linalg.norm(vec - _sum_by(sparsity.rows, values * c[sparsity.cols],
                                                  self.dim)))

    def span_basis(self, side: str) -> np.ndarray:
        """Orthonormal basis (dim x generator count) of one side's span.

        The normalized generators (_normalized), densified: for the dense
        oracles, as the decision engine works on the sparse values.
        """
        return _dense(self.structure.sides[side], self._normalized(side))

    def _normalized(self, side: str) -> np.ndarray:
        """One side's generators each divided by its norm, (nnz,) values.

        They are an orthonormal basis of the side's span only because the
        generators are pairwise orthogonal, so that is checked here on the
        sparse Gram of the normalized generators rather than a dense Q^H Q:
        its off-diagonal entries are the shared-label cosines (_cosines;
        every other pair is orthogonal by support, within a set or across
        sets), and its diagonal is each normalized generator's squared
        norm.  A largest |Q^H Q - I| entry above assert_tol, or NaN, raises
        ValueError naming the side (as does a vanishing generator, in
        _norms).  The values keep the side's dtype: float64 for a real side.
        """
        sparsity = self.structure.sides[side]
        q = self.values[side] / self._norms(side)[sparsity.cols]
        sq = _sum_by(sparsity.cols, q.real ** 2 + q.imag ** 2, sparsity.shape[1])
        resid = np.maximum(self._cosines(side).max(initial=0.0),
                           np.abs(sq - 1.0).max(initial=0.0))
        if not resid <= DEFAULT_TOL.assert_tol:
            raise ValueError(f"side {side}: normalized generators are not orthonormal, "
                             f"residual {resid:.3e}")
        return q

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
        distribution as the full instance.  The rows, the kept entries and
        the component's own structure come from InstanceStructure.component;
        only psi0 and the values are gathered.  Cached.
        """
        if "component" not in self._cache:
            part = self.structure.component
            self._cache["component"] = PEInstance(
                part.structure, self.psi0[part.rows],
                {side: v[part.entries[side]] for side, v in self.values.items()})
        return self._cache["component"]

    def projector(self, side: str) -> Projector:
        """Dense projector onto one side's span, from an SVD of its generators.

        Computed independently of span_basis, so the dense walk built from
        it checks the decision engine rather than sharing its basis.
        Cached per side (rank_tol sets the rank).
        """
        key = f"proj_{side}"
        if key not in self._cache:
            check_dim(self.dim)
            self._cache[key] = projector_from_set(self.generators(side),
                                                  dim=self.dim)
        return self._cache[key]

    def walk_unitary(self) -> np.ndarray:
        if "walk" not in self._cache:
            ra = reflection(self.projector("A"))
            rb = reflection(self.projector("B"))
            self._cache["walk"] = ra @ rb
        return self._cache["walk"]

    def well_formedness_report(self, tol: TolerancePolicy = DEFAULT_TOL) -> dict:
        """Orthogonality within each side and psi0 against the B span.

        tol must be DEFAULT_TOL (ValueError otherwise): it is accepted only
        because perfbench/workloads.py still passes it, and ROADMAP item 1
        drops it.
        """
        if tol != DEFAULT_TOL:
            raise ValueError(f"only DEFAULT_TOL is accepted, got {tol!r}")
        psi0_b = math.sqrt(max(self.projection_norm_sq("B", self.psi0), 0.0))
        report = {
            "gram_offdiag_A": self.gram_offdiagonal_residual("A"),
            "gram_offdiag_B": self.gram_offdiagonal_residual("B"),
            "psi0_norm_residual": abs(float(np.linalg.norm(self.psi0)) - 1.0),
            "psi0_overlap_B": psi0_b,
        }
        report["passed"] = all(v <= DEFAULT_TOL.assert_tol for v in report.values())
        return report


def instance_from_sets(dim: int, psi0: np.ndarray, a_sets: dict[str, list[np.ndarray]],
                       b_sets: dict[str, list[np.ndarray]]) -> PEInstance:
    """The instance of named sets of dense generator vectors, with a structure of its own.

    For hand-built instances: each generator keeps its nonzero entries,
    and a generator whose length is not dim raises ValueError.  Each
    side's sets are laid side by side in the order given, their values
    joined into the side's one array.  The structure searches its
    component and Gram pairs and is handed no star, so the instance is
    decided as one block.
    """
    sides, counts, values = {}, {}, {}
    for side, named in (("A", a_sets), ("B", b_sets)):
        stored = []
        for vectors in named.values():
            dense = (np.stack([np.asarray(v).ravel() for v in vectors])
                     if len(vectors) else np.zeros((0, dim)))
            k, length = dense.shape
            if length != dim:
                raise ValueError(f"generator length {length} does not match dim {dim}")
            stored.append(_from_entries(dim, np.tile(np.arange(dim), k), dense.ravel(),
                                        np.full(k, dim)))
        sides[side] = _hstack(dim, [sparsity for sparsity, _ in stored])
        counts[side] = {name: sparsity.shape[1] for name, (sparsity, _) in zip(named, stored)}
        values[side] = np.concatenate([np.zeros(0)] + [v for _, v in stored])
    return PEInstance(InstanceStructure(dim, np.flatnonzero(psi0), sides, counts),
                      psi0, values)


# ---------------------------------------------------------------------------
# Simple variant
# ---------------------------------------------------------------------------

def _simple_block(marked: bool) -> InstanceStructure:
    """One input's block of a simple instance's star, its rows (qry, ret, chk) numbered 0, 1, 2.

    Side A' holds the check generator on (ret, chk), side B the query
    generator on (qry, ret) and, for an unmarked input, the absorb
    generator on chk.
    """
    sides = {"A": Sparsity(3, np.array([0, 2]), np.array([1, 2])),
             "B": (Sparsity(3, np.array([0, 2]), np.array([0, 1])) if marked
                   else Sparsity(3, np.array([0, 2, 3]), np.array([0, 1, 2])))}
    return InstanceStructure(3, np.zeros(0, dtype=np.int64), sides,
                             {side: {"block": m.shape[1]} for side, m in sides.items()})


#: the block structures of the simple instances' stars: an unmarked input's, a marked one's
SIMPLE_BLOCKS = (_simple_block(False), _simple_block(True))


def _simple_star(answer: np.ndarray, rows: np.ndarray, structure: InstanceStructure) -> Star:
    """The star of a simple instance's psi0 component, laid out from the answer vector.

    rows are the component's labels and structure its structure, which
    the layout does not read: the rows build_simple_instance hands over
    are src, then qry(i, 0), ret(i, a_i) and chk(i, a_i) of every input as
    rows i, n + i and 2n + i.  The hub is the launch generator and the
    one free row is src; block i - 1 holds rows i, n + i and 2n + i, side
    A's check(i, a_i) and side B's query(i) (and absorb, unmarked), laid
    out as SIMPLE_BLOCKS[a_i]; the patterns come in the order of their
    first blocks.
    """
    n = len(answer)
    i = np.arange(1, n + 1)
    u = n - np.count_nonzero(answer)
    patterns = []
    for marked in (answer[0],) if u in (0, n) else (answer[0], 1 - answer[0]):
        ins = i[answer == marked]
        b_entries = np.empty((len(ins), 3 - marked), dtype=np.int64)
        b_entries[:, 0], b_entries[:, 1] = 2 * ins - 2, 2 * ins - 1
        if not marked:
            b_entries[:, 2] = 2 * n + np.arange(u)
        patterns.append(BlockPattern(SIMPLE_BLOCKS[marked], _read_only(
            ins[:, None] + np.array([0, n, 2 * n])), {
                "A": _read_only((n - 1 + 2 * ins)[:, None] + np.arange(2)),
                "B": _read_only(b_entries)}))
    return Star(0, _read_only(np.zeros(1, dtype=np.int64)), tuple(patterns))


def build_simple_instance(oracle: OracleSpec, omega: float) -> PEInstance:
    """Unit-cost-query loop instance over domain [1..N] (label 0 reserved).

    Generator sets: "launch" (one vector tying the source label to all
    query branches, weighted by omega), "query" (query transition folding
    the oracle answer into the returned bit), "check" (return-to-check
    transitions for both bit values), "absorb" (checked unmarked branches,
    the dead end that closes the loop).  Every array is laid out from n
    and the answer vector a (a_i = 1 for a marked input i) by index
    arithmetic, with no loop over the inputs; each generator's labels
    ascend (src < qry < ret < chk).  It hands its structure the rows of
    psi0's component, src then qry(i, 0), ret(i, a_i) and chk(i, a_i) of
    every input, which the structure checks and lays out once, on first
    read (_component_on), and the component's star as a function of the
    answer vector (_simple_star), laid out and checked (_check_star) on the
    first read of that star.  ValueError when omega is not positive or
    omega / n underflows to 0 (the launch generator would lose its qry
    entries).
    """
    if not omega > 0:  # false for nan too
        raise ValueError("omega must be positive")
    n = oracle.size
    weight = -math.sqrt(omega / n)
    if weight == 0.0:
        raise ValueError(f"omega / n = {omega} / {n} underflows to 0")
    basis = SimpleBasis(n)
    i = np.arange(1, n + 1)
    answer = np.zeros(n, dtype=np.int64)
    answer[np.fromiter(oracle.marked, dtype=np.int64, count=len(oracle.marked))] = 1
    unmarked = i[answer == 0]
    u = len(unmarked)
    # labels (SimpleBasis.index): src(0, 0) = 0, qry(i, 0) = step + 2i,
    # ret(i, b) = qry(i, 0) + step + b and chk(i, b) = ret(i, b) + step
    step = 2 * (n + 1)
    qry = step + 2 * i
    ret = qry + step + answer                       # ret(i, a_i)

    # side A: launch on src and every qry(i, 0), then check(i, b) on
    # ret(i, b) and chk(i, b), b fastest; side B: query(i) on qry(i, 0) and
    # ret(i, a_i), then absorb on chk(i, 0) of every unmarked i
    a_rows, a_values = np.zeros(5 * n + 1, dtype=np.int64), np.empty(5 * n + 1)
    a_rows[1:n + 1] = qry
    a_rows[n + 1::2] = 2 * step + 2 + np.arange(2 * n)
    a_rows[n + 2::2] = a_rows[n + 1::2] + step
    a_values[0], a_values[1:n + 1], a_values[n + 1::2], a_values[n + 2::2] = 1.0, weight, 1.0, -1.0
    b_rows, b_values = np.empty(2 * n + u, dtype=np.int64), np.ones(2 * n + u)
    b_rows[:2 * n:2], b_rows[1:2 * n:2], b_rows[2 * n:] = qry, ret, 3 * step + 2 * unmarked
    b_values[1:2 * n:2] = -1.0
    a_ptr = np.arange(n - 1, 5 * n + 2, 2)
    a_ptr[0] = 0
    b_ptr = np.concatenate([np.arange(0, 2 * n, 2), np.arange(2 * n, 2 * n + u + 1)])
    sets = {"A": {"launch": 1, "check": 2 * n}, "B": {"query": n, "absorb": u}}
    # psi0's component: rows src, then qry(i, 0), ret(i, a_i) and chk(i, a_i)
    rows = np.zeros(3 * n + 1, dtype=np.int64)
    rows[1:n + 1], rows[n + 1:2 * n + 1], rows[2 * n + 1:] = qry, ret, ret + step
    psi0 = basis.unit("src", 0, 0)
    return PEInstance(InstanceStructure(basis.dim, np.zeros(1, dtype=np.int64), {
        "A": Sparsity(basis.dim, a_ptr, a_rows), "B": Sparsity(basis.dim, b_ptr, b_rows)},
        sets, component_rows=rows, component_star=partial(_simple_star, answer)),
        psi0, {"A": a_values, "B": b_values})


@dataclass(frozen=True)
class PositiveWitness:
    vector: np.ndarray
    closed_norm_sq: float


@dataclass(frozen=True)
class NegativeWitness:
    w_a: np.ndarray
    w_b: np.ndarray
    closed_norm_sq: float   # closed form for the squared norm of w_a


def fsum_norm_sq(vec: np.ndarray) -> float:
    """Squared norm of vec, exactly rounded: math.fsum of its squared parts.

    Only nonzero parts enter.  A closed-form norm summed with math.fsum
    then differs from it only by the rounding of the terms, not by two
    summation orders over 10^5 or more of them.
    """
    parts = np.ascontiguousarray(vec).view(np.float64)
    parts = parts[parts != 0]
    return math.fsum((parts * parts).tolist())


def _scatter(dim: int, pieces, m: int = 1) -> np.ndarray:
    """Sums of (rows, values) pieces as m d-vectors, (m, d); no two entries share a label.

    Each piece's values broadcast against (m,) + the shape of its rows.
    """
    vec = np.zeros((m, dim), dtype=complex)
    for rows, values in pieces:
        vec[:, rows] = values
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
        w = _scatter(basis.dim, [(src, 1.0), (path, coef)])[0]
        return PositiveWitness(vector=w,
                               closed_norm_sq=1.0 + 3.0 * n / (m_count * omega))

    i = np.arange(1, n + 1)
    coef = math.sqrt(omega / n)
    w_a = _scatter(basis.dim, [(src, 1.0), (idx("qry", i, 0), -coef),
                               (idx("ret", i, 0), coef), (idx("chk", i, 0), -coef)])[0]
    w_b = -w_a
    w_b[src] += 1.0
    return NegativeWitness(w_a=w_a, w_b=w_b, closed_norm_sq=1.0 + 3.0 * omega)


# ---------------------------------------------------------------------------
# General variant: history states and witnesses
# ---------------------------------------------------------------------------

def _alphas(spec: SubroutineSpec, alphas) -> np.ndarray:
    """alphas as an (m, T + 1) float array, each row checked as history_states checks alpha."""
    alphas = np.asarray(alphas, dtype=float)
    if (alphas.shape[1:] != (spec.num_steps + 1,)
            or not (abs(alphas[:, 0] - 1.0) <= 1e-14).all()):
        raise ValueError("need one positive alpha per step with alpha[0] = 1")
    if not (alphas > 0).all():  # false for nan too
        raise ValueError("alpha weights must be positive")
    return alphas


def _history_rows(spec: SubroutineSpec, inputs, alphas: np.ndarray):
    """history_states for every row of checked alphas (m, T + 1), along a leading row axis.

    rows is (k, width) for the k inputs, read from the spec's layout
    (GeneralLayout.history_rows); plus and minus are (m, k, width) and the
    closed norms (m, k).  The states are taken per call: spec.trajectory's
    rows of the inputs with the labels halted by step t - 1 zeroed at
    counter t.  Each row is history_states' elementwise arithmetic, and
    each norm its running sum in t order, so a row has the bytes of
    history_states under its alpha.
    """
    inputs = np.asarray(inputs, dtype=int)
    if np.any((inputs < 0) | (inputs >= spec.num_inputs)):
        raise IndexError(f"input index out of range 0..{spec.num_inputs - 1}")
    # row t: the labels halted by step t - 1 (none at t = 0)
    halted = spec._halted_table[np.maximum(np.arange(spec.num_steps + 1) - 1, 0)]
    states = np.where(halted, 0, spec.trajectory[inputs])[:, :, None]
    root = np.sqrt(alphas)
    # (row, input, t, track, (a, z) block): both tracks, the rewind one negated
    plus = np.empty((len(alphas), len(inputs), alphas.shape[1], 2, states.shape[3]),
                    dtype=complex)
    minus = np.empty_like(plus)
    np.divide(states, root[:, None, :, None, None], out=plus[:, :, :, :1])
    plus[:, :, :, 1] = plus[:, :, :, 0]
    signed = (-1.0) ** np.arange(alphas.shape[1]) * root
    np.multiply(states, signed[:, None, :, None, None], out=minus[:, :, :, :1])
    np.negative(minus[:, :, :, 0], out=minus[:, :, :, 1])
    survival = spec.survival[inputs]
    # one term per t, added in t order by a running sum: np.sum or @ would
    # regroup sums of eight or more terms and move the closed norms in the
    # last bit
    norm_plus = np.cumsum((1.0 / alphas)[:, None] * survival, axis=2)[..., -1]
    norm_minus = np.cumsum(alphas[:, None] * survival, axis=2)[..., -1]
    shape = (len(alphas), len(inputs), -1)
    return (general_layout(spec).history_rows[inputs], plus.reshape(shape),
            minus.reshape(shape),
            2.0 * norm_plus, 2.0 * norm_minus)


def history_states(spec: SubroutineSpec, inputs, alpha: np.ndarray):
    """History states of the given inputs as (rows, plus, minus, norm_plus, norm_minus).

    Row j of rows lists the distinct labels of input inputs[j]'s history:
    the (a, z) block at every program counter t on the "fwd" (bit 0) and
    "bwd" (bit f(i)) tracks.  plus[j] and minus[j] are the forward and
    rewind states on those labels: 1/sqrt(alpha_t) weights on both tracks,
    and alternating-sign sqrt(alpha_t) weights with a relative minus sign
    between tracks.

    The state at counter t is the history's projected recurrence, which
    removes the part halted by step t - 1 before applying U_t.  Because
    every U_t acts as the identity on the labels halted by step t - 1
    (validate's halted_space_fixed check), that equals spec.trajectory's
    row t with those labels zeroed.  The labels depend only on the spec's
    sizes and outputs, so they are read from its layout
    (GeneralLayout.history_rows).  A state's squared norm is
    P[T_i >= t], so norm_plus and norm_minus, the closed squared norms
    2 E[sum_{t<=T_i} 1/alpha_t] and 2 E[sum_{t<=T_i} alpha_t], are sums
    over spec.survival, accumulated in t order.  The witnesses take the
    states of several weightings at once (_history_rows), of which this
    is the one-row case.
    """
    rows, plus, minus, norm_plus, norm_minus = _history_rows(
        spec, inputs, _alphas(spec, np.asarray(alpha, dtype=float)[None]))
    return rows, plus[0], minus[0], norm_plus[0], norm_minus[0]


class ValueSources(NamedTuple):
    """Where a general side's stored values come from, but for its spec's U: what specs share.

    Entry e of sparsity has scale table[scale[e]], an int32 index into
    GeneralLayout.fill's table [1, -1, sqrt(alpha_0), ..., sqrt(alpha_T),
    -sqrt(omega_1 / n), ..., -sqrt(omega_n / n)]; inner lists, ascending,
    the entries that are inner transitions onto the (a, z) block one step
    later, whose value is 0.0 - scale * u with u their step-unitary entry,
    in that order (GeneralLayout.u_index).  The side's one inner set reads
    U at the columns cols of each input's row of U.reshape(n, -1), its
    T (2|Z|)^2 step-unitary entries, and stored packs into bits, row by
    row (np.packbits on axis 1), the (n, len(cols)) mask of whether input
    i stores the entry at cols[c], that is whether U is nonzero there.
    """

    sparsity: Sparsity
    scale: np.ndarray
    inner: np.ndarray
    cols: np.ndarray
    stored: np.ndarray


def _layout_key(spec: SubroutineSpec) -> tuple:
    """What a spec's labels and generators depend on besides U's zeros."""
    return (spec.num_inputs, spec.num_steps, spec.workspace_size,
            tuple(map(tuple, spec.partition)), tuple(spec.outputs))


def _input_star(stride: int, kinds: np.ndarray, rows: np.ndarray,
                structure: InstanceStructure) -> Star:
    """The star of a general instance's psi0 component, laid out input by input.

    rows are the component's labels and structure its structure.  The hub
    is the launch generator, side A's first, and the one free row is src,
    psi0's.  Label (tag, i, ...) lies in [(tag (n + 1) + i) stride,
    (tag (n + 1) + i + 1) stride), so a row's input is its label // stride
    mod (n + 1), 0 for src.  Block i - 1 holds input i's rows and
    generators (every one but the hub lies on one input's labels), both
    ascending, the entries in storage order.  Inputs with equal rows of
    kinds (the same output, U nonzero at the same entries) have the same
    generators up to the shift, so one input of each kind lays out the
    kind's block structure; kinds with equal block structures share a
    pattern, and patterns come in the order of their first block.
    """
    n = len(kinds)
    owner = rows // stride % (n + 1) - 1

    def grouped(of):
        """The places where of >= 0, input by input, with each input's count and start."""
        held = np.flatnonzero(of >= 0)
        counts = np.bincount(of[held], minlength=n)
        return held[np.argsort(of[held], kind="stable")], counts, np.cumsum(counts) - counts

    def taken(group, inputs):
        """(len(inputs), count) places of inputs of one count, from grouped."""
        order, counts, start = group
        return _read_only(order[start[inputs][:, None] + np.arange(counts[inputs[0]])])

    # the rows, and each side's entries by their generator's first row (the hub's on src)
    groups = {"rows": grouped(owner), **{side: grouped(owner[s.rows[s.indptr[s.cols]]])
                                         for side, s in structure.sides.items()}}
    # each input's kind, named by the kind's first input: one sort of the
    # rows of kinds, each row viewed as one byte string
    rows_as_bytes = np.ascontiguousarray(kinds).view(np.dtype((np.void, kinds.shape[1])))
    _, firsts, inverse = np.unique(rows_as_bytes[:, 0], return_index=True,
                                   return_inverse=True)
    kind = firsts[inverse]
    patterns: dict[bytes, list] = {}
    for first in np.sort(firsts):
        block_rows = taken(groups["rows"], [first])[0]
        local = np.empty(structure.dim, dtype=np.int64)
        local[block_rows] = np.arange(len(block_rows))
        sides = {}
        for side, s in structure.sides.items():
            entries = taken(groups[side], [first])[0]
            gens = s.cols[entries]
            sides[side] = Sparsity(len(block_rows), np.append(
                np.flatnonzero(np.diff(gens, prepend=-1)), len(gens)), local[s.rows[entries]])
        block = InstanceStructure(len(block_rows), np.zeros(0, dtype=np.int64), sides,
                                  {side: {"block": m.shape[1]} for side, m in sides.items()})
        patterns.setdefault(block.layout, [block, []])[1].append(first)
    star = []
    for block, kinds_in in patterns.values():
        members = np.flatnonzero(np.isin(kind, kinds_in))
        star.append(BlockPattern(block, taken(groups["rows"], members),
                                 {side: taken(groups[side], members) for side in structure.sides}))
    return Star(0, _read_only(np.flatnonzero(owner < 0)), tuple(star))


class GeneralLayout:
    """The general instance of a SubroutineSpec, all but its weights and its U values.

    The basis labels, the generators and the labels each generator
    touches are fixed by the spec's sizes, partition and outputs and by
    where its step unitaries are exactly 0; a regime changes only omega
    and alpha, and so only values.  Every input runs its own copy of the
    subroutine, so in the label lattice (tag, i, b, a, z, t) input i's
    generators are input 1's shifted by (i - 1) 4|Z|(T + 1) labels, with
    their step-unitary entries (i - 1) T (2|Z|)^2 further along U.flat.
    The layout lists input 1's generators once, each with its labels
    ascending, and lays every input out as that template shifted; it keeps
    each side's sets, joined in order, as one Sparsity with its value
    sources (ValueSources), and holds the InstanceStructure, with psi0's
    component, its star and the Gram pairs, that every instance on it
    shares.  The structure searches the rows of psi0's component, lays
    the component out on them (_component_on), and is handed the
    function that lays out the component's star (_input_star), with each
    input's kind: its output and its rows of the stored masks.  An
    inner-transition entry is stored where its step-unitary
    entry is nonzero (for positive weights, the entries whose filled value
    is nonzero); that is decided after the shift, since the inputs' U
    differ in their exact zeros (a marked input's flipped unitary among
    them).  u_index[side] lists the side's stored inner entries as flat
    indices into spec.unitaries, input by input, in ValueSources.inner
    order, so a spec's values are one take a side (fill).  The history
    states' labels are laid out here too: row i of history_rows lists
    input i's distinct history labels, the (a, z) block at every program
    counter t on the "fwd" (bit 0) and "bwd" (bit f(i)) tracks, and row i
    of history_slots the witnesses' src (bit 0), ret and chk (bit f(i))
    labels at (a, z, t) = (0, 0, 0).  Built only by general_layouts, in
    which specs of one layout (fits) share it, and kept with each spec;
    every array it holds is read-only.
    """

    def __init__(self, spec: SubroutineSpec):
        n = spec.num_inputs
        basis = GeneralBasis.for_spec(spec)
        w = spec.workspace_size
        t_max = spec.num_steps
        self.key = _layout_key(spec)
        self.num_inputs = n
        self.psi0 = _read_only(basis.unit("src", 0, 0))

        # value sources: each entry's scale, as an int32 index into fill's
        # table (+1, -1, sqrt(alpha_t), -sqrt(omega_i / n)), and beside it an
        # index f into U = spec.unitaries, -1 unless the value is 0.0 - scale U.flat[f]
        plus, minus, no_u = 0, 1, -1
        sqrt_alpha = 2 + np.arange(t_max + 1, dtype=np.int32)
        neg_omega = 3 + t_max + np.arange(n, dtype=np.int32)
        idx = basis.index
        pair = np.array([plus, minus], dtype=np.int32)
        z_all, ab = np.arange(w), np.array([0, 1])
        halted = np.array([spec.halted_mask(t)[:w] for t in range(t_max + 1)])

        # Input 1's generators, entries listed generator by generator with
        # each generator's labels ascending.  The even set holds steps
        # 0, 2, ... and the odd set steps 1, 3, ..., so steps are taken
        # even ones first and split where the parity changes.
        # Inner transitions leave step t, over (t, tag, b, a, z) with z
        # fastest and z live at t: sqrt(alpha_t) on "here", label (a, z) at
        # t, and -sqrt(alpha_{t+1}) U_{t+1}[:, a|Z| + z] on the (a, z)
        # block "there" at t + 1.  Here lies between there's entries
        # m - 1 and m, m = a|Z| + z, so it takes position m, and entry
        # k > m is there's k - 1.
        t_in = np.concatenate([np.arange(0, t_max, 2), np.arange(1, t_max, 2)])
        t_g = t_in[:, None, None, None, None, None]
        base = np.stack([idx(tag, 1, ab[:, None, None], 0, 0, 0)
                         for tag in ("fwd", "bwd")])[..., None]
        m = (ab[:, None] * w + z_all)[..., None]
        k = np.arange(2 * w + 1)
        here, j = k == m, k - (k > m)
        rows = base + np.where(here, m * (t_max + 1) + t_g, j * (t_max + 1) + t_g + 1)
        live = np.broadcast_to(~halted[t_in][:, None, None, None, :], rows.shape[:-1])
        transitions = [np.broadcast_to(a, rows.shape)[live] for a in (
            rows, np.where(here, sqrt_alpha[t_g], sqrt_alpha[t_g + 1]),
            np.where(here, no_u, (t_g * 2 * w + j) * 2 * w + m))]
        # turnarounds at step t, over (t, a, b, z) with z ascending and z
        # halting at t: +1 on fwd (b, a, z) and -1 on bwd (b ^ a, a, z)
        t_on = np.concatenate([np.arange(2, t_max + 1, 2), np.arange(1, t_max + 1, 2)])
        t_g, a_g, b_g = t_on[:, None, None, None], ab[:, None, None], ab[:, None]
        fresh = np.broadcast_to((halted[t_on] & ~halted[t_on - 1])[:, None, None],
                                (len(t_on), 2, 2, w))
        turnarounds = np.stack([idx("fwd", 1, b_g, a_g, z_all, t_g)[fresh],
                                idx("bwd", 1, b_g ^ a_g, a_g, z_all, t_g)[fresh]], axis=-1)
        # the generators of the even steps come first
        cut_in = np.count_nonzero(live[:(t_max + 1) // 2])
        cut_on = np.count_nonzero(fresh[:t_max // 2])

        def template(trans, turn):
            """(rows, scale, u, counts): an inner set's transitions, then turnarounds."""
            return (np.concatenate([trans[0].ravel(), turn.ravel()]),
                    np.concatenate([trans[1].ravel(), np.tile(pair, len(turn))]),
                    np.concatenate([trans[2].ravel(), np.full(turn.size, no_u)]),
                    np.repeat([2 * w + 1, 2], [len(trans[0]), len(turn)]))

        even = template([a[:cut_in] for a in transitions], turnarounds[:cut_on])
        odd = template([a[cut_in:] for a in transitions], turnarounds[cut_on:])
        # input i's labels are input 1's shifted by (i - 1) label_stride, its
        # U entries at the same columns of row i of U.reshape(n, -1)
        label_stride = 4 * w * (t_max + 1)
        shift = np.arange(n)[:, None]
        per_input = spec.unitaries.reshape(n, -1)
        u_stride = per_input.shape[1]

        def inner_fill(rows, scale, source, counts):
            """An inner set: the template shifted to every input, U = 0 entries dropped."""
            inner = source >= 0
            cols = source[inner]
            stored = per_input[:, cols] != 0
            keep = np.repeat(~inner[None], n, axis=0)
            keep[:, inner] = stored
            # the entries each generator keeps, counted from its first entry
            starts = (np.cumsum(counts) - counts + len(rows) * shift).ravel()
            indptr = np.concatenate([[0], np.cumsum(
                np.add.reduceat(keep.ravel(), starts, dtype=np.int64))])
            # the input and the template entry of every kept entry
            kept_i, kept_e = np.nonzero(keep)
            return (Sparsity(basis.dim, indptr, rows[kept_e] + label_stride * kept_i),
                    scale[kept_e], inner[kept_e], cols, np.packbits(stored, axis=1),
                    (cols + u_stride * shift)[stored])

        def plain_fill(rows, scale):
            """A set of (g, width) generators with no U entry, every entry stored."""
            scales = np.empty(rows.shape, dtype=np.int32)
            scales[...] = scale
            return (Sparsity(basis.dim, np.arange(0, rows.size + 1, rows.shape[1]),
                             rows.ravel()),
                    scales.ravel(), np.zeros(rows.size, dtype=bool))

        # slot generators run over (i, b, a) with a fastest, at z = 0, t = 0
        b_s, a_s = np.repeat(ab, 2), np.tile(ab, 2)

        def slot(first, second, scales):
            rows = np.stack([idx(first, 1, b_s, a_s, 0, 0),
                             idx(second, 1, b_s, a_s, 0, 0)], axis=1)
            return plain_fill((rows + label_stride * shift[..., None]).reshape(-1, 2),
                              scales)

        unmarked = np.flatnonzero(np.array(spec.outputs) == 0)[:, None]
        sets = {
            "A": {"launch": plain_fill(
                      np.concatenate([[idx("src", 0, 0, 0, 0, 0)],
                                      idx("src", np.arange(1, n + 1), 0, 0, 0, 0)])[None],
                      np.concatenate([[plus], neg_omega])),
                  "even": inner_fill(*even),
                  "check": slot("ret", "chk", pair)},
            "B": {"forward": slot("src", "fwd", pair),
                  "odd": inner_fill(*odd),
                  # ret precedes bwd, so the pair is swapped
                  "backward": slot("ret", "bwd", pair[::-1]),
                  "absorb": plain_fill(
                      (idx("chk", 1, 0, ab, 0, 0) + label_stride * unmarked).reshape(-1, 1),
                      plus)}}
        # each side's sets side by side: their patterns and value sources
        # joined, with the U columns and U.flat indices of its one inner set
        self.sources, self.u_index = {}, {}
        for side, named in sets.items():
            sparsities, scale, inner = map(list, zip(*(s[:3] for s in named.values())))
            cols, stored, u_index = named["even" if side == "A" else "odd"][3:]
            self.sources[side] = ValueSources(_hstack(basis.dim, sparsities), *map(_read_only, (
                np.concatenate(scale), np.flatnonzero(np.concatenate(inner)), cols, stored)))
            self.u_index[side] = _read_only(u_index)
        # an input's generators are fixed by its output and where its U is
        # nonzero: one row of kinds, input by input
        kinds = np.concatenate([np.array(spec.outputs, dtype=np.uint8)[:, None],
                                self.sources["A"].stored, self.sources["B"].stored], axis=1)
        self.structure = InstanceStructure(
            basis.dim, np.flatnonzero(self.psi0),
            {side: s.sparsity for side, s in self.sources.items()},
            {side: {name: s[0].shape[1] for name, s in named.items()}
             for side, named in sets.items()},
            component_star=partial(_input_star, label_stride, _read_only(kinds)))
        # the history states' labels, over (input, t, track, (a, z) block),
        # and the witnesses' slots, input by input
        inputs, steps = np.arange(1, n + 1)[:, None], np.arange(t_max + 1)
        fi = np.array(spec.outputs, dtype=int)[:, None]
        self.history_rows = _read_only(np.stack(
            [basis.az_indices("fwd", inputs, 0, steps),
             basis.az_indices("bwd", inputs, fi, steps)], axis=2).reshape(n, -1))
        self.history_slots = _read_only(np.concatenate(
            [idx(tag, inputs, b, 0, 0, 0) for tag, b in (("src", 0), ("ret", fi),
                                                         ("chk", fi))], axis=1))

    def fits(self, spec: SubroutineSpec) -> bool:
        """Whether spec has this layout, checked entry by entry.

        The same sizes, partition and outputs, and U exactly 0 at every
        template entry the layout drops and nonzero at every entry it
        stores: the packed bits of U's nonzero mask equal the stored ones.
        """
        return (_layout_key(spec) == self.key
                and all(np.array_equal(np.packbits(
                    spec.unitaries.reshape(self.num_inputs, -1)[:, s.cols] != 0, axis=1),
                    s.stored)
                        for s in self.sources.values()))

    def fill(self, spec: SubroutineSpec, weights) -> list[PEInstance]:
        """spec's instances under a sequence of weights: per side, one gather and its values.

        spec's U entries are one take a side (u_index).  The values are the
        elementwise expressions of the label-by-label construction on the
        same operands (+-1, sqrt(alpha_t), -sqrt(omega_i / n) and
        0.0 - sqrt(alpha_{t+1}) U), taken for every weighting at once along
        a leading row axis, so each keeps its bits.  ValueError is raised
        unless this is spec's own layout (general_layout); the weights'
        lengths are build_general_instances' to check.
        """
        if spec.__dict__.get("general_layout") is not self:
            raise ValueError("spec's layout is not this one: take it from general_layout(spec)")
        steps = len(weights[0].alpha)
        table = np.empty((len(weights), 2 + steps + self.num_inputs))
        table[:, 0], table[:, 1] = 1.0, -1.0
        for row, w in zip(table, weights):
            np.sqrt(w.alpha, out=row[2:2 + steps])
            np.negative(np.sqrt(w.omega / self.num_inputs), out=row[2 + steps:])
        values = {}
        for side, s in self.sources.items():
            scale = table.take(s.scale, axis=1)
            values[side] = scale.astype(complex)
            values[side][:, s.inner] = (0.0 - scale.take(s.inner, axis=1)
                                        * spec.unitaries.take(self.u_index[side]))
        return [PEInstance(self.structure, self.psi0, {side: v[r] for side, v in values.items()})
                for r in range(len(weights))]


def _per_spec(spec: SubroutineSpec, key: str, build):
    """build(spec), made on first use and kept in spec.__dict__ under key.

    That is the storage functools.cached_property uses for spec.trajectory,
    so the value lives and dies with its spec (which is never hashed), and
    a new spec, even an equal one, builds its own.
    """
    value = spec.__dict__.get(key)
    if value is None:
        value = spec.__dict__[key] = build(spec)
    return value


def general_layouts(specs) -> list[GeneralLayout]:
    """Each spec's GeneralLayout, specs of one layout sharing it, kept with the spec.

    A spec with no layout yet takes that of an earlier spec of this call
    when GeneralLayout.fits finds its labels and U's exact zeros the same,
    checked entry by entry, and builds its own otherwise.  The map from
    layout keys to layouts lives in this call only, so the layouts live
    and die with their specs.
    """
    known: dict[tuple, list[GeneralLayout]] = {}

    def build(spec):
        for layout in known.get(_layout_key(spec), ()):
            if layout.fits(spec):
                return layout
        return GeneralLayout(spec)

    layouts = []
    for spec in specs:
        layout = _per_spec(spec, "general_layout", build)
        shared = known.setdefault(layout.key, [])
        if not any(other is layout for other in shared):
            shared.append(layout)
        layouts.append(layout)
    return layouts


def general_layout(spec: SubroutineSpec) -> GeneralLayout:
    """spec's GeneralLayout (general_layouts), built on first use and kept with the spec."""
    return general_layouts([spec])[0]


def build_general_instances(spec: SubroutineSpec, weights) -> list[PEInstance]:
    """Loop instances whose query is implemented by a variable-time subroutine, one per weights.

    Slot sets ("launch", "forward", "backward", "check", "absorb") live at
    program counter 0 and workspace 0 and mirror the simple variant; the
    inner transition sets ("even", "odd" by step parity) carry the
    subroutine steps on the fwd/bwd tracks and the turnaround vectors that
    reverse direction on freshly halted workspace labels.  The labels and
    generators are fixed by the spec, so each spec keeps one GeneralLayout
    (general_layout) and the weightings only fill in their values, all in
    one pass (GeneralLayout.fill); the instances share the layout's
    sparsity and its structure plans (psi0's component and star, the Gram
    pairs).
    """
    for w in weights:
        if len(w.omega) != spec.num_inputs or len(w.alpha) != spec.num_steps + 1:
            raise ValueError("weights do not match the subroutine dimensions")
    return general_layout(spec).fill(spec, weights)


def build_general_instance(spec: SubroutineSpec, weights: Weights) -> PEInstance:
    """The one-row case of build_general_instances."""
    return build_general_instances(spec, [weights])[0]


def general_positive_witnesses(spec: SubroutineSpec, weights) -> list[PositiveWitness]:
    """Positive witnesses built from forward history states of marked inputs, one per weights.

    Closed squared norm: 1 + N sum_{marked} (beta_i/omega_i)
    (3 + 2 E[sum_{t<=T_i} 1/alpha_t]), its terms summed with math.fsum.
    Every weighting's history states and vector are taken in one pass,
    along a leading row axis, each row with the bytes of its own.
    """
    marked = [j for j, b in enumerate(spec.outputs) if b == 1]
    if not marked:
        raise ValueError("positive witness requires a marked input")
    if any(set(w.beta) != set(marked) for w in weights):
        raise ValueError("beta weights must cover exactly the marked inputs")
    basis = GeneralBasis.for_spec(spec)
    n = spec.num_inputs
    rows, plus, _, norm_plus, _ = _history_rows(spec, marked,
                                                _alphas(spec, [w.alpha for w in weights]))
    beta = np.array([[w.beta[j] for j in marked] for w in weights])
    omega = np.array([w.omega for w in weights], dtype=float)[:, marked]
    coef = (math.sqrt(n) * np.sqrt(beta) / np.sqrt(omega))[..., None]
    # src at bit 0, ret and chk at bit f(i) = 1
    slots = general_layout(spec).history_slots[marked]
    vecs = _scatter(basis.dim, [(basis.index("src", 0, 0, 0, 0, 0), 1.0),
                                (slots, coef), (rows, coef * plus)], len(weights))
    terms = n * beta / omega * (2.0 + norm_plus + 1.0)
    return [PositiveWitness(vector=vec, closed_norm_sq=math.fsum([1.0] + row.tolist()))
            for vec, row in zip(vecs, terms)]


def general_positive_witness(spec: SubroutineSpec, weights: Weights) -> PositiveWitness:
    """The one-row case of general_positive_witnesses."""
    return general_positive_witnesses(spec, [weights])[0]


def general_negative_witnesses(spec: SubroutineSpec, weights) -> list[NegativeWitness]:
    """Negative witnesses from rewind history states, one per weights; no input may be marked.

    Closed squared norm of the A-side part:
    1 + (1/N) sum_i omega_i (3 + 2 E[sum_{t<=T_i} alpha_t]), its terms
    summed with math.fsum.  Every weighting's history states and vectors
    are taken in one pass, along a leading row axis, each row with the
    bytes of its own.
    """
    if any(spec.outputs):
        raise ValueError("negative witness requires an all-unmarked subroutine")
    basis = GeneralBasis.for_spec(spec)
    n = spec.num_inputs
    rows, _, minus, _, norm_minus = _history_rows(spec, np.arange(n),
                                                  _alphas(spec, [w.alpha for w in weights]))
    omega = np.array([w.omega for w in weights], dtype=float)
    coef = np.sqrt(omega / n)[..., None]
    psi0_idx = basis.index("src", 0, 0, 0, 0, 0)
    # src, ret and chk, all at bit f(i) = 0
    w_a = _scatter(basis.dim, [(psi0_idx, 1.0),
                               (general_layout(spec).history_slots, coef * [-1.0, 1.0, -1.0]),
                               (rows, coef * minus)], len(weights))
    terms = omega / n * (2.0 + norm_minus + 1.0)
    w_b = -w_a
    w_b[:, psi0_idx] += 1.0
    return [NegativeWitness(w_a=a, w_b=b, closed_norm_sq=math.fsum([1.0] + row.tolist()))
            for a, b, row in zip(w_a, w_b, terms)]


def general_negative_witness(spec: SubroutineSpec, weights: Weights) -> NegativeWitness:
    """The one-row case of general_negative_witnesses."""
    return general_negative_witnesses(spec, [weights])[0]


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

    def passed(self) -> bool:
        bound = DEFAULT_TOL.assert_tol
        return (self.residual_a <= bound and self.residual_b <= bound
                and self.decomposition_residual <= bound
                and abs(self.norm_sq_measured - self.norm_sq_closed) <= bound)

    def to_jsonable(self) -> dict:
        """The report's scalar fields in field order, without asdict's deep copy."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def verify_witnesses(instance: PEInstance, witness,
                     tol: TolerancePolicy = DEFAULT_TOL) -> WitnessReport:
    """Check a witness against an instance and report residuals.

    Positive: residuals are the norms of the projections onto the two
    spans (should vanish); effective c_plus is norm^2 / overlap^2.
    Negative: residuals are span-membership distances of the two parts,
    and the decomposition residual measures w_a + w_b - psi0.  The
    measured squared norm is fsum_norm_sq's, exactly rounded.  tol must
    be DEFAULT_TOL (ValueError otherwise): it is accepted only because
    perfbench/workloads.py still passes it, and ROADMAP item 1 drops it.
    """
    if tol != DEFAULT_TOL:
        raise ValueError(f"only DEFAULT_TOL is accepted, got {tol!r}")
    if isinstance(witness, PositiveWitness):
        vec = witness.vector
        overlap = complex(np.vdot(instance.psi0, vec))
        norm_sq = fsum_norm_sq(vec)
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
        norm_sq = fsum_norm_sq(witness.w_a)
        return WitnessReport(kind="negative", residual_a=res_a, residual_b=res_b,
                             decomposition_residual=decomp, overlap=0.0,
                             norm_sq_measured=norm_sq,
                             norm_sq_closed=witness.closed_norm_sq,
                             c_minus_effective=norm_sq)
    raise TypeError(f"unsupported witness type {type(witness)!r}")
