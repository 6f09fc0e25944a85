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
its subroutine, so each SubroutineSpec gets one GeneralPattern, and a
weight regime only fills in values.  Every input runs its own copy of
the subroutine, so the pattern lists one input's generators and lays the
others out as that template shifted by a fixed stride in labels and in
the step unitaries; the history states' labels and states are likewise
laid out once per spec (HistoryLayout).  The general instances of one
spec share its structure, and with it the plans that ignore values (the
Gram's shared-label pairs within a side, psi0's component and its star).
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
initial vector reaches, found breadth first from psi0's support, so
decisions need no cap on the full dimension; only the dense d x d paths
check the dimension cap.  InstanceStructure.star splits a component
further: when psi0 sits on one row that a single side-A generator
touches, that hub generator is set aside, and the rest falls apart into
blocks, grouped into patterns of one local layout, on which the decision
engine works block by block.

Instances of one structure can be tied into an InstanceStack, which the
decision engine decides in one pass.  InstanceRows holds such rows' psi0
and values along a leading row axis, and computes each row's generator
norms, sparse Gram, normalized generators with their orthonormality
check and psi0 component on its own, in the same order as alone (so
does stacked_rmatvec); a PEInstance's span basis and component are their
one-row case, and its projections take stacked_rmatvec without the row
axis.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import NamedTuple

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
    """Sums of values grouped by index, each taken in array order, in values' dtype.

    values of shape (m, n) are m rows summed each on its own into an
    (m, length) array, in the same order as alone.
    """
    rows = len(values) if values.ndim == 2 else 1
    if rows > 1:
        index = (index + length * np.arange(rows)[:, None]).ravel()
    flat, total = values.ravel(), rows * length
    if values.dtype.kind != "c":
        out = np.bincount(index, weights=flat, minlength=total)
    else:
        out = np.empty(total, dtype=complex)
        out.real = np.bincount(index, weights=flat.real, minlength=total)
        out.imag = np.bincount(index, weights=flat.imag, minlength=total)
    return out.reshape(values.shape[:-1] + (length,))


def _sparsity(dim: int, rows, counts, keep) -> Sparsity:
    """The Sparsity of the kept entries of ones listed column by column."""
    cols = np.repeat(np.arange(len(counts)), counts)[keep]
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=len(counts)), out=indptr[1:])
    return Sparsity(dim, indptr, np.asarray(rows, dtype=np.int64)[keep])


def _from_entries(dim: int, rows, values, counts) -> tuple[Sparsity, np.ndarray]:
    """A set's Sparsity and values from entries listed column by column, exact zeros dropped.

    Real entries are stored as float64 and complex ones as complex128.
    """
    values = np.asarray(values)
    values = values.astype(np.result_type(values, np.float64), copy=False)
    keep = values != 0
    return _sparsity(dim, rows, counts, keep), values[keep]


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


class Component(NamedTuple):
    """psi0's component: its rows, each side's kept entries, and its structure."""

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
    the generators fall apart into blocks, the connected components of
    the rows <-> generators incidence; free lists the rows no block holds
    (psi0's row among them), and patterns groups the blocks by local
    layout, in the order of each layout's first block.
    """

    hub: int | None
    free: np.ndarray
    patterns: tuple[BlockPattern, ...]


class InstanceStructure:
    """Where an instance's entries sit, and the plans that depend only on that.

    sides[side] is the d x k Sparsity of side "A" or "B", its named sets
    side by side in order; sets[side] maps each set's name to its
    generator count, in that order; support is psi0's.  Each plan (the
    Gram's shared-label pairs within a side and across the two sides,
    psi0's component) is made on first use and kept, so the general
    instances of one spec, which share their GeneralPattern's structure,
    pay for it once.
    """

    def __init__(self, dim: int, support: np.ndarray, sides: dict[str, Sparsity],
                 sets: dict[str, dict[str, int]]):
        self.dim = dim
        self.support = _read_only(support)
        self.sides = sides
        self.sets = sets
        self._grams: dict[str, GramPlan] = {}

    def gram(self, side: str) -> GramPlan:
        """The pairs of generators of one side that share a label.

        One stable argsort of the labels groups the entries by label; the
        entries are stored generator by generator, so within a label the
        generators stay ascending.  The pairs inside each label are
        enumerated by offset, and one stable argsort of the pair keys fixes
        the order in which each pair's products are summed.
        """
        if side not in self._grams:
            m = self.sides[side]
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

        Grown breadth first from the support over the rows <-> generators
        incidence of the two sides joined, until the generators touching
        the reached rows stop changing; the rows keep their order, and so
        do the sets and the generators within them (see
        PEInstance.psi0_component).
        """
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
        rows = np.flatnonzero(rows_in)
        # new_row is increasing, so each kept generator's rows stay sorted
        new_row = np.cumsum(rows_in) - 1
        start, entries, sides, sets = 0, {}, {}, {}
        for side, s in self.sides.items():
            kept = gens_in[start:start + s.shape[1]]
            start += s.shape[1]
            taken = np.flatnonzero(kept[s.cols])
            entries[side] = _read_only(taken)
            indptr = np.concatenate([[0], (s.indptr[1:] - s.indptr[:-1])[kept].cumsum()])
            sides[side] = Sparsity(len(rows), indptr, new_row[s.rows[taken]])
            # each set's kept generators: differences of kept's running count
            ends = np.cumsum([0, *self.sets[side].values()])
            running = np.concatenate([[0], np.cumsum(kept)])
            counts = running[ends]
            sets[side] = dict(zip(self.sets[side], (counts[1:] - counts[:-1]).tolist()))
        return Component(_read_only(rows), entries,
                         InstanceStructure(len(rows), new_row[self.support], sides, sets))

    @cached_property
    def one_block(self) -> Star:
        """The whole structure as one block, with no hub."""
        whole = BlockPattern(self, _read_only(np.arange(self.dim)[None]),
                             {side: _read_only(np.arange(len(s.rows))[None])
                              for side, s in self.sides.items()})
        return Star(None, _read_only(np.zeros(0, dtype=np.int64)), (whole,))

    @cached_property
    def star(self) -> Star:
        """The hub and the blocks left without it (see Star).

        The hub is the one generator touching psi0's row, when psi0 has a
        single row and that generator is on side A.  The blocks are found
        by min-label propagation over the rows <-> generators incidence of
        every other generator, each label jumping to its label's label
        every round; a block's lead is its smallest row, and the blocks
        come in that order.  A block's signature (its row, generator and
        entry counts, then each entry's local generator and row, side by
        side) groups the blocks into patterns, by one sort of the
        signatures as byte strings.
        """
        a, b = self.sides["A"], self.sides["B"]
        hub = None
        if len(self.support) == 1:
            on_a = (a.rows == self.support[0]).nonzero()[0]
            if len(on_a) == 1 and not np.count_nonzero(b.rows == self.support[0]):
                hub = int(a.cols[on_a[0]])
        if hub is None:
            return self.one_block

        not_hub = a.cols != hub
        rows = np.concatenate([a.rows[not_hub], b.rows])
        gens = np.concatenate([a.cols[not_hub], a.shape[1] + b.cols])
        label = np.arange(self.dim)
        gen_label = np.empty(a.shape[1] + b.shape[1], dtype=label.dtype)
        while True:
            gen_label.fill(self.dim)
            np.minimum.at(gen_label, gens, label[rows])
            new = label.copy()
            np.minimum.at(new, rows, gen_label[gens])
            new = new[new]
            if (new == label).all():
                break
            label = new
        touched = np.zeros(self.dim, dtype=bool)
        touched[rows] = True
        # a block's lead is its smallest row; blocks are numbered by their leads
        lead = touched & (label == np.arange(self.dim))
        block = (lead.cumsum() - 1)[label]
        held = touched.nonzero()[0]
        by_block = held[block[held].argsort(kind="stable")]
        count = int(lead.sum())
        sizes = np.bincount(block[held], minlength=count)
        row_start = sizes.cumsum() - sizes
        local = np.empty(self.dim, dtype=np.int64)
        local[by_block] = np.arange(len(by_block)) - row_start.repeat(sizes)

        # each side's generators block by block, and their entries in that order
        layout = {}
        for side, s in self.sides.items():
            lengths = s.indptr[1:] - s.indptr[:-1]
            keep = lengths > 0
            if side == "A":
                keep[hub] = False
            g = keep.nonzero()[0]
            g_block = block[s.rows[s.indptr[g]]]
            order = g_block.argsort(kind="stable")
            g, g_block, lengths = g[order], g_block[order], lengths[g[order]]
            k = np.bincount(g_block, minlength=count)
            ends = lengths.cumsum()
            entries = ((s.indptr[g] - ends + lengths).repeat(lengths)
                       + np.arange(ends[-1] if len(ends) else 0))
            e_block = g_block.repeat(lengths)
            e = np.bincount(e_block, minlength=count)
            e_start = e.cumsum() - e
            e_gen = (np.arange(len(g)) - (k.cumsum() - k).repeat(k)).repeat(lengths)
            layout[side] = (k, e, e_start, entries, e_block, e_gen, local[s.rows[entries]])
        width = [2 * int(lay[1].max(initial=0)) for lay in layout.values()]
        signature = np.full((count, 5 + sum(width)), -1, dtype=np.int64)
        signature[:, 0] = sizes
        at = 5
        for column, (side, (k, e, e_start, entries, e_block, e_gen, e_row)) in enumerate(
                layout.items()):
            signature[:, 1 + column], signature[:, 3 + column] = k, e
            position = at + 2 * (np.arange(len(entries)) - e_start[e_block])
            signature[e_block, position] = e_gen
            signature[e_block, position + 1] = e_row
            at += width[column]
        # each signature row as one byte string: blocks of a pattern sort together
        keys = signature.view(np.dtype((np.void, 8 * signature.shape[1])))[:, 0]
        order = keys.argsort(kind="stable")
        ordered = keys[order]
        starts = np.ones(count, dtype=bool)
        starts[1:] = ordered[1:] != ordered[:-1]
        group = np.empty(count, dtype=np.int64)
        group[order] = starts.cumsum() - 1
        patterns = []
        # patterns in the order of their first block, the first of its run
        for first_block in np.sort(order[starts]).tolist():
            blocks = (group == group[first_block]).nonzero()[0]
            size = int(sizes[first_block])
            sides, entries = {}, {}
            for side, (k, e, e_start, found, _, e_gen, e_row) in layout.items():
                here = slice(e_start[first_block], e_start[first_block] + e[first_block])
                sides[side] = Sparsity(size, np.concatenate(
                    [[0], np.bincount(e_gen[here], minlength=k[first_block]).cumsum()]),
                    e_row[here])
                entries[side] = _read_only(found[e_start[blocks][:, None]
                                                 + np.arange(e[first_block])])
            patterns.append(BlockPattern(
                InstanceStructure(size, np.zeros(0, dtype=np.int64), sides,
                                  {side: {"block": sides[side].shape[1]} for side in sides}),
                _read_only(by_block[row_start[blocks][:, None] + np.arange(size)]), entries))
        return Star(hub, _read_only((~touched).nonzero()[0]), tuple(patterns))


def stacked_rmatvec(sparsity: Sparsity, values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """G_s^H x_s for every row s: values (m, nnz), x (m, d), an (m, k) array.

    Without the row axis, values (nnz,) and x (d,), it is G^H x, one overlap per generator.
    """
    return _sum_by(sparsity.cols, values.conj() * x.take(sparsity.rows, axis=-1),
                   sparsity.shape[1])


def _column_norms(sparsity: Sparsity, values: np.ndarray) -> np.ndarray:
    """Generator norms of values (nnz,) or rows of them (m, nnz).

    Sequential per-column sums in row order, as a dense column norm.
    """
    return np.sqrt(_sum_by(sparsity.cols, values.real ** 2 + values.imag ** 2,
                           sparsity.shape[1]))


def _gram_entries(plan: GramPlan, values: np.ndarray) -> np.ndarray:
    """The off-diagonal Gram entries of plan's pairs, for values (nnz,) or (m, nnz)."""
    products = values.take(plan.left, axis=-1).conj() * values.take(plan.right, axis=-1)
    return _sum_by(plan.segment, products, len(plan.first))


class InstanceRows:
    """m instances of one InstanceStructure, their values along a leading row axis.

    psi0 is (m, d) and values[side] (m, nnz); numbers are the rows' places
    in their InstanceStack, and every check that fails names the row by
    it.  Each row is computed on its own, in the same order as alone, so
    a row has the same bytes alone as inside a stack.  A PEInstance's
    span basis and psi0 component are this class's one-row case
    (PEInstance.rows); its generator norms and sparse Gram share their
    arithmetic (_column_norms, _gram_entries).
    """

    def __init__(self, structure: InstanceStructure, numbers, psi0: np.ndarray,
                 values: dict[str, np.ndarray]):
        self.structure = structure
        self.numbers = tuple(numbers)
        self.psi0 = psi0
        self.values = values

    def component(self) -> "InstanceRows":
        """Every row on the components psi0's support meets (see PEInstance.psi0_component)."""
        part = self.structure.component
        return InstanceRows(part.structure, self.numbers, self.psi0.take(part.rows, axis=1),
                            {side: v.take(part.entries[side], axis=1)
                             for side, v in self.values.items()})

    def raise_first(self, failed: np.ndarray, value: np.ndarray, message) -> None:
        """ValueError for the first row where failed is true: message(its value), and the row."""
        if np.count_nonzero(failed):
            row = int(np.argmax(failed))
            raise ValueError(f"{message(value[row])} in row {self.numbers[row]}")

    def norms(self, side: str) -> np.ndarray:
        """Each row's generator norms on one side, (m, k).

        Raises ValueError naming the side and the row when a generator norm
        is not above rank_tol (NaN included): such a generator spans
        nothing, and every check that divides by its norm would report NaN
        instead.
        """
        norms = _column_norms(self.structure.sides[side], self.values[side])
        low = norms.min(axis=1, initial=np.inf)
        self.raise_first(~(low > DEFAULT_TOL.rank_tol), low,
                         lambda v: f"side {side}: generator norm {v:.3e} is not above rank_tol")
        return norms

    def gram(self, side: str) -> np.ndarray:
        """Each row's off-diagonal Gram entries on one side, over the structure's GramPlan."""
        return _gram_entries(self.structure.gram(side), self.values[side])

    def normalized(self, side: str) -> np.ndarray:
        """One side's generators each divided by its norm, (m, nnz) values.

        They are an orthonormal basis of the side's span only because the
        generators are pairwise orthogonal, so that is checked here, row by
        row, on the sparse Gram of the normalized generators rather than a
        dense Q^H Q: its off-diagonal entries are the shared-label Gram
        entries divided by both norms (every other pair is orthogonal by
        support, within a set or across sets), and its diagonal is each
        normalized generator's squared norm.  A largest |Q^H Q - I| entry
        above assert_tol, or NaN, raises ValueError naming the side and the
        row (as does a vanishing generator, in norms).  The values keep the
        side's dtype: float64 for a real side.
        """
        sparsity, plan = self.structure.sides[side], self.structure.gram(side)
        norms = self.norms(side)
        gram = self.gram(side)
        q = self.values[side] / norms.take(sparsity.cols, axis=1)
        sq = _sum_by(sparsity.cols, q.real ** 2 + q.imag ** 2, sparsity.shape[1])
        resid = np.maximum(
            (np.abs(gram) / (norms.take(plan.first, axis=1) * norms.take(plan.second, axis=1)))
            .max(axis=1, initial=0.0),
            np.abs(sq - 1.0).max(axis=1, initial=0.0))
        self.raise_first(~(resid <= DEFAULT_TOL.assert_tol), resid,
                         lambda v: f"side {side}: normalized generators are not "
                                   f"orthonormal, residual {v:.3e}")
        return q


class InstanceStack:
    """Instances of one InstanceStructure, tied to be decided together.

    Row r is the r-th instance given; each instance's stack becomes this
    one and its row r (PEInstance.stack, PEInstance.row).  The instances
    must share their structure and their dtypes.  The stack keeps each
    row's psi0 and values, the instances' own arrays, and never the
    instances, so it holds no reference back to them; spectra is where
    the decision engine keeps each row's spectrum once it is computed.
    """

    def __init__(self, instances: list["PEInstance"]):
        kinds = {(inst.structure, inst.psi0.dtype,
                  *(v.dtype for v in inst.values.values())) for inst in instances}
        if len(kinds) != 1:
            raise ValueError("a stack's instances must share one structure and dtype")
        self.structure = instances[0].structure
        self._psi0 = [inst.psi0 for inst in instances]
        self._values = [inst.values for inst in instances]
        self.spectra: dict[int, object] = {}
        for row, inst in enumerate(instances):
            inst._stack, inst.row = self, row

    def __len__(self) -> int:
        return len(self._psi0)

    def rows(self, numbers) -> InstanceRows:
        """The given rows, stacked (a view when there is one)."""
        def stacked(arrays):
            return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)

        return InstanceRows(self.structure, numbers,
                            stacked([self._psi0[r] for r in numbers]),
                            {side: stacked([self._values[r][side] for r in numbers])
                             for side in self.structure.sides})


class PEInstance:
    """A two-reflection phase-estimation instance: its structure plus values.

    The InstanceStructure says where every entry sits; the instance adds
    psi0 and values[side], one (nnz,) array per side on
    structure.sides[side], its generators set by set, so each value exists
    once.  ValueError is raised when psi0's length or a side's values
    length does not match the structure.  Hand-built and simple instances
    come from instance_from_sets; the general instances of one spec share
    their GeneralPattern's structure, and with it its plans (the
    shared-label pairs of the Gram, psi0's component and its star),
    so an instance computes only what depends on its values.  Projections
    and span-membership distances of single vectors take one
    stacked_rmatvec per side on these arrays, and the norms they divide by
    are computed and checked in one place (_norms); the Gram residual and
    the cross-set cosines of the reflection-factorization check share one
    cached list of shared-label Gram entries per side.  No set reflection
    is ever built.

    Each side's generators are pairwise orthogonal (well_formedness_report
    reports it), so the side's orthonormal span basis is its normalized
    generators.  The decision engine works on psi0_component, the instance
    cut down to the generator components psi0 reaches, block by block of
    its star (InstanceStructure.star), for every row of the instance's
    stack (its own until an InstanceStack ties it to others, with row its
    place there), in the dtype of the values (float64 for a real instance
    such as a simple-loop one, complex otherwise).
    InstanceRows.normalized checks the normalized generators'
    orthonormality on the side's sparse Gram, raising rather than falling
    back, and span_basis densifies its one-row case (rows) for the
    oracles.  The dense projectors and the walk
    unitary are built lazily from an SVD of the dense generator columns
    instead, so the dense oracle does not share the engine's basis; they
    are d x d, so they alone check the dimension cap.
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

    def rows(self) -> InstanceRows:
        """This instance alone as InstanceRows, numbered by its row."""
        return InstanceRows(self.structure, (self.row,), self.psi0[None],
                            {side: v[None] for side, v in self.values.items()})

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

    def gram_offdiagonal_residual(self, side: str) -> float:
        """Largest off-diagonal Gram entry among one side's generators."""
        (_, _, values), _ = self._gram(side)
        return float(np.max(np.abs(values), initial=0.0))

    def cross_set_cosine(self, side: str) -> float:
        """Largest |<g, h>| / (|g| |h|) over generators in different sets of a side.

        0 for a side with a single set; overlaps within a set are ignored.
        """
        (first, second, values), norms = self._gram(side)
        cross = self.structure.gram(side).cross
        cosines = (np.abs(values[cross])
                   / (norms[first[cross]] * norms[second[cross]]))
        return float(np.max(cosines, initial=0.0))

    def projection_norm_sq(self, side: str, vec: np.ndarray) -> float:
        """Squared norm of the projection of vec onto one side's span.

        Valid because the side's generators are pairwise orthogonal.
        """
        norms = self._norms(side)
        overlaps = stacked_rmatvec(self.structure.sides[side], self.values[side], vec)
        return float(np.sum(np.abs(overlaps) ** 2 / norms ** 2))

    def membership_residual(self, side: str, vec: np.ndarray) -> float:
        """Distance from vec to one side's span.

        Computed as the norm of the residual vector vec - P vec (not via
        squared norms, which would cancel catastrophically for vectors
        inside the span).
        """
        sparsity, values = self.structure.sides[side], self.values[side]
        overlaps = stacked_rmatvec(sparsity, values, vec)
        # P vec = G c with c = overlaps / norms^2, each label's entries summed in order
        c = overlaps / self._norms(side) ** 2
        return float(np.linalg.norm(vec - _sum_by(sparsity.rows, values * c[sparsity.cols],
                                                  self.dim)))

    def span_basis(self, side: str) -> np.ndarray:
        """Orthonormal basis (dim x generator count) of one side's span.

        The normalized generators, checked by InstanceRows.normalized and
        densified: for the dense oracles, as the decision engine works on
        the sparse values.
        """
        return _dense(self.structure.sides[side], self.rows().normalized(side)[0])

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
        only the values are gathered, by InstanceRows.component.  Cached.
        """
        if "component" not in self._cache:
            part = self.rows().component()
            self._cache["component"] = PEInstance(
                part.structure, part.psi0[0],
                {side: v[0] for side, v in part.values.items()})
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
    and a generator whose length is not dim raises ValueError.
    """
    def stored(vectors):
        dense = (np.stack([np.asarray(v).ravel() for v in vectors])
                 if len(vectors) else np.zeros((0, dim)))
        k, length = dense.shape
        if length != dim:
            raise ValueError(f"generator length {length} does not match dim {dim}")
        return _from_entries(dim, np.tile(np.arange(dim), k), dense.ravel(), np.full(k, dim))

    return _from_sets(dim, psi0, {side: {name: stored(v) for name, v in named.items()}
                                  for side, named in (("A", a_sets), ("B", b_sets))})


def _from_sets(dim: int, psi0: np.ndarray, sets) -> PEInstance:
    """The instance of each side's named (Sparsity, values) sets, with a structure of its own.

    sets maps "A" and "B" to their named sets; each side's sets are laid
    side by side in the order given, their values joined into the side's
    one array.
    """
    sides, counts, values = {}, {}, {}
    for side, named in sets.items():
        sides[side] = _hstack(dim, [sparsity for sparsity, _ in named.values()])
        counts[side] = {name: sparsity.shape[1] for name, (sparsity, _) in named.items()}
        values[side] = np.concatenate([np.zeros(0)] + [v for _, v in named.values()])
    return PEInstance(InstanceStructure(dim, np.flatnonzero(psi0), sides, counts),
                      psi0, values)


# ---------------------------------------------------------------------------
# Simple variant
# ---------------------------------------------------------------------------

def build_simple_instance(oracle: OracleSpec, omega: float) -> PEInstance:
    """Unit-cost-query loop instance over domain [1..N] (label 0 reserved).

    Generator sets: "launch" (one vector tying the source label to all
    query branches, weighted by omega), "query" (query transition folding
    the oracle answer into the returned bit), "check" (return-to-check
    transitions for both bit values), "absorb" (checked unmarked branches,
    the dead end that closes the loop).  Each set's Sparsity and values
    are built from index arrays, a generator per row, whose labels already
    ascend (src < qry < ret < chk).
    """
    if not omega > 0:  # false for nan too
        raise ValueError("omega must be positive")
    n = oracle.size
    basis = SimpleBasis(n)

    idx = basis.index
    i = np.arange(1, n + 1)
    answer = np.array([int((k - 1) in oracle.marked) for k in i], dtype=int)
    pair = [1.0, -1.0]

    launch = (np.concatenate([[idx("src", 0, 0)], idx("qry", i, 0)])[None, :],
              np.concatenate([[1.0], np.full(n, -math.sqrt(omega / n))]))
    # the query transition carries the oracle's answer into the b register
    query = (np.stack([idx("qry", i, 0), idx("ret", i, answer)], axis=1), pair)
    ic, bc = np.repeat(i, 2), np.tile([0, 1], n)
    check = (np.stack([idx("ret", ic, bc), idx("chk", ic, bc)], axis=1), pair)
    absorb = (idx("chk", i[answer == 0], 0)[:, None], 1.0)

    def stored(rows, values):
        return _from_entries(basis.dim, rows.ravel(),
                             np.broadcast_to(values, rows.shape).ravel(),
                             np.full(len(rows), rows.shape[1]))

    return _from_sets(basis.dim, basis.unit("src", 0, 0), {
        "A": {"launch": stored(*launch), "check": stored(*check)},
        "B": {"query": stored(*query), "absorb": stored(*absorb)}})


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

class HistoryLayout:
    """What every input's history states share across weightings: built once per spec.

    Row i of rows lists the distinct labels of input i's history: the
    (a, z) block at every program counter t on the "fwd" (bit 0) and
    "bwd" (bit f(i)) tracks.  states[i, t] is input i's state at counter
    t, read off spec.trajectory with the labels halted by step t - 1
    zeroed (see history_states).  Row i of slots holds the witnesses'
    src (bit 0), ret and chk (bit f(i)) labels of input i at
    (a, z, t) = (0, 0, 0).  Built by history_layout; read-only.
    """

    def __init__(self, spec: SubroutineSpec):
        basis = GeneralBasis.for_spec(spec)
        i, t = np.arange(1, spec.num_inputs + 1)[:, None], np.arange(spec.num_steps + 1)
        fi = np.asarray(spec.outputs, dtype=int)[:, None]
        # (input, t, track, (a, z) block)
        rows = np.stack([basis.az_indices("fwd", i, 0, t),
                         basis.az_indices("bwd", i, fi, t)], axis=2)
        self.rows = _read_only(rows.reshape(spec.num_inputs, -1))
        # row t: the labels halted by step t - 1 (none at t = 0)
        halted = np.array([spec.halted_mask(max(s - 1, 0)) for s in t])
        self.states = _read_only(np.where(halted, 0, spec.trajectory))
        self.slots = _read_only(np.concatenate(
            [basis.index(tag, i, b, 0, 0, 0) for tag, b in (("src", 0), ("ret", fi),
                                                          ("chk", fi))], axis=1))


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


def history_layout(spec: SubroutineSpec) -> HistoryLayout:
    """spec's HistoryLayout, built on first use and kept with the spec."""
    return _per_spec(spec, "history_layout", HistoryLayout)


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
    row t with those labels zeroed.  The labels and these states do not
    depend on alpha, so they are read from the spec's HistoryLayout, and
    only the weights are applied here.  A state's squared norm is
    P[T_i >= t], so norm_plus and norm_minus, the closed squared norms
    2 E[sum_{t<=T_i} 1/alpha_t] and 2 E[sum_{t<=T_i} alpha_t], are sums
    over spec.survival, accumulated in t order.
    """
    alpha = np.asarray(alpha, dtype=float)
    if len(alpha) != spec.num_steps + 1 or not abs(alpha[0] - 1.0) <= 1e-14:
        raise ValueError("need one positive alpha per step with alpha[0] = 1")
    if not np.all(alpha > 0):  # false for nan too
        raise ValueError("alpha weights must be positive")
    inputs = np.asarray(inputs, dtype=int)
    if np.any((inputs < 0) | (inputs >= spec.num_inputs)):
        raise IndexError(f"input index out of range 0..{spec.num_inputs - 1}")
    layout = history_layout(spec)
    states = layout.states[inputs]
    forward = states / np.sqrt(alpha)[:, None]
    signed = states * np.array([(-1.0) ** s * math.sqrt(a)
                                for s, a in enumerate(alpha)])[:, None]
    width = layout.rows.shape[1]
    survival = spec.survival[inputs]
    # one term per t, added in t order by a running sum: np.sum or @ would
    # regroup sums of eight or more terms and move the closed norms in the
    # last bit
    norm_plus = np.cumsum(1.0 / alpha * survival, axis=1)[:, -1]
    norm_minus = np.cumsum(alpha * survival, axis=1)[:, -1]
    return (layout.rows[inputs],
            np.stack([forward, forward], axis=2).reshape(-1, width),
            np.stack([signed, -signed], axis=2).reshape(-1, width),
            2.0 * norm_plus, 2.0 * norm_minus)


class SetFill(NamedTuple):
    """A general set's (or side's) Sparsity and where each stored value comes from.

    Entry e's scale is table[scale[e]], an int32 index into
    GeneralPattern.fill's table
    [1, -1, sqrt(alpha_0), ..., sqrt(alpha_T), -sqrt(omega_1 / n), ...,
    -sqrt(omega_n / n)]; the entries where inner is true are inner
    transitions onto the (a, z) block one step later, whose value is
    0.0 - scale * u with u their step-unitary entry, in entry order.
    """

    sparsity: Sparsity
    scale: np.ndarray
    inner: np.ndarray
    u: np.ndarray


class GeneralPattern:
    """The general instance of one SubroutineSpec, all but its weights.

    The basis labels, the generators and the labels each generator
    touches are fixed by the spec; a regime changes only omega and alpha,
    and so only values.  Every input runs its own copy of the subroutine,
    so in the label lattice (tag, i, b, a, z, t) input i's generators are
    input 1's shifted by (i - 1) 4|Z|(T + 1) labels, with their step-unitary
    entries (i - 1) T (2|Z|)^2 further along U.flat.  The pattern lists
    input 1's generators once, each with its labels ascending, and lays
    every input out as that template shifted; it keeps each side's sets,
    joined in order, as one Sparsity and its value sources (SetFill), and
    holds the InstanceStructure, with psi0's component and the Gram pairs,
    that every instance it fills shares.  An inner-transition entry is stored where its step-unitary
    entry is nonzero (for positive weights, the entries whose filled value
    is nonzero); that is decided after the shift, since the inputs' U
    differ in their exact zeros (a marked input's flipped unitary among
    them).  Built once per spec by general_pattern; every array it holds
    is read-only.
    """

    def __init__(self, spec: SubroutineSpec):
        n = spec.num_inputs
        basis = GeneralBasis.for_spec(spec)
        w = spec.workspace_size
        t_max = spec.num_steps
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
        # U entries (i - 1) u_stride further along U.flat
        label_stride = 4 * w * (t_max + 1)
        u_stride = t_max * (2 * w) ** 2
        shift = np.arange(n)[:, None]

        def inner_fill(rows, scale, flat, counts) -> SetFill:
            """An inner set: the template shifted to every input, U = 0 entries dropped."""
            inner = flat >= 0
            u = spec.unitaries.ravel()[flat[inner] + u_stride * shift]
            keep = np.repeat(~inner[None], n, axis=0)
            keep[:, inner] = u != 0
            # the entries each generator keeps, counted from its first entry
            starts = (np.cumsum(counts) - counts + len(rows) * shift).ravel()
            indptr = np.concatenate([[0], np.cumsum(
                np.add.reduceat(keep.ravel(), starts, dtype=np.int64))])
            # the input and the template entry of every kept entry
            kept_i, kept_e = np.nonzero(keep)
            return SetFill(
                Sparsity(basis.dim, indptr, rows[kept_e] + label_stride * kept_i),
                *map(_read_only, (scale[kept_e], inner[kept_e], u[keep[:, inner]])))

        def plain_fill(rows, scale) -> SetFill:
            """A set of (g, width) generators with no U entry, every entry stored."""
            scales = np.empty(rows.shape, dtype=np.int32)
            scales[...] = scale
            return SetFill(Sparsity(basis.dim, np.arange(0, rows.size + 1, rows.shape[1]),
                                    rows.ravel()),
                           *map(_read_only, (scales.ravel(), np.zeros(rows.size, dtype=bool),
                                             np.zeros(0, dtype=complex))))

        # slot generators run over (i, b, a) with a fastest, at z = 0, t = 0
        b_s, a_s = np.repeat(ab, 2), np.tile(ab, 2)

        def slot(first, second, scales) -> SetFill:
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
        # each side's sets side by side: their patterns and value sources joined
        self.fills = {}
        for side, named in sets.items():
            sparsities, *sources = zip(*named.values())
            self.fills[side] = SetFill(_hstack(basis.dim, list(sparsities)),
                                       *(_read_only(np.concatenate(a)) for a in sources))
        self.structure = InstanceStructure(
            basis.dim, np.flatnonzero(self.psi0),
            {side: f.sparsity for side, f in self.fills.items()},
            {side: {name: f.sparsity.shape[1] for name, f in named.items()}
             for side, named in sets.items()})

    def fill(self, weights: Weights) -> PEInstance:
        """The instance under weights: per side, one gather and its values.

        The values are the elementwise expressions of the label-by-label
        construction on the same operands (+-1, sqrt(alpha_t),
        -sqrt(omega_i / n) and 0.0 - sqrt(alpha_{t+1}) U), so each keeps
        its bits.  The weights' lengths are build_general_instance's to check.
        """
        table = np.concatenate([[1.0, -1.0], np.sqrt(weights.alpha),
                                -np.sqrt(weights.omega / self.num_inputs)])
        values = {}
        for side, f in self.fills.items():
            scale = table[f.scale]
            values[side] = scale.astype(complex)
            values[side][f.inner] = 0.0 - scale[f.inner] * f.u
        return PEInstance(self.structure, self.psi0, values)


def general_pattern(spec: SubroutineSpec) -> GeneralPattern:
    """spec's GeneralPattern, built on first use and kept with the spec."""
    return _per_spec(spec, "general_pattern", GeneralPattern)


def build_general_instance(spec: SubroutineSpec, weights: Weights) -> PEInstance:
    """Loop instance whose query is implemented by a variable-time subroutine.

    Slot sets ("launch", "forward", "backward", "check", "absorb") live at
    program counter 0 and workspace 0 and mirror the simple variant; the
    inner transition sets ("even", "odd" by step parity) carry the
    subroutine steps on the fwd/bwd tracks and the turnaround vectors that
    reverse direction on freshly halted workspace labels.  The labels and
    generators are fixed by the spec, so there is one GeneralPattern per
    spec (general_pattern) and a regime only fills in its values; the
    instances of one spec share the pattern's sparsity and its structure
    plans (psi0's component, the Gram pairs).
    """
    if (len(weights.omega) != spec.num_inputs
            or len(weights.alpha) != spec.num_steps + 1):
        raise ValueError("weights do not match the subroutine dimensions")
    return general_pattern(spec).fill(weights)


def general_positive_witness(spec: SubroutineSpec, weights: Weights) -> PositiveWitness:
    """Positive witness built from forward history states of marked inputs.

    Closed squared norm: 1 + N sum_{marked} (beta_i/omega_i)
    (3 + 2 E[sum_{t<=T_i} 1/alpha_t]), its terms summed with math.fsum.
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
    # src at bit 0, ret and chk at bit f(i) = 1
    slots = history_layout(spec).slots[marked]
    vec = _scatter(basis.dim, [(basis.index("src", 0, 0, 0, 0, 0), 1.0),
                               (slots, coef), (rows, coef * plus)])
    closed = math.fsum([1.0] + [n * weights.beta[j] / weights.omega[j] * (2.0 + norm + 1.0)
                                for j, norm in zip(marked, norm_plus)])
    return PositiveWitness(vector=vec, closed_norm_sq=closed)


def general_negative_witness(spec: SubroutineSpec, weights: Weights) -> NegativeWitness:
    """Negative witness from rewind history states; requires no marked input.

    Closed squared norm of the A-side part:
    1 + (1/N) sum_i omega_i (3 + 2 E[sum_{t<=T_i} alpha_t]), its terms
    summed with math.fsum.
    """
    if any(spec.outputs):
        raise ValueError("negative witness requires an all-unmarked subroutine")
    basis = GeneralBasis.for_spec(spec)
    n = spec.num_inputs
    rows, _, minus, _, norm_minus = history_states(spec, range(n), weights.alpha)
    coef = np.sqrt(weights.omega / n)[:, None]
    psi0_idx = basis.index("src", 0, 0, 0, 0, 0)
    # src, ret and chk, all at bit f(i) = 0
    w_a = _scatter(basis.dim, [(psi0_idx, 1.0),
                               (history_layout(spec).slots, coef * [-1.0, 1.0, -1.0]),
                               (rows, coef * minus)])
    closed = math.fsum([1.0] + [weights.omega[j] / n * (2.0 + norm_minus[j] + 1.0)
                                for j in range(n)])
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

    def passed(self) -> bool:
        bound = DEFAULT_TOL.assert_tol
        return (self.residual_a <= bound and self.residual_b <= bound
                and self.decomposition_residual <= bound
                and abs(self.norm_sq_measured - self.norm_sq_closed) <= bound)

    def to_jsonable(self) -> dict:
        return asdict(self)


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
