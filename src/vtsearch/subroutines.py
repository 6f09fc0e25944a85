"""Variable-time quantum subroutines over an answer qubit and a workspace.

A subroutine is, per input ``i``, a sequence of unitaries ``U_1 .. U_T`` on
``H_A (x) H_Z`` together with a nested family of halting subspaces spanned
by workspace labels: the labels in partition cell ``t`` become "done"
exactly at step ``t``.  Each step unitary must act as the identity on the
already-halted subspace, and the final state must sit entirely in the
claimed answer sector (zero error).

Each spec evolves once: ``SubroutineSpec.trajectory`` holds every input's
run U_t .. U_1 psi0, computed with one stacked product per step and
cached.  validate's zero-error check and the witnesses' history states
read it, and so does ``SubroutineSpec.stopping_profiles``,
every input's stopping profile in one table built with one pass per
step.  Its squared norms and the moments are running sums in index
order, which call no BLAS and give a row the same bytes alone or in a
stack.  stopping_profile, stopping_moments and the survival table read
that table.  cascade_profile stays outside both as an independent
density-matrix oracle for the stopping profiles.

random_subroutine draws each step once for all inputs: one stacked Haar
draw and QR (haar_unitary with a count), one broadcast product for the
answer-register kron and one stacked answer flip.  The bytes are those
of drawing input by input.

Basis convention on ``H_A (x) H_Z``: index = a * workspace_size + z, with
the answer bit ``a`` the slow index.  Inputs are 0-based: ``i`` ranges over
``range(num_inputs)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import DEFAULT_TOL, TolerancePolicy, check_dim, unitarity_residual


@dataclass(frozen=True)
class SubroutineSpec:
    """A variable-time subroutine for a boolean function on ``num_inputs`` inputs.

    partition[t] lists the workspace labels that halt exactly at step t+1;
    the cells are disjoint and their union is all of range(workspace_size).
    unitaries[i][t] is the step-(t+1) unitary for input i, acting on the
    answer-workspace space of dimension 2 * workspace_size.
    """

    num_inputs: int
    num_steps: int
    workspace_size: int
    partition: tuple[tuple[int, ...], ...]
    unitaries: np.ndarray            # shape (N, T, 2|Z|, 2|Z|)
    outputs: tuple[int, ...]         # claimed f(i) per input

    @property
    def space_dim(self) -> int:
        return 2 * self.workspace_size

    @cached_property
    def _halted_table(self) -> np.ndarray:
        """Row t is halted_mask(t), for t = 0 .. num_steps; read-only."""
        table = np.zeros((self.num_steps + 1, 2, self.workspace_size), dtype=bool)
        for t, cell in enumerate(self.partition[:self.num_steps], start=1):
            table[t:, :, list(cell)] = True
        table = table.reshape(self.num_steps + 1, self.space_dim)
        table.flags.writeable = False
        return table

    def halted_mask(self, t: int) -> np.ndarray:
        """Boolean mask over H_A (x) H_Z of components halted by step t.

        A read-only row of a table built once per spec; t past num_steps
        reads the last row, where every label has halted.
        """
        if t < 0:
            raise IndexError(f"step {t} is negative")
        return self._halted_table[min(t, self.num_steps)]

    def initial_state(self) -> np.ndarray:
        psi = np.zeros(self.space_dim, dtype=complex)
        psi[0] = 1.0  # answer 0, workspace label 0
        return psi

    @cached_property
    def trajectory(self) -> np.ndarray:
        """Row [i, t] is U_t .. U_1 psi0 for input i, t = 0 .. num_steps; read-only.

        Shape (num_inputs, num_steps + 1, space_dim), one stacked product
        per step over all inputs, computed once per spec.
        """
        states = np.zeros((self.num_inputs, self.num_steps + 1, self.space_dim),
                          dtype=complex)
        states[:, 0] = self.initial_state()
        for t in range(self.num_steps):
            states[:, t + 1] = (self.unitaries[:, t] @ states[:, t, :, None])[..., 0]
        states.flags.writeable = False
        return states

    @cached_property
    def stopping_profiles(self) -> "StoppingProfile":
        """Every input's stopping profile, row i input i's; read-only.

        One pass over spec.trajectory: at step t, one halted mask shared by
        every input selects the halted components, and column t - 1 of cdf
        is their squared norm, a running sum in component order, no BLAS.
        """
        cdf = np.zeros((self.num_inputs, self.num_steps))
        for t in range(1, self.num_steps + 1):
            cdf[:, t - 1] = _squared_norms(self.trajectory[:, t][:, self.halted_mask(t)])
        pmf = np.clip(np.diff(cdf, axis=1, prepend=0.0), 0.0, None)
        cdf.flags.writeable = pmf.flags.writeable = False
        return StoppingProfile(pmf=pmf, cdf=cdf)

    @cached_property
    def survival(self) -> np.ndarray:
        """Row i, column t is P[T_i >= t], t = 0 .. num_steps; read-only.

        1 for t <= 1, then 1 - cdf[t - 2] of input i's stopping profile.
        """
        table = np.ones((self.num_inputs, self.num_steps + 1))
        table[:, 2:] = 1.0 - self.stopping_profiles.cdf[:, :-1]
        table.flags.writeable = False
        return table

    def marked_set(self) -> frozenset[int]:
        return frozenset(i for i, b in enumerate(self.outputs) if b == 1)


def _squared_norms(x: np.ndarray) -> np.ndarray:
    """Each row's running sum of re^2 + im^2, the same bytes alone or stacked; 0.0 if empty."""
    return np.cumsum(x.real**2 + x.imag**2, axis=-1)[..., -1:].sum(axis=-1)


@dataclass(frozen=True)
class StoppingProfile:
    """Exact distribution of the stopping time of one input.

    SubroutineSpec.stopping_profiles stacks every input's profile, one
    row per input, in a single StoppingProfile.
    """

    pmf: np.ndarray   # index [..., t-1] holds P[T = t], t = 1..num_steps
    cdf: np.ndarray

    @property
    def num_steps(self) -> int:
        return self.pmf.shape[-1]

    def moments(self):
        """E[T] and E[T^2] as running sums in t order; arrays over rows when stacked."""
        ts = np.arange(1, self.num_steps + 1, dtype=float)
        return (np.cumsum(self.pmf * ts, axis=-1)[..., -1],
                np.cumsum(self.pmf * ts**2, axis=-1)[..., -1])


@dataclass
class ValidationCheck:
    name: str
    passed: bool
    residual: float
    detail: str = ""


@dataclass
class ValidationReport:
    checks: list[ValidationCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name, passed, residual, detail=""):
        self.checks.append(ValidationCheck(name, bool(passed), float(residual), detail))


def validate(spec: SubroutineSpec, tol: TolerancePolicy = DEFAULT_TOL) -> ValidationReport:
    """Check the structural and spectral invariants of a subroutine spec."""
    report = ValidationReport()

    seen: set[int] = set()
    disjoint = True
    for cell in spec.partition:
        if seen & set(cell):
            disjoint = False
        seen.update(cell)
    labels = set(range(spec.workspace_size))
    report.add("partition_disjoint", disjoint, 0.0)
    report.add("partition_covers_workspace", seen == labels, 0.0,
               f"covered {len(seen & labels)} of {spec.workspace_size} labels")
    if seen - labels:
        report.add("partition_labels_in_range", False, 0.0,
                   f"labels {sorted(seen - labels)} outside the workspace")
        return report
    if len(spec.partition) != spec.num_steps:
        report.add("partition_length", False, 0.0,
                   f"{len(spec.partition)} cells for {spec.num_steps} steps")
        return report

    n, w = spec.num_inputs, spec.workspace_size
    worst_unitarity = 0.0
    # invariance[i, t - 1]: how far step t of input i moves a halted label
    invariance = np.zeros((n, spec.num_steps))
    eye = np.eye(spec.space_dim)
    for t in range(1, spec.num_steps + 1):
        us = spec.unitaries[:, t - 1]
        worst_unitarity = max(worst_unitarity, unitarity_residual(us))
        mask = spec.halted_mask(t - 1)
        if mask.any():
            # identity on the halted subspace: U e_j = e_j for halted j
            invariance[:, t - 1] = np.max(np.abs(us[:, :, mask] - eye[:, mask]),
                                          axis=(1, 2))
    worst_invariance = float(np.max(invariance, initial=0.0))
    worst_at = ""
    if worst_invariance > 0.0:
        # the first input, then the first step, that reaches the worst residual
        i, t = np.unravel_index(np.argmax(invariance), invariance.shape)
        worst_at = f"step {t + 1}, input {i}"
    report.add("step_unitarity", worst_unitarity <= tol.assert_tol, worst_unitarity)
    report.add("halted_space_fixed", worst_invariance <= tol.assert_tol,
               worst_invariance, worst_at)

    # final states with the claimed answer sector zeroed
    wrong = spec.trajectory[:, -1].copy()
    wrong.reshape(n, 2, w)[np.arange(n), list(spec.outputs)] = 0.0
    worst_zero_error = max((float(np.linalg.norm(v)) for v in wrong), default=0.0)
    report.add("zero_error", worst_zero_error <= tol.assert_tol, worst_zero_error)
    return report


def stopping_profile(spec: SubroutineSpec, i: int) -> StoppingProfile:
    """Exact stopping-time distribution of input i: row i of spec.stopping_profiles.

    cdf(t) is the squared norm of the halted-by-t component of the state
    after step t, read off the spec's one evolution; no sampling is
    involved.  The arrays are read-only rows of the spec's table.
    """
    if not (0 <= i < spec.num_inputs):
        raise IndexError(f"input index {i} out of range")
    table = spec.stopping_profiles
    return StoppingProfile(pmf=table.pmf[i], cdf=table.cdf[i])


def stopping_moments(spec: SubroutineSpec) -> tuple[np.ndarray, np.ndarray]:
    """E[T_i] and E[T_i^2] for every input i, from spec.stopping_profiles."""
    return spec.stopping_profiles.moments()


def cascade_profile(spec: SubroutineSpec, i: int) -> StoppingProfile:
    """Measurement-cascade oracle for the stopping distribution.

    Runs the subroutine as a density matrix, performing the done/not-done
    measurement after every step and discarding (but accounting) the
    halted branch.  Independent of stopping_profile's statevector path
    and of spec.trajectory.
    """
    if not (0 <= i < spec.num_inputs):
        raise IndexError(f"input index {i} out of range")
    psi = spec.initial_state()
    rho = np.outer(psi, psi.conj())
    pmf = np.zeros(spec.num_steps)
    for t in range(1, spec.num_steps + 1):
        u = spec.unitaries[i, t - 1]
        rho = u @ rho @ u.conj().T
        mask = spec.halted_mask(t)
        pmf[t - 1] = float(np.real(np.trace(rho[np.ix_(mask, mask)])))
        keep = ~mask
        sel = np.zeros_like(rho)
        sel[np.ix_(keep, keep)] = rho[np.ix_(keep, keep)]
        rho = sel
    return StoppingProfile(pmf=pmf, cdf=np.cumsum(pmf))


# ---------------------------------------------------------------------------
# Block-structured subroutines: run a block, measure, halt on success.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockSchedule:
    """A multi-block algorithm with a success measurement after each block.

    block_lengths sums to the total step count; step_unitaries[i][t] acts
    on the answer-workspace space of the *underlying* algorithm (dimension
    2 * inner_workspace_size); measurement is a projector on the inner
    workspace whose outcome-1 branch means "halt now".
    """

    block_lengths: tuple[int, ...]
    inner_workspace_size: int
    step_unitaries: np.ndarray    # shape (N, T, 2|Z'|, 2|Z'|)
    measurement: np.ndarray       # |Z'| x |Z'| projector

    @property
    def num_inputs(self) -> int:
        return self.step_unitaries.shape[0]

    @property
    def num_steps(self) -> int:
        return int(sum(self.block_lengths))


def build_block_subroutine(schedule: BlockSchedule,
                           tol: TolerancePolicy = DEFAULT_TOL) -> SubroutineSpec:
    """Augment a block algorithm into a variable-time subroutine.

    The workspace gains a done flag and a block counter; each block-final
    step coherently performs the success measurement (xor-ing the outcome
    into the flag) and advances the counter while the flag is unset.
    Workspace label layout: label = (zp * 2 + flag) * (B + 1) + counter.
    """
    if schedule.num_steps <= 0 or any(n <= 0 for n in schedule.block_lengths):
        raise ValueError("block lengths must be positive")
    zp = schedule.inner_workspace_size
    big_t = schedule.num_steps
    b = len(schedule.block_lengths)
    pi = np.asarray(schedule.measurement, dtype=complex)
    if pi.shape != (zp, zp):
        raise ValueError("measurement projector has wrong shape")
    if float(np.max(np.abs(pi @ pi - pi))) > tol.assert_tol:
        raise ValueError("measurement is not a projector")

    nz = zp * 2 * (b + 1)
    dim = 2 * nz
    check_dim(dim)

    def label(z: int, flag: int, counter: int) -> int:
        return (z * 2 + flag) * (b + 1) + counter

    block_ends = set(np.cumsum(schedule.block_lengths).tolist())

    # fixed helper operators on the flag (x) counter factor
    eye_fc = np.eye(2 * (b + 1))
    x_flag = np.zeros((2, 2)); x_flag[0, 1] = x_flag[1, 0] = 1.0
    inc = np.zeros((b + 1, b + 1))
    for k in range(b + 1):
        inc[(k + 1) % (b + 1), k] = 1.0
    p_f = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]

    # ordering of the augmented answer-workspace space: A (x) Z' (x) F (x) C
    us = np.zeros((schedule.num_inputs, big_t, dim, dim), dtype=complex)
    block_of_step = []
    k = 1
    done_in_block = 0
    for t in range(1, big_t + 1):
        block_of_step.append(k)
        done_in_block += 1
        if done_in_block == schedule.block_lengths[k - 1]:
            k += 1
            done_in_block = 0

    for i in range(schedule.num_inputs):
        for t in range(1, big_t + 1):
            inner = schedule.step_unitaries[i, t - 1]
            # sub-op 1: apply the inner step while the flag is unset
            u = (np.kron(inner, np.kron(p_f[0], np.eye(b + 1)))
                 + np.kron(np.eye(2 * zp), np.kron(p_f[1], np.eye(b + 1))))
            if t in block_ends:
                kk = block_of_step[t - 1]
                # sub-op 2: coherent success measurement, counter == kk-1
                p_c = np.zeros((b + 1, b + 1)); p_c[kk - 1, kk - 1] = 1.0
                meas_zf = np.kron(pi, x_flag) + np.kron(np.eye(zp) - pi, np.eye(2))
                m2 = (np.kron(np.eye(2), np.kron(meas_zf, p_c))
                      + np.kron(np.eye(2), np.kron(np.eye(zp * 2), np.eye(b + 1) - p_c)))
                # sub-op 3: advance the counter while the flag is unset
                s = np.kron(p_f[0], inc) + np.kron(p_f[1], np.eye(b + 1))
                m3 = np.kron(np.eye(2 * zp), s)
                u = m3 @ m2 @ u
            us[i, t - 1] = u

    # halting cells: after t steps with k-1 completed blocks, the halted
    # space is spanned by labels (z', flag=1, counter < k-1); a block-end
    # step therefore already counts its own block as completed
    ends = list(np.cumsum(schedule.block_lengths))
    cum_done: set[int] = set()
    partition: list[tuple[int, ...]] = []
    for t in range(1, big_t + 1):
        if t == big_t:
            new = set(range(nz)) - cum_done
        else:
            kk = 1 + sum(1 for e in ends if e <= t)
            upto = {label(z, 1, kp) for z in range(zp) for kp in range(kk - 1)}
            new = upto - cum_done
        partition.append(tuple(sorted(new)))
        cum_done |= new

    # claimed outputs from the augmented run itself
    outputs = []
    for i in range(schedule.num_inputs):
        psi = np.zeros(dim, dtype=complex)
        psi[0] = 1.0
        for t in range(big_t):
            psi = us[i, t] @ psi
        p1 = float(np.linalg.norm(psi[nz:]) ** 2)
        outputs.append(1 if p1 > 0.5 else 0)

    return SubroutineSpec(
        num_inputs=schedule.num_inputs,
        num_steps=big_t,
        workspace_size=nz,
        partition=tuple(partition),
        unitaries=us,
        outputs=tuple(outputs),
    )


def run_block_algorithm(schedule: BlockSchedule, i: int) -> np.ndarray:
    """Classically simulate the unaugmented block algorithm on input i.

    Returns the pmf of the halting block index (1..B, with index B also
    absorbing the never-succeeded branch), for cross-checking the
    augmented subroutine.
    """
    zp = schedule.inner_workspace_size
    psi = np.zeros(2 * zp, dtype=complex)
    psi[0] = 1.0
    rho = np.outer(psi, psi.conj())
    proj = np.kron(np.eye(2), np.asarray(schedule.measurement, dtype=complex))
    pmf = np.zeros(len(schedule.block_lengths))
    t = 0
    for k, n in enumerate(schedule.block_lengths):
        for _ in range(n):
            u = schedule.step_unitaries[i, t]
            rho = u @ rho @ u.conj().T
            t += 1
        if k < len(schedule.block_lengths) - 1:
            pmf[k] = float(np.real(np.trace(proj @ rho)))
            rest = (np.eye(2 * zp) - proj)
            rho = rest @ rho @ rest
        else:
            pmf[k] = float(np.real(np.trace(rho)))
    return pmf


# ---------------------------------------------------------------------------
# Seeded generator
# ---------------------------------------------------------------------------

def haar_unitary(rng: np.random.Generator, dim: int,
                 count: int | None = None) -> np.ndarray:
    """Haar-random dim x dim unitary drawn from ``rng``, or a stack of ``count``.

    QR of a complex Ginibre matrix, with each column of Q rescaled by the
    phase of R's diagonal entry.  Draws and operation order are those of
    scipy's ``unitary_group.rvs`` (checked against scipy 1.17), so for the
    same generator state the two return identical bytes and leave the
    generator in the same state.  With a count, one normal draw of shape
    (count, 2, dim, dim), one stacked QR and one phase fix give the bytes
    and the generator state of count draws one after another.
    """
    shape = (2, dim, dim) if count is None else (count, 2, dim, dim)
    g = rng.normal(size=shape)
    z = 1 / math.sqrt(2) * (g[..., 0, :, :] + 1j * g[..., 1, :, :])
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (d / abs(d))[..., None, :]
    return q


def random_subroutine(seed: int, num_inputs: int, num_steps: int,
                      workspace_size: int,
                      halting_fractions=None,
                      marked=()) -> SubroutineSpec:
    """Deterministic random zero-error subroutine.

    halting_fractions (length num_steps, nonnegative, summing to ~1)
    control how many workspace labels are assigned to each halting cell;
    the final cell absorbs the remainder so the partition always covers
    the workspace.  Step unitaries are Haar-random on the not-yet-halted
    workspace (identity on the halted part), followed, for marked inputs,
    by an answer flip on the labels halting at this step, which makes the
    subroutine exactly zero-error by construction.

    RNG: numpy's PCG64 via np.random.default_rng(seed).  Each step draws
    once for all inputs, in input order: a stack of haar_unitary
    matrices, whose draws equal those of scipy's unitary_group.rvs on the
    same generator one input after another, or rng.random(num_inputs)
    phases when one label is left.  The bytes are those of drawing input
    by input, step by step.
    """
    if workspace_size < 1 or num_steps < 1 or num_inputs < 1:
        raise ValueError("sizes must be positive")
    rng = np.random.default_rng(seed)

    if halting_fractions is None:
        weights = rng.random(num_steps)
        halting_fractions = weights / weights.sum()
    halting_fractions = np.asarray(halting_fractions, dtype=float)
    if len(halting_fractions) != num_steps or np.any(halting_fractions < 0):
        raise ValueError("halting_fractions must be num_steps nonnegative values")

    counts = np.floor(halting_fractions * workspace_size).astype(int)
    counts[-1] += workspace_size - int(counts.sum())
    if counts[-1] < 0:
        raise ValueError("infeasible halting_fractions for this workspace size")
    partition: list[tuple[int, ...]] = []
    nxt = 0
    for c in counts:
        partition.append(tuple(range(nxt, nxt + int(c))))
        nxt += int(c)

    marked = frozenset(marked)
    if any(i < 0 or i >= num_inputs for i in marked):
        raise ValueError("marked indices out of range")
    outputs = tuple(1 if i in marked else 0 for i in range(num_inputs))
    flipped = np.array(sorted(marked), dtype=int)

    n, w, dim = num_inputs, workspace_size, 2 * workspace_size
    us = np.zeros((n, num_steps, dim, dim), dtype=complex)
    eye_answer = np.eye(2)[:, None, :, None]
    cum = 0   # labels cum .. w - 1 have not halted yet
    for t, cell in enumerate(partition):
        ws = np.broadcast_to(np.eye(w, dtype=complex), (n, w, w)).copy()
        if w - cum > 1:
            ws[:, cum:, cum:] = haar_unitary(rng, w - cum, n)
        elif w - cum == 1:
            ws[:, cum, cum] = np.exp(2j * np.pi * rng.random(n))
        cum += len(cell)
        # np.kron(np.eye(2), ws[i]) for every i: the same elementwise product
        us[:, t] = (eye_answer * ws[:, None, :, None, :]).reshape(n, dim, dim)
        if len(flipped) and cell:
            flip = np.eye(dim, dtype=complex)
            for z in cell:
                flip[z, z] = 0.0
                flip[w + z, w + z] = 0.0
                flip[w + z, z] = 1.0
                flip[z, w + z] = 1.0
            us[flipped, t] = flip @ us[flipped, t]
    return SubroutineSpec(
        num_inputs=num_inputs,
        num_steps=num_steps,
        workspace_size=workspace_size,
        partition=tuple(partition),
        unitaries=us,
        outputs=outputs,
    )


def late_halting_fractions(num_steps: int) -> np.ndarray:
    """Halting fractions with an empty first cell, so T >= 2 almost surely."""
    if num_steps < 2:
        raise ValueError(f"num_steps must be at least 2 for an empty first cell, "
                         f"got {num_steps}")
    fractions = np.zeros(num_steps)
    fractions[1:] = 1.0 / (num_steps - 1)
    return fractions


def subroutine_pair(seed: int, num_inputs: int, num_steps: int,
                    workspace_size: int) -> tuple[SubroutineSpec, SubroutineSpec]:
    """A (marked, all-unmarked) pair of zero-error subroutines.

    Both use late_halting_fractions; the marked one marks input 0 and is
    drawn from ``seed``, the unmarked one from ``seed + 10_000``.
    """
    fractions = late_halting_fractions(num_steps)
    marked = random_subroutine(seed, num_inputs, num_steps, workspace_size,
                               halting_fractions=fractions, marked=(0,))
    empty = random_subroutine(seed + 10_000, num_inputs, num_steps,
                              workspace_size, halting_fractions=fractions,
                              marked=())
    return marked, empty
