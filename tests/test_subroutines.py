"""Tests for variable-time subroutines and their stopping profiles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vtsearch import subroutines
from vtsearch.subroutines import (BlockSchedule, StoppingProfile,
                                  SubroutineSpec, build_block_subroutine,
                                  cascade_profile, haar_unitary,
                                  late_halting_fractions, random_subroutine,
                                  run_block_algorithm, stopping_moments,
                                  stopping_profile, subroutine_pair, validate)

from conftest import (loop_random_subroutine, per_input_profile,
                      random_block_schedule, scipy_haar)


def identity_spec(n=2, t=3, w=4):
    """All steps are identities; everything halts at the final step."""
    us = np.broadcast_to(np.eye(2 * w, dtype=complex), (n, t, 2 * w, 2 * w)).copy()
    partition = tuple(() for _ in range(t - 1)) + (tuple(range(w)),)
    return SubroutineSpec(num_inputs=n, num_steps=t, workspace_size=w,
                          partition=partition, unitaries=us,
                          outputs=(0,) * n)


def test_identity_spec_validates():
    report = validate(identity_spec())
    assert report.passed


def test_halted_space_violation_is_named():
    spec = identity_spec(n=1, t=2, w=2)
    us = spec.unitaries.copy()
    # halt label 0 at step 1, then have step 2 rotate it out of the halted space
    rot = np.eye(4, dtype=complex)
    c, s = math.cos(0.3), math.sin(0.3)
    rot[0, 0], rot[0, 1], rot[1, 0], rot[1, 1] = c, -s, s, c
    us[0, 1] = rot
    bad = SubroutineSpec(num_inputs=1, num_steps=2, workspace_size=2,
                         partition=((0,), (1,)), unitaries=us, outputs=(0,))
    report = validate(bad)
    assert not report.passed
    check = {c.name: c for c in report.checks}["halted_space_fixed"]
    assert not check.passed and "step 2" in check.detail and "input 0" in check.detail


@pytest.mark.parametrize("label", [5, 2, -1])
def test_validate_fails_out_of_range_labels(label):
    """Labels outside the workspace fail a check; -1 does not wrap to |Z| - 1."""
    spec = identity_spec(n=1, t=2, w=2)
    bad = SubroutineSpec(num_inputs=1, num_steps=2, workspace_size=2,
                         partition=((0,), (label,)), unitaries=spec.unitaries,
                         outputs=(0,))
    report = validate(bad)
    assert not report.passed
    checks = {c.name: c for c in report.checks}
    assert not checks["partition_labels_in_range"].passed
    assert str(label) in checks["partition_labels_in_range"].detail
    assert checks["partition_covers_workspace"].detail == "covered 1 of 2 labels"
    # the report stops before any check that reads the halted table
    assert "halted_space_fixed" not in checks and "zero_error" not in checks


@pytest.mark.parametrize("seed,n,t,z", [(0, 3, 4, 4), (5, 2, 6, 3), (2, 1, 2, 2)])
def test_halted_mask_is_the_union_of_partition_cells(seed, n, t, z):
    """Each row of the cached table against the cells halted by step t."""
    spec = random_subroutine(seed, n, t, z)
    for step in range(t + 3):
        halted = {label for cell in spec.partition[:step] for label in cell}
        want = np.array([label % z in halted for label in range(2 * z)])
        mask = spec.halted_mask(step)
        assert np.array_equal(mask, want), step
        assert not mask.flags.writeable
    # rows of one table built once, not a fresh mask per call
    assert spec.halted_mask(0).base is spec.halted_mask(t).base is not None
    with pytest.raises(IndexError):
        spec.halted_mask(-1)


def test_stopping_profile_point_mass_at_final_step():
    spec = identity_spec(n=1, t=3, w=2)
    p = stopping_profile(spec, 0)
    assert np.allclose(p.pmf, [0.0, 0.0, 1.0], atol=1e-14)
    assert spec.survival[0, 3] == pytest.approx(1.0)
    assert spec.survival[0, 0] == 1.0


def test_profile_moments_examples():
    point = StoppingProfile(pmf=np.array([0.0, 1.0]), cdf=np.array([0.0, 1.0]))
    assert point.moments() == pytest.approx((2.0, 4.0))
    half = StoppingProfile(pmf=np.array([0.5, 0.0, 0.5]),
                           cdf=np.array([0.5, 0.5, 1.0]))
    assert half.moments() == pytest.approx((2.0, 5.0))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_variance_nonnegative(seed):
    spec = random_subroutine(seed, num_inputs=2, num_steps=3, workspace_size=4)
    for i in range(2):
        m1, m2 = stopping_profile(spec, i).moments()
        assert m2 >= m1 ** 2 - 1e-12


def test_cascade_oracle_agrees_with_statevector():
    spec = random_subroutine(7, num_inputs=4, num_steps=4, workspace_size=4)
    for i in range(4):
        sv = stopping_profile(spec, i)
        dm = cascade_profile(spec, i)
        assert abs(sv.pmf.sum() - 1.0) < 1e-12
        assert np.max(np.abs(sv.pmf - dm.pmf)) < 1e-10
        assert np.all(np.diff(sv.cdf) >= -1e-12)


@pytest.mark.parametrize("seed,n,t,z", [(0, 2, 2, 2), (3, 3, 4, 3),
                                        (7, 4, 4, 4), (11, 1, 5, 2)])
def test_stopping_moments_match_cascade_oracle(seed, n, t, z):
    spec = random_subroutine(seed, n, t, z, marked=(0,))
    exp_t, exp_t2 = stopping_moments(spec)
    assert exp_t.shape == exp_t2.shape == (n,)
    steps = np.arange(1, t + 1)
    for i in range(n):
        pmf = cascade_profile(spec, i).pmf
        assert exp_t[i] == pytest.approx(pmf @ steps, abs=1e-10)
        assert exp_t2[i] == pytest.approx(pmf @ steps ** 2, abs=1e-10)


def test_validate_reports_zero_error_violation():
    spec = random_subroutine(3, num_inputs=2, num_steps=2, workspace_size=2)
    lied = SubroutineSpec(num_inputs=2, num_steps=2, workspace_size=2,
                          partition=spec.partition, unitaries=spec.unitaries,
                          outputs=(1, 0))
    report = validate(lied)
    assert not report.passed
    checks = {c.name: c for c in report.checks}
    assert checks["step_unitarity"].passed and checks["halted_space_fixed"].passed
    # unmarked input 0 ends wholly in answer sector 0, which the lie zeroes out
    assert not checks["zero_error"].passed
    assert checks["zero_error"].residual == pytest.approx(1.0, abs=1e-12)
    assert validate(spec).passed


@pytest.mark.parametrize("reader", [stopping_profile, cascade_profile])
def test_input_index_out_of_range(reader):
    spec = random_subroutine(0, num_inputs=3, num_steps=2, workspace_size=2)
    for i in (-1, spec.num_inputs):
        with pytest.raises(IndexError):
            reader(spec, i)


@pytest.mark.parametrize("seed,n,t,z", [(0, 3, 4, 4), (1, 5, 8, 3)])
def test_trajectory_is_the_per_input_evolution(seed, n, t, z):
    spec = random_subroutine(seed, n, t, z, marked=(1,))
    traj = spec.trajectory
    assert traj.shape == (n, t + 1, 2 * z)
    assert spec.trajectory is traj and not traj.flags.writeable
    with pytest.raises(ValueError):
        traj[0, 0, 0] = 0.0
    for i in range(n):
        psi = spec.initial_state()
        assert traj[i, 0].tobytes() == psi.tobytes()
        for step in range(t):
            psi = spec.unitaries[i, step] @ psi
            assert traj[i, step + 1].tobytes() == psi.tobytes()


def test_random_subroutine_deterministic_in_seed():
    a = random_subroutine(42, 2, 3, 4, marked=(0,))
    b = random_subroutine(42, 2, 3, 4, marked=(0,))
    assert (a.num_inputs, a.num_steps, a.workspace_size, a.partition, a.outputs) == (
        b.num_inputs, b.num_steps, b.workspace_size, b.partition, b.outputs)
    assert a.unitaries.tobytes() == b.unitaries.tobytes()


def test_random_subroutine_all_mass_final_cell():
    fracs = [0.0, 0.0, 1.0]
    spec = random_subroutine(5, 2, 3, 4, halting_fractions=fracs)
    for i in range(2):
        p = stopping_profile(spec, i)
        assert np.allclose(p.pmf, [0.0, 0.0, 1.0], atol=1e-12)


def test_generator_soundness_sweep():
    """1000 random specs across the size grid all validate."""
    grid = [(n, t, w) for n in (2, 4) for t in (2, 4, 8) for w in (2, 4)]
    seeds_per_cell = -(-1000 // len(grid))  # ceil
    count = 0
    for n, t, w in grid:
        for s in range(seeds_per_cell):
            if count >= 1000:
                break
            marked = (0,) if (s + n) % 2 else ()
            spec = random_subroutine(1000 * s + count, n, t, w, marked=marked)
            assert validate(spec).passed, (n, t, w, s)
            count += 1
    assert count == 1000


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_haar_unitary_matches_scipy_byte_for_byte(seed):
    ours = np.random.default_rng(seed)
    oracle = np.random.default_rng(seed)
    for k in range(2, 41):
        u = haar_unitary(ours, k)
        assert u.shape == (k, k) and u.dtype == np.complex128
        assert u.tobytes() == scipy_haar(oracle, k).tobytes()
        # both leave the generator in the same state
        assert ours.random() == oracle.random()
    assert np.max(np.abs(u.conj().T @ u - np.eye(k))) < 1e-12


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("dim, count", [(1, 3), (2, 1), (2, 5), (3, 64), (7, 40), (16, 9)])
def test_stacked_haar_unitary_equals_sequential_draws(seed, dim, count):
    stacked = np.random.default_rng(seed)
    sequential = np.random.default_rng(seed)
    got = haar_unitary(stacked, dim, count)
    want = np.stack([haar_unitary(sequential, dim) for _ in range(count)])
    assert got.shape == (count, dim, dim) and got.dtype == np.complex128
    assert got.tobytes() == want.tobytes()
    assert stacked.bit_generator.state == sequential.bit_generator.state


def _late(t):
    fractions = np.zeros(t)
    fractions[1:] = 1.0 / (t - 1)
    return fractions


ORACLE_SHAPES = [(5, 3, 1), (4, 3, 4), (3, 4, 6), (16, 4, 4), (64, 8, 8)]


@pytest.mark.parametrize("n, t, z", ORACLE_SHAPES)
@pytest.mark.parametrize("late", [False, True])
@pytest.mark.parametrize("marks", [0, 1, 2])
def test_random_subroutine_matches_per_input_oracle(n, t, z, late, marks):
    """Stacked steps against one scipy draw per (step, input), byte for byte."""
    marked = (0, n - 1)[:marks]
    fractions = _late(t) if late else None
    for seed in (0, 11):
        got = random_subroutine(seed, n, t, z, halting_fractions=fractions,
                                marked=marked)
        want = loop_random_subroutine(seed, n, t, z, halting_fractions=fractions,
                                      marked=marked)
        assert got.unitaries.tobytes() == want.unitaries.tobytes()
        assert got.partition == want.partition
        assert got.outputs == want.outputs


@pytest.mark.parametrize("n, t, z", [(2, 2, 2), (4, 3, 4), (3, 4, 6)])
def test_subroutine_pair_matches_scipy_draws(n, t, z):
    ours = subroutine_pair(5, n, t, z)
    oracle = [loop_random_subroutine(seed, n, t, z, halting_fractions=_late(t),
                                     marked=marked)
              for seed, marked in ((5, (0,)), (5 + 10_000, ()))]
    for spec, ref in zip(ours, oracle):
        assert spec.unitaries.tobytes() == ref.unitaries.tobytes()
        assert spec.partition == ref.partition
        assert spec.outputs == ref.outputs


@pytest.mark.parametrize("n, t, z", ORACLE_SHAPES + [(6, 16, 5), (4, 20, 7)])
def test_stacked_profiles_match_per_input_profiles(n, t, z):
    """The one-pass table against one input and one step at a time."""
    spec = random_subroutine(2, n, t, z, marked=(0,))
    table = spec.stopping_profiles
    assert table.cdf.shape == table.pmf.shape == (n, t)
    assert not table.cdf.flags.writeable and not table.pmf.flags.writeable
    exp_t, exp_t2 = stopping_moments(spec)
    for i in range(n):
        want = per_input_profile(spec, i)
        got = stopping_profile(spec, i)
        assert got.cdf.tobytes() == want.cdf.tobytes()
        assert got.pmf.tobytes() == want.pmf.tobytes()
        m1 = m2 = 0.0
        for step, p in enumerate(want.pmf.tolist(), start=1):
            m1 += p * step
            m2 += p * (step * step)
        assert exp_t[i].tobytes() == np.float64(m1).tobytes()
        assert exp_t2[i].tobytes() == np.float64(m2).tobytes()
        assert np.max(np.abs(got.pmf - cascade_profile(spec, i).pmf)) <= 1e-12


@pytest.mark.parametrize("width", list(range(0, 41)) + [64, 101])
def test_stacked_norms_match_one_norm_per_row(width):
    """Stacked squared norms against one row at a time, tiny entries included.

    Each row's entry must have the bytes of a Python fold of re^2 + im^2
    in component order, and of the same sum over that row alone.
    """
    rng = np.random.default_rng(width)
    rows = 400
    x = (rng.normal(size=(rows, width)) + 1j * rng.normal(size=(rows, width)))
    x *= 10.0 ** rng.integers(-9, 2, size=(rows, 1))
    x[::7] = 0.0
    if width:
        x[::3, -1] = -0.0
        # squares that underflow to subnormals
        x[::5] = 0.0
        x[::5, -1] = rng.random(len(x[::5])) * 1e-158 + 1e-158j
    got = subroutines._squared_norms(x)
    assert got.shape == (rows,)
    for r, row in enumerate(x):
        total = 0.0
        for v in row.tolist():
            total += v.real * v.real + v.imag * v.imag
        assert got[r].tobytes() == np.float64(total).tobytes(), r
        assert subroutines._squared_norms(row).tobytes() == got[r].tobytes(), r
    # where no square underflows, the sum is the squared norm up to rounding
    want = np.array([float(np.linalg.norm(row) ** 2) for row in x])
    normal = got > 1e-300
    assert np.all(np.abs(got[normal] - want[normal]) <= 1e-13 * want[normal])
    assert np.all(want[~normal] < 1e-300)


@pytest.mark.parametrize("n, t, z", [(16, 4, 4), (64, 8, 8), (6, 16, 5)])
def test_stacked_row_does_not_depend_on_other_rows(n, t, z):
    """A spec over a permuted subset of the inputs keeps their rows' bytes."""
    spec = random_subroutine(4, n, t, z, marked=(0, n - 1))
    keep = np.random.default_rng(n).permutation(n)[: n // 2 + 1]
    sub = SubroutineSpec(num_inputs=len(keep), num_steps=t, workspace_size=z,
                         partition=spec.partition, unitaries=spec.unitaries[keep],
                         outputs=tuple(spec.outputs[i] for i in keep))
    full, part = spec.stopping_profiles, sub.stopping_profiles
    assert part.cdf.tobytes() == full.cdf[keep].tobytes()
    assert part.pmf.tobytes() == full.pmf[keep].tobytes()
    for got, want in zip(stopping_moments(sub), stopping_moments(spec)):
        assert got.tobytes() == want[keep].tobytes()


@pytest.mark.parametrize("steps", [1, 0])
def test_late_halting_needs_two_steps(steps):
    with pytest.raises(ValueError, match="num_steps must be at least 2"):
        late_halting_fractions(steps)
    with pytest.raises(ValueError, match="num_steps must be at least 2"):
        subroutine_pair(0, 3, steps, 2)
    assert late_halting_fractions(2).tolist() == [0.0, 1.0]


# ---------------------------------------------------------------------------
# Block-structured subroutines
# ---------------------------------------------------------------------------

def test_single_block_halts_only_at_end():
    sched = random_block_schedule(1, blocks=(3,), projector_rank=1)
    spec = build_block_subroutine(sched)
    assert validate(spec).passed
    for t in range(spec.num_steps - 1):
        assert spec.partition[t] == ()
    for i in range(spec.num_inputs):
        p = stopping_profile(spec, i)
        assert p.pmf[-1] == pytest.approx(1.0, abs=1e-10)


def test_always_succeeding_measurement_halts_after_first_block():
    sched = random_block_schedule(2, blocks=(2, 2), projector_rank=2)
    spec = build_block_subroutine(sched)
    assert validate(spec).passed
    for i in range(spec.num_inputs):
        p = stopping_profile(spec, i)
        assert p.pmf[1] == pytest.approx(1.0, abs=1e-10)  # t = N_1 = 2


def test_generic_block_subroutine_matches_cascade_and_reference():
    sched = random_block_schedule(3, blocks=(2, 2), projector_rank=1)
    spec = build_block_subroutine(sched)
    assert validate(spec).passed
    for i in range(spec.num_inputs):
        sv = stopping_profile(spec, i)
        dm = cascade_profile(spec, i)
        assert np.max(np.abs(sv.pmf - dm.pmf)) < 1e-10
        # block-level halting mass agrees with the unaugmented reference run
        ref = run_block_algorithm(sched, i)
        ends = np.cumsum(sched.block_lengths)
        got = [sv.pmf[: ends[0]].sum(), sv.pmf[ends[0]:].sum()]
        assert np.max(np.abs(np.asarray(got) - ref)) < 1e-10
