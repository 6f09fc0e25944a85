"""Spectral decision engine for two-reflection instances.

The decision statistic is the exact overlap of the initial vector with
the small-phase eigenspace of the walk W = R_A R_B.  The walk is
block-diagonal over the connected components of the generators, so the
spectrum is taken on PEInstance.psi0_component, the components psi0
reaches, for every instance size.  There the engine decides on the star
(InstanceStructure.star), unless the component is small: one whose cross
Gram has at most STAR_COLUMNS SVD columns is one block, the principal-angle
step on the whole component, which costs less there than the star's passes
and secular step.  When psi0 sits on one row that a single side-A
generator touches, that generator is the hub: with q0 the normalized hub,
R_A = (I - 2 q0 q0^H) R_A' for the reflection R_A' about the other A
generators, so W = (I - 2 q0 q0^H) W0 with W0 = R_A' R_B.  Without the hub
the generators fall apart into blocks, and W0 is block-diagonal over them
and the identity on the rows no block holds, psi0's row among them; the
blocks of the built instances are the inputs' copies of one template,
grouped into patterns of one local layout.

W0 is decomposed block by block, all blocks of a pattern (and all rows of
a stack) in one stacked pass.  Each side's span basis is its normalized,
pairwise-orthogonal generators, held per block as dense columns and
divided by their norms there; by
Jordan's lemma W0 splits along the principal angles theta_j between a
block's span A' and span B: the thin SVD of C = Q_A'^H Q_B pairs a
principal vector u_j of A' with one of B, W0 rotates the plane they span
by -2 theta_j, written in closed form, and one unitary_eig call
decomposes the rotations of every block; intersection lines and the
complement of span A' + span B have phase 0, and the directions left
unpaired have phase pi.  That gives q0's weight on each eigenphase of W0.
A pattern whose blocks all hold the same values, as the simple loop's do,
is decided once a row, and q0's weights there count once for each block.

W0's phases are grouped (runs within eig_cluster_tol, joined across pi)
into poles theta_G carrying q0 weight w_G; groups at or below DEFLATE are
deflated.  W's other eigenphases phi solve the secular equation of the
rank-one change, sum_G w_G cot((phi - theta_G) / 2) = 0, with one root in
each gap between consecutive poles.  The roots are found all at once,
each relative to the nearer end of its gap, by the "middle way" of Li
(LAPACK Working Note 89) in a bracket, as Gu and Eisenstat's
divide-and-conquer does on the line.  psi0's weight on root phi is
|q0_0|^2 / sin^2((phi - theta_0) / 2) divided by sum_G w_G / sin^2((phi -
theta_G) / 2), with q0_0 the hub's entry on psi0's row and theta_0 psi0's
own group; the rest of that group's eigenspace, phase 0, carries
rest_0 / w_0, its weight without psi0's own entry.  A component without a
hub, or a small one, is one block and W = W0, so psi0's weights come from
the block pass directly; hand-built instances take that path.

Checks run on every decision, each naming the row that fails, and each
written so that a NaN fails it: psi0's unit norm; every generator's norm
above rank_tol; the normalized generators' orthonormality, per block, with
the hub's overlaps with side A' among them; each block's principal-vector
residual max(|C V - U Sigma|, |C^H U - V Sigma|); unitary_eig's unitarity
and reconstruction; the secular residual |f(phi)| / sum_G w_G (|cot| + 1)
at each root; and psi0's weights, summed as a sum, against |psi0|^2.  All
within assert_tol.  The arithmetic follows the instance's values: a
simple-loop instance is real, a general instance complex.

Every array of the engine carries a leading row axis: it decides the
rows of an InstanceStack, instances that share one structure and differ
only in their values, in one pass.  Each row is computed on its own, in
the same order as alone (sums over poles run in order), so a row's
spectrum has the same bytes alone as inside a stack.  The first spectrum
asked of any row computes its pass and keeps every row's spectrum in the
stack; a failed check keeps nothing.  A pass takes as many consecutive
rows as keep their block working arrays within STACK_ENTRIES entries, and
at least one; secular evaluations take SECULAR_ENTRIES pole-root pairs at
a time.  A lone instance is a stack of one.

The phase-register simulation runs the dense walk of psi0's component,
kept as an independent cross-check; the dense walk of the full instance
and the principal-angle engine on psi0's whole component are the oracles
in the test suite.  The reflection-factorization identity used to
implement the walk cheaply, each side's reflection as the product of its
set reflections, is checked on the sparse cross-set Gram: it holds
exactly when the sets of a side span mutually orthogonal subspaces.

RegimePair is the paper's regime experiment on one marked/empty pair.
regime_pairs builds every regime's instances and ties each side's into
one stack, since the regimes of a spec share its structure and differ
only in their weights.  It calls the instance and subroutine layers
through their modules, so that wrappers installed on those module
attributes see every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import instances as inst_mod
from . import subroutines as subs_mod
from .linalg import DEFAULT_TOL, NonUnitaryError, _adjoint, unitary_eig
from .instances import (InstanceRows, InstanceStack, InstanceStructure, NegativeWitness,
                        PEInstance, PositiveWitness, Weights)
from .subroutines import SubroutineSpec

#: largest c_plus that decide accepts
C_PLUS_MAX = 50.0
#: most entries of one stacked working array of the decision engine
STACK_ENTRIES = 1 << 20
#: most pole-root pairs of one secular evaluation, so its arrays stay in cache
SECULAR_ENTRIES = 1 << 16
#: most iterations of the secular root finder
SECULAR_STEPS = 64
#: q0 weight at or below which a phase group of W0 is deflated: (8 eps)^2
DEFLATE = (8.0 * np.finfo(float).eps) ** 2
#: most SVD columns, min(k_A, k_B), of a component decided as one block even
#: with a hub; from both paths timed with fresh plans (2 cores, BENCH_26.json
#: "paths"): simple-loop decisions are faster as one block to n = 40 and on
#: the star from n = 56, and of the default general-loop shapes (4, 4, 4), 63
#: columns, is faster as one block (41 against 67 ms) and every n = 16 one,
#: 111 columns and up, on the star; 64 is the single cut with the least time
#: over the default general-loop shapes
STAR_COLUMNS = 64


class WalkSpectrum(NamedTuple):
    """Eigenphases of the walk on psi0's component with psi0's weight on each.

    With a hub (InstanceStructure.star) the phases are the secular roots,
    one per gap between consecutive weighted phase groups of W0, gap by
    gap from the lowest group, then phase 0 for the rest of psi0's own
    group's eigenspace.  Without one, W = W0 and the entries are the
    block's: for each principal-vector pair of the thin SVD, the +-2
    theta_j of its rotation plane as unitary_eig orders them, or a phase-0
    line and an empty entry; then the phase-pi weights of the directions
    left unpaired on side A and on side B, and the phase-0 weight outside
    span A + span B.  dim, rank_a and rank_b are the row and generator
    counts of psi0's component; min_angle is the smallest |phi| / 2 over
    the nonzero phases phi that carry psi0 weight, or None when none does.
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


def _check_unit_psi0(psi0: np.ndarray, row: int) -> None:
    """ValueError naming the row unless |psi0| is within assert_tol of 1 (so for NaN too)."""
    norm = float(np.linalg.norm(psi0))
    if not abs(norm - 1.0) <= DEFAULT_TOL.assert_tol:
        raise ValueError(f"psi0 has norm {norm!r}, not 1, in row {row}")


def _star_of(structure: InstanceStructure):
    """How psi0's component is decided: its star, or one block when small.

    A component whose cross Gram has at most STAR_COLUMNS SVD columns is
    one block, like a component without a hub.
    """
    part = structure.component.structure
    if min(s.shape[1] for s in part.sides.values()) <= STAR_COLUMNS:
        return part.one_block
    return part.star


def _row_entries(structure: InstanceStructure) -> int:
    """Entries of one row's stacked b x (k + 1) block working arrays, on psi0's component."""
    return sum(p.rows.size * (max(s.shape[1] for s in p.structure.sides.values()) + 1)
               for p in _star_of(structure).patterns)


def _rows_per_pass(structure: InstanceStructure) -> int:
    """How many rows of a stack one pass of the engine takes.

    As many as keep one row's block working arrays (_row_entries), times
    the rows, within STACK_ENTRIES, and at least one.
    """
    return max(1, STACK_ENTRIES // max(1, _row_entries(structure)))


def _walk_spectrum(instance: PEInstance) -> WalkSpectrum:
    """The walk's spectrum on instance's psi0 component, from its stack.

    The first call for any row of instance.stack computes the spectra of
    every row in that row's pass with _stack_spectra, and keeps them in
    the stack; a lone instance is a stack of one.  A pass is
    _rows_per_pass consecutive rows: the whole stack at small components,
    one row where the block working arrays of two would pass STACK_ENTRIES.
    A failed check keeps nothing, so every later call raises again.
    """
    stack, row = instance.stack, instance.row
    if row not in stack.spectra:
        per_pass = _rows_per_pass(stack.structure) if len(stack) > 1 else 1
        start = row - row % per_pass
        numbers = range(start, min(start + per_pass, len(stack)))
        stack.spectra.update(zip(numbers, _stack_spectra(stack.rows(numbers))))
    return stack.spectra[row]


def _stack_spectra(rows: InstanceRows) -> list[WalkSpectrum]:
    """Spectrum of W = R_A R_B on psi0's component, row by row, from its star.

    Taken on psi0's component (InstanceRows.component), from each block's
    generators over their norms (_check_norms refuses a vanishing one, and
    _principal_pairs checks that they are orthonormal); ValueError is
    raised when |psi0| differs from 1 by more than assert_tol, since every
    weight is a fraction of a unit psi0.  With a hub q0 (the normalized
    hub generator), W = (I - 2 q0 q0^H) W0 with W0 = R_A' R_B, block
    diagonal over the star's blocks and the identity on its free rows,
    psi0's row among them: _block_spectra decomposes W0 and gives q0's
    weight on each of its phases, and _star_spectra groups them and
    solves the secular equation for W's phases and psi0's weights.
    Without a hub, W = W0 on one block, and _block_spectra gives psi0's
    weights directly.  psi0's weights must sum to |psi0|^2 within
    assert_tol, taken as a sum of every weight; ValueError names the row
    where they do not.  Every array carries a leading row axis and each
    row is computed on its own, in the same order as alone, so a row's
    spectrum has the same bytes alone as inside a stack.
    """
    star = _star_of(rows.structure)
    part = rows.component()
    structure, psi0 = part.structure, part.psi0
    for vec, number in zip(psi0, part.numbers):
        _check_unit_psi0(vec, number)
    m = len(psi0)
    psi_sq = _abs2(psi0).sum(axis=1)
    if star.hub is None:
        phases, weights = _block_spectra(part, star, psi0)
        spectra = list(zip(phases, weights))
    else:
        a = structure.sides["A"]
        hub = slice(a.indptr[star.hub], a.indptr[star.hub + 1])
        values = part.values["A"][:, hub]
        norm = np.sqrt(_abs2(values).sum(axis=1))
        _check_norms(part, "A", norm)
        q0 = np.zeros(psi0.shape, dtype=values.dtype)
        q0[:, a.rows[hub]] = values / norm[:, None]
        q0_sq = _abs2(q0)
        own = structure.support[0]
        # psi0's row first, then the other free rows, then the blocks
        phases, weights = _block_spectra(part, star, q0)
        spectra = _star_spectra(
            part, np.concatenate([np.zeros((m, 2)), phases], axis=1),
            np.concatenate([q0_sq[:, [own]],
                            q0_sq[:, star.free[star.free != own]].sum(axis=1)[:, None],
                            weights], axis=1), psi_sq)
    totals = np.array([w.sum() for _, w in spectra])
    miss = np.abs(totals - psi_sq)
    part.raise_first(~(miss <= DEFAULT_TOL.assert_tol), miss,
                     lambda v: f"psi0's weights miss |psi0|^2 by {v:.3e}, over "
                               f"assert_tol {DEFAULT_TOL.assert_tol:g}")
    ranks = (structure.sides["A"].shape[1], structure.sides["B"].shape[1])
    out = []
    for phases, weights in spectra:
        carried = (phases != 0.0) & (weights > 0.0)
        out.append(WalkSpectrum(
            phases=phases, weights=weights, dim=structure.dim, rank_a=ranks[0],
            rank_b=ranks[1],
            min_angle=(float(np.abs(phases[carried]).min()) / 2.0
                       if np.count_nonzero(carried) else None)))
    return out


def _check_norms(part: InstanceRows, side: str, norms: np.ndarray) -> None:
    """ValueError naming the side and the row where a generator norm is not above rank_tol.

    Such a generator spans nothing; NaN fails too.
    """
    low = norms.reshape(len(part.numbers), -1).min(axis=1, initial=np.inf)
    part.raise_first(~(low > DEFAULT_TOL.rank_tol), low,
                     lambda v: f"side {side}: generator norm {v:.3e} is not above rank_tol")


def _block_spectra(part: InstanceRows, star, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """W0's eigenphases block by block, with x's weight on each: two (m, E) arrays.

    Each block holds two reflections about small spans, so by Jordan's
    lemma W0 splits there along the principal angles theta_j between the
    block's span A' and span B.  The blocks of one pattern are stacked
    over rows x blocks and share every step (_principal_pairs): the
    orthonormality check, their cross Gram C = Q_A'^H Q_B, its thin SVD
    C = U diag(cos) V^H, certified per block (ValueError names the row
    whose largest principal-vector residual max(|C V - U cos|,
    |C^H U - V cos|) exceeds assert_tol), and the products.
    Column j pairs u_j = Q_A' U_j with Q_B V_j = cos_j u_j + sin_j w_j,
    with sin_j the norm of the residual Q_B V_j - cos_j u_j.  Pairs with
    sin_j <= rank_tol are intersection lines (phase 0); W0 rotates every
    other plane span{u_j, w_j} by -2 theta_j in closed form
    (_rotation_blocks), and one unitary_eig call, row by row, decomposes
    the planes of every pattern.  The directions of a side that no column
    pairs have phase pi, and x's weight on them is the squared norm of a
    residual in generator coordinates (r_A = p_A - U U^H p_A, r_B = p_B -
    V V^H p_B, p = Q^H x); its overlap with w_j is (V_j^H p_B - cos_j
    U_j^H p_A) / sin_j, and its weight outside span A' + span B the
    squared norm of x - Q_A' p_A - sum_j w_j <w_j, x> - Q_B r_B.  A unit
    lists, per SVD column, the plane's two phases or (0, line weight) and
    (0, 0), then pi, pi and 0; a row lists its units pattern by pattern.
    A unit is one block, or all of a row's blocks of a pattern when they
    hold the same values, its weights then times their count.
    """
    m = len(x)
    found = [_principal_pairs(part, pattern, x, star.hub is not None)
             for pattern in star.patterns]

    # every pattern's planes in one stack, row after row
    plane_row = np.concatenate([np.zeros(0, dtype=np.intp)]
                               + [f.rot.nonzero()[0] * m // len(f.rot) for f in found])
    order = plane_row.argsort(kind="stable")
    try:
        dec = unitary_eig(_rotation_blocks(
            np.concatenate([np.zeros(0)] + [f.angles for f in found])[order]))
    except NonUnitaryError as err:
        row = part.numbers[int(plane_row[order][err.block])]
        raise NonUnitaryError(f"{err} in row {row}", err.block) from None
    coeffs = np.concatenate([np.zeros((0, 2))] + [f.coeffs for f in found])[order]
    plane = np.empty((2, len(order), 2))
    plane[0, order] = dec.phases
    # each eigenvector's overlap with x's coordinates on its plane
    plane[1, order] = _abs2((dec.vectors.conj() * coeffs[:, :, None]).sum(axis=1))

    phases, weights, start = [np.zeros((m, 0))], [np.zeros((m, 0))], 0
    for f in found:
        units, k = f.rot.shape
        end = start + len(f.angles)
        both = np.zeros((2, units, 2 * k + 3))
        pairs = both[:, :, :2 * k].reshape(2, units, k, 2)
        pairs[:, f.rot] = plane[:, start:end]
        pairs[1, :, :, 0] += f.lines
        both[0, :, 2 * k:2 * k + 2] = np.pi
        both[1, :, 2 * k:] = f.tail
        start = end
        if f.count > 1:
            both[1] *= f.count
        phases.append(both[0].reshape(m, -1))
        weights.append(both[1].reshape(m, -1))
    return np.concatenate(phases, axis=1), np.concatenate(weights, axis=1)


class _Pairs(NamedTuple):
    """One pattern's principal-vector pairs, unit by unit, row by row.

    A unit is a row's block, or the row's one block standing for its
    count blocks when all of them hold the same values.
    """

    count: int
    rot: np.ndarray        # (units, k) rotation planes
    angles: np.ndarray     # their principal angles, unit by unit
    coeffs: np.ndarray     # x's coordinates on (u_j, w_j) of each plane
    lines: np.ndarray      # (units, k) x's weight on each intersection line
    tail: np.ndarray       # (units, 3) unpaired A, unpaired B, outside


def _abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2 entry by entry, as re^2 + im^2."""
    return z.real ** 2 + z.imag ** 2 if z.dtype.kind == "c" else z * z


def _orthonormality(g: np.ndarray, gh: np.ndarray) -> np.ndarray:
    """Each unit's |G^H G - I| entries, (units, k^2), for dense generator columns g, gh = G^H."""
    return np.abs(gh @ g - np.eye(g.shape[2])).reshape(len(g), -1)


def _principal_pairs(part: InstanceRows, pattern, x: np.ndarray, hub: bool) -> _Pairs:
    """The principal-angle step of _block_spectra on one pattern's blocks, every row.

    A unit is a row's block, or the row's one block when all of them hold
    the same values (as the simple loop's do).  Each unit holds its
    generators as dense b x k columns, each over its norm (_check_norms
    refuses a vanishing one), so its cross Gram and products are stacked
    matrix products.
    """
    m, nb = len(x), len(pattern.rows)
    a, b = pattern.structure.sides["A"], pattern.structure.sides["B"]
    split = (pattern.rows.shape[1], pattern.rows.shape[1] + len(a.rows))
    table = np.concatenate([x.take(pattern.rows, axis=1),
                            part.values["A"].take(pattern.entries["A"], axis=1),
                            part.values["B"].take(pattern.entries["B"], axis=1)], axis=2)
    count = 1
    if nb > 1 and (table == table[:, :1]).all():
        # every block of a row has the same values: decide one a row
        table, count = table[:, :1], nb
    table = table.reshape(-1, table.shape[2])
    units = len(table)
    ga = np.zeros((units,) + a.shape, dtype=table.dtype)
    ga[:, a.rows, a.cols] = table[:, split[0]:split[1]]
    gb = np.zeros((units,) + b.shape, dtype=table.dtype)
    gb[:, b.rows, b.cols] = table[:, split[1]:]
    for side, g in (("A", ga), ("B", gb)):
        norms = np.sqrt(_abs2(g).sum(axis=1))
        _check_norms(part, side, norms)
        g /= norms[:, None]
    x = table[:, :split[0], None]
    gah, gbh = _adjoint(ga), _adjoint(gb)
    # the normalized generators must be orthonormal, the hub's overlaps with
    # side A' (p_A below, when x is the hub) among them
    pa = gah @ x
    for side, g, gh in (("A", ga, gah), ("B", gb, gbh)):
        resid = _orthonormality(g, gh)
        if side == "A" and hub:
            resid = np.concatenate([resid, np.abs(pa[..., 0])], axis=1)
        worst = resid.reshape(m, -1).max(axis=1, initial=0.0)
        part.raise_first(~(worst <= DEFAULT_TOL.assert_tol), worst,
                         lambda v: f"side {side}: normalized generators are not "
                                   f"orthonormal, residual {v:.3e}")
    c = gah @ gb
    u, cos, vh = np.linalg.svd(c, full_matrices=False)
    v, uh = _adjoint(vh), _adjoint(u)
    scaled = cos[:, None, :]
    resid = np.concatenate([np.abs(c @ v - u * scaled).reshape(units, -1),
                            np.abs(_adjoint(c) @ u - v * scaled).reshape(units, -1)], axis=1)
    worst = resid.reshape(m, -1).max(axis=1, initial=0.0)
    part.raise_first(~(worst <= DEFAULT_TOL.assert_tol), worst,
                     lambda r: f"principal-vector residual {r:.3e} exceeds "
                               f"assert_tol {DEFAULT_TOL.assert_tol:g}")
    # matrix-vector products unit by unit, as (.., 1) matrices
    pb = gbh @ x
    ca, cb = uh @ pa, vh @ pb
    # one product per side; the extra last columns are Q_B r_B and Q_A' p_A
    on_b = gb @ np.concatenate([v, pb - v @ cb], axis=2)
    on_a = ga @ np.concatenate([u * scaled, pa], axis=2)
    perp = on_b[..., :-1] - on_a[..., :-1]
    sin = np.sqrt(_abs2(perp).sum(axis=1))
    rot = sin > DEFAULT_TOL.rank_tol
    ca, cb = ca[..., 0], cb[..., 0]
    cw = (cb - cos * ca)[rot] / sin[rot]
    # sum_j w_j <w_j, x> = perp y, y_j = <w_j, x> / sin_j
    y = np.zeros(cos.shape + (1,), dtype=cw.dtype)
    y[rot, 0] = cw / sin[rot]
    outside = x - on_a[..., -1:] - perp @ y - on_b[..., -1:]
    tail = np.stack([_abs2(r).sum(axis=(1, 2))
                     for r in (pa - u @ ca[..., None], pb - v @ cb[..., None], outside)], axis=1)
    return _Pairs(count, rot, np.arctan2(sin[rot], cos[rot]),
                  np.stack([ca[rot], cw], axis=1), np.where(rot, 0.0, _abs2(ca)), tail)


class _Poles(NamedTuple):
    """W0's weighted phase groups of each row, ascending: the secular equation's poles.

    theta and w are (m, M), each row's count[r] poles first, then NaN
    phases and zero weights when padded; own is the column of psi0's
    group, whose weight without psi0's own entry is rest.
    """

    theta: np.ndarray
    w: np.ndarray
    count: np.ndarray
    own: np.ndarray
    rest: np.ndarray
    padded: bool


def _poles(phases: np.ndarray, weights: np.ndarray) -> _Poles:
    """W0's phases grouped row by row; column 0 must be psi0's own entry.

    A group is a run of the sorted phases whose consecutive gaps are at
    most eig_cluster_tol, the run at the top joined to the run at the
    bottom when they meet across pi; its phase is its members' mean and
    its weight their sum, in array order.  A group of weight at most
    DEFLATE is deflated, not a pole (psi0's own group never is): the
    hub's overlap with its eigenspace is below 8 eps, rounding's size.
    """
    m, count = phases.shape
    order = phases.argsort(axis=1, kind="stable")
    taken = order + count * np.arange(m)[:, None]
    ph, wt = phases.take(taken), weights.take(taken)
    new = np.ones(ph.shape, dtype=bool)
    new[:, 1:] = ph[:, 1:] - ph[:, :-1] > DEFAULT_TOL.eig_cluster_tol
    gid = new.cumsum(axis=1) - 1
    groups = gid[:, -1] + 1
    wrap = ((ph[:, 0] + 2.0 * np.pi) - ph[:, -1] <= DEFAULT_TOL.eig_cluster_tol) & (groups > 1)
    head = wrap[:, None] & (gid == 0)
    ph = np.where(head, ph + 2.0 * np.pi, ph)
    gid = np.where(head, groups[:, None] - 1, gid) - wrap[:, None]
    flat = (gid + count * np.arange(m)[:, None]).ravel()

    def by_group(values):
        return np.bincount(flat, weights=values.ravel(), minlength=m * count).reshape(m, count)

    size = by_group(np.ones(ph.shape))
    w = by_group(wt)
    rest = by_group(np.where(order == 0, 0.0, wt))
    theta = by_group(ph) / np.maximum(size, 1.0)
    everyone, mine = np.arange(m), gid[order == 0]
    # psi0's own group is never deflated: it holds psi0's entry
    valid = (size > 0) & (w > DEFLATE)
    valid[everyone, mine] = True
    poles = valid.sum(axis=1)
    keep = (~valid).argsort(axis=1, kind="stable")[:, :poles.max()] + count * everyone[:, None]
    return _Poles(np.where(valid, theta, np.nan).take(keep), np.where(valid, w, 0.0).take(keep),
                  poles, valid.cumsum(axis=1)[everyone, mine] - 1,
                  rest[everyone, mine], bool(poles.min() < poles.max()))


class _Roots(NamedTuple):
    """The secular roots of every row, flat: phi = theta[row, ref] + s delta.

    ref is the pole nearer the root, s is +1 when the gap lies above it
    and -1 below, gap is the width of the root's gap.
    """

    row: np.ndarray
    ref: np.ndarray
    s: np.ndarray
    gap: np.ndarray
    delta: np.ndarray


def _offsets(poles: _Poles, row, ref, s, gap) -> tuple[np.ndarray, np.ndarray]:
    """Each pole's offset p from the reference pole, (c, M), and the gap's far end.

    p is s (theta_G - theta_ref), a difference of stored phases, wrapped
    to within pi of the gap's middle; the reference pole and the far end
    sit at exactly 0 and gap, so phi - theta_G = s (delta - p) keeps its
    relative accuracy next to every pole.  Padding sits at -pi.
    """
    at = np.arange(len(row))
    far = (ref + s) % poles.count[row]
    half = 0.5 * gap[:, None]
    theta = poles.theta[row]
    p = theta - theta[at, ref][:, None]
    p *= s[:, None]
    p -= (2.0 * np.pi) * (p >= half + np.pi)
    p += (2.0 * np.pi) * (p < half - np.pi)
    p[at, ref], p[at, far] = 0.0, gap
    if poles.padded:
        p[np.isnan(p)] = -np.pi
    return p, far


def _solve(poles: _Poles, roots: _Roots, which: np.ndarray, final: np.ndarray) -> None:
    """Iterate the roots numbered which until each converges; see _secular_roots.

    Writes each root's ref, s and delta into roots, and f, slope = -2 f',
    scale = sum of w_G (|cot((phi - theta_G) / 2)| + 1) and csc_own =
    1 / sin^2((phi - theta_own) / 2) at it into final's columns.  The
    step is the "middle way" of Li (LAPACK Working Note 89), on the
    circle: the poles behind the reference pole and those ahead of the
    gap's far end are each replaced by a multiple of the nearer end's
    cot, matching their slope at delta, and a constant takes up the rest
    of f; the model c + s1 cot(delta / 2) + s2 cot((delta - gap) / 2) = 0
    is a quadratic in u = cot(delta / 2) with one root in the gap, the
    larger root of s1 u^2 - b u - e, taken without cancellation.  Sums
    over the poles run in order (cumsum), so a row's padding changes no
    bit; a converged root keeps its delta while the others go on.
    """
    row, ref, s, gap, delta = (a[which] for a in roots)
    at = np.arange(len(row))
    w = poles.w[row]
    width = w.shape[1]
    w_all = w.cumsum(axis=1)[:, -1]
    cg = 1.0 / np.tan(0.5 * gap)
    low, high = np.zeros(len(row)), delta.copy()
    active = np.ones(len(row), dtype=bool)
    tiny = 4.0 * np.finfo(float).eps
    for number in range(SECULAR_STEPS + 1):
        if number < 2:
            p, far = _offsets(poles, row, ref, s, gap)
            # the reference pole and the poles behind it, against the far end and ahead
            behind = p < 0.5 * gap[:, None]
            w_sides = np.array([w * behind, w * ~behind])
            ends = np.stack([ref, far]) + width * at
            p *= 0.5
        cot = 1.0 / np.tan(0.5 * delta[:, None] - p)
        csc = 1.0 + cot * cot
        terms = w * cot
        sums = np.concatenate([terms[None], w_sides * csc,
                               np.abs(terms)[None]]).cumsum(axis=2)[..., -1]
        # f, then the slopes of the poles behind and ahead
        f, slopes = sums[0], sums[1:3]
        c_end = cot.take(ends)
        if not number:
            # the middle seen from the other end negates f and swaps the poles
            # behind and ahead: the far end is nearer when f > 0 there
            flip = f > 0.0
            s, ref = np.where(flip, -1, s), np.where(flip, far, ref)
            f = np.where(flip, -f, f)
            slopes = np.where(flip, slopes[::-1], slopes)
        s12 = slopes / (1.0 + c_end * c_end)
        s1, s2 = s12
        fit = s12 * c_end
        c = f - fit[0] - fit[1]
        b = (s1 + s2) * cg - c
        e = c * cg + s2
        root = np.sqrt(np.maximum(b * b + 4.0 * s1 * e, 0.0))
        u = (b + root) / (2.0 * s1)
        neg = b < 0.0
        if np.count_nonzero(neg):
            np.copyto(u, 2.0 * e / (root - b + ~neg), where=neg)
        step = 2.0 * np.arctan2(1.0, u)
        np.copyto(low, delta, where=f > 0.0)
        np.copyto(high, delta, where=f < 0.0)
        np.copyto(step, 0.5 * (low + high), where=(step <= low) | (step >= high))
        scale = sums[3] + w_all
        done = active & ((np.abs(f) <= 2.0 * tiny * scale)
                         | (np.abs(step - delta) <= tiny * delta))
        if number == SECULAR_STEPS:
            done = active
        if np.count_nonzero(done):
            finished = which[done]
            final[:, finished] = [f[done], (slopes[0] + slopes[1])[done], scale[done],
                                  csc[at[done], poles.own[row[done]]]]
            roots.ref[finished], roots.s[finished] = ref[done], s[done]
            roots.delta[finished] = delta[done]
            active &= ~done
            if not np.count_nonzero(active):
                return
        np.copyto(delta, step, where=active)


def _secular_roots(poles: _Poles) -> tuple[_Roots, np.ndarray]:
    """The roots of sum_G w_G cot((phi - theta_G) / 2) = 0, one in each gap, and f there.

    f falls from +inf to -inf across each gap between consecutive poles,
    so it has one root there.  Its sign at the gap's middle picks the
    nearer end as the reference pole; from the middle, the model steps of
    _solve run inside a bracket kept by the signs of f, falling back to
    bisection when a step leaves it, until |f| is within 8 eps of scale
    or a step would move delta by at most 4 eps delta, at most
    SECULAR_STEPS times.  The roots run in vectorized chunks of at most
    SECULAR_ENTRIES pole-root pairs, each root on its own.  A row with one
    pole has its root opposite it, where f is w cot(pi / 2).  Returns the
    roots and f, slope, scale and csc_own at them (see _solve).
    """
    count = poles.count
    row = np.arange(len(count)).repeat(count)
    k = np.arange(len(row)) - (count.cumsum() - count).repeat(count)
    theta = poles.theta
    last = k == count[row] - 1
    gap = np.where(last, (theta[row, 0] + np.pi) + (np.pi - theta[row, k]),
                   theta[row, np.where(last, 0, k + 1)] - theta[row, k])
    roots = _Roots(row, k, np.ones(len(row), dtype=np.int64), gap, 0.5 * gap)
    final = np.zeros((4, len(row)))
    # a lone pole's root is opposite it, and stays at its gap's middle
    lone = count[row] == 1
    if np.count_nonzero(lone):
        w_lone, c_lone = poles.w[row[lone], 0], 1.0 / np.tan(0.5 * np.pi)
        final[:, lone] = [w_lone * c_lone, w_lone * (1.0 + c_lone * c_lone),
                          w_lone * (abs(c_lone) + 1.0), 1.0 + c_lone * c_lone + 0.0 * w_lone]
    active = (~lone).nonzero()[0]
    size = max(1, SECULAR_ENTRIES // theta.shape[1])
    for start in range(0, len(active), size):
        _solve(poles, roots, active[start:start + size], final)
    return roots, final


def _star_spectra(part: InstanceRows, phases: np.ndarray, weights: np.ndarray,
                  scale: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """W's phases and psi0's weights on them, from W0's, row by row.

    phases and weights are W0's phases and q0's weights on them, psi0's
    own row first; scale is |psi0|^2.  With W0's phases grouped into poles
    (_poles) theta_G of weight w_G, W's other phases are the secular roots
    (_secular_roots), and psi0's weight on root phi is scale |q0_0|^2 /
    sin^2((phi - theta_0) / 2) divided by sum_G w_G / sin^2((phi - theta_G) / 2),
    where q0_0 is q0's entry on psi0's row and theta_0 psi0's group; its
    weight on the rest of its group's eigenspace is scale rest_0 / w_0, with
    rest_0 that group's weight without psi0's own entry.  psi0 is
    orthogonal to every other group's eigenspace, so a deflated group
    carries none of its weight.  Each root's secular residual |f| / scale
    must be within assert_tol; ValueError names the row where it is not.
    """
    poles = _poles(phases, weights)
    roots, (f, slope, scale_f, csc_own) = _secular_roots(poles)
    m = len(phases)
    worst = np.maximum.reduceat(np.abs(f) / scale_f, np.searchsorted(roots.row, np.arange(m)))
    part.raise_first(~(worst <= DEFAULT_TOL.assert_tol), worst,
                     lambda v: f"secular residual {v:.3e} exceeds assert_tol "
                               f"{DEFAULT_TOL.assert_tol:g}")
    phi = poles.theta[roots.row, roots.ref] + roots.s * roots.delta
    phi = np.where(phi > np.pi, phi - 2.0 * np.pi, phi)
    phi = np.where(phi <= -np.pi, phi + 2.0 * np.pi, phi)
    weight = (scale * weights[:, 0])[roots.row] * csc_own / slope
    rest = scale * poles.rest / poles.w[np.arange(m), poles.own]
    ends = poles.count.cumsum()
    return [(np.concatenate([phi[end - count:end], [0.0]]),
             np.concatenate([weight[end - count:end], [r]]))
            for end, count, r in zip(ends.tolist(), poles.count.tolist(), rest)]


def _zero_phase_weight(spectrum: WalkSpectrum, theta_star: float) -> float:
    """psi0's weight on the phase clusters whose mean is within the cutoff.

    The clusters are cluster_phases': runs of the sorted phases whose
    consecutive gaps are at most eig_cluster_tol, each summed in one
    reduceat.
    """
    order = spectrum.phases.argsort()
    phases, weights = spectrum.phases[order], spectrum.weights[order]
    new = np.ones(len(phases) + 1, dtype=bool)
    new[1:-1] = phases[1:] - phases[:-1] > DEFAULT_TOL.eig_cluster_tol
    bounds = new.nonzero()[0]
    starts = bounds[:-1]
    mean = np.add.reduceat(phases, starts) / (bounds[1:] - starts)
    kept = np.abs(mean) <= theta_star + DEFAULT_TOL.eig_cluster_tol
    return float(np.add.reduceat(weights, starts)[kept].sum())


def zero_phase_overlap(instance: PEInstance, theta_star: float) -> float:
    """Total squared overlap of psi0 with eigenphases of magnitude <= theta_star.

    Eigenphases within eig_cluster_tol of each other are aggregated
    before the cutoff is applied, so numerically split degenerate zero
    phases count as one cluster.  A NaN cutoff raises ValueError.
    """
    if math.isnan(theta_star):
        raise ValueError("theta_star must be a number, got nan")
    return _zero_phase_weight(_walk_spectrum(instance), theta_star)


@dataclass(frozen=True)
class Decision:
    """A verdict with the size of the instance it was reached on.

    dim is the instance dimension and rank_a / rank_b its generator counts
    per side (the ranks of the two spans), read from its structure;
    dim_decided is the row count of psi0's component, on which the
    spectrum was taken, and min_angle the smallest |phi| / 2 over the
    walk's nonzero eigenphases phi that carry psi0 weight (None when none
    does): for the simple loop, the smallest principal angle of the plane
    psi0 sees.
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
    short vector with the same norm), and for a c_plus or c_minus out of
    range, NaN included.  The spectrum is the instance's row of its
    InstanceStack, computed with its pass on the first decision of any
    of them.
    """
    if not (1.0 <= c_plus <= C_PLUS_MAX):
        raise ValueError(f"c_plus must lie in [1, {C_PLUS_MAX:g}]")
    if not c_minus >= 1.0:  # false for nan too
        raise ValueError(f"c_minus must be at least 1, got {c_minus!r}")
    theta_star = 1.0 / math.sqrt(c_plus * c_minus)
    spectrum = _walk_spectrum(instance)
    p0 = _zero_phase_weight(spectrum, theta_star)
    threshold = 1.0 / (2.0 * c_plus)
    verdict = "positive" if p0 >= threshold else "negative"
    sides = instance.structure.sides
    return Decision(verdict=verdict, p0=p0, threshold=threshold,
                    theta_star=theta_star, dim=instance.dim,
                    dim_decided=spectrum.dim, rank_a=sides["A"].shape[1],
                    rank_b=sides["B"].shape[1], min_angle=spectrum.min_angle)


@dataclass(frozen=True)
class RegimePair:
    """One weight regime of the marked/empty experiment, with decide's constants.

    The empty side reuses the marked side's promise parameters mu and k.
    c_plus is the positive witness's squared norm (its overlap with psi0 is
    1), capped at 6 in regime ii-c and 8 otherwise; c_minus is the larger
    of the negative witness's closed-form norm, c_plus and 1.  decide
    receives c_plus_decide, c_plus clamped to C_PLUS_MAX.  built holds the
    marked and empty instances; regime_pairs ties each side's instances
    of every regime into one InstanceStack.
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
    built: dict[str, PEInstance]

    @property
    def c_plus_decide(self) -> float:
        return min(self.c_plus, C_PLUS_MAX)

    def instances(self) -> dict[str, PEInstance]:
        return dict(self.built)

    def decide(self) -> dict[str, Decision]:
        """Both sides' decisions; marked should be positive, empty negative."""
        return {label: decide(instance, c_minus=self.c_minus,
                              c_plus=self.c_plus_decide)
                for label, instance in self.built.items()}


def regime_pairs(marked: SubroutineSpec, empty: SubroutineSpec,
                 regimes) -> list[RegimePair]:
    """The regime experiment on a (marked, all-unmarked) subroutine pair.

    Each side's stopping moments are computed once for all regimes.  Each
    regime's instances are built one by one, and each side's instances of
    every regime, which share their spec's structure, are tied into one
    InstanceStack, so the first decision on a side takes the spectra of
    all its regimes in one pass.
    """
    t_max = marked.num_steps
    moments_m = subs_mod.stopping_moments(marked)
    moments_e = subs_mod.stopping_moments(empty)
    build = inst_mod.build_general_instance
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
            c_minus=max(neg.closed_norm_sq, c_plus, 1.0),
            built={"marked": build(marked, w_pos), "empty": build(empty, w_neg)}))
    if pairs:
        for label in ("marked", "empty"):
            InstanceStack([pair.built[label] for pair in pairs])
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
    _check_unit_psi0(part.psi0, instance.row)
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
