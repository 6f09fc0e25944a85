"""Shared fixtures and helpers for the test suite."""

import math
from typing import NamedTuple

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from vtsearch import (DEFAULT_TOL, NonUnitaryError, SpectralDecomposition,
                      cluster_phases, projector_from_set, qpe_kernel,
                      reflection, subroutine_pair,
                      unitarity_residual, unitary_eig)
from vtsearch import bounds
from vtsearch.linalg import check_dim
from vtsearch import phase
from vtsearch.phase import WalkSpectrum, _rotation_blocks
from vtsearch.subroutines import BlockSchedule, StoppingProfile, SubroutineSpec
from vtsearch.instances import (GeneralBasis, NegativeWitness, PositiveWitness,
                                SimpleBasis, _dense, _read_only, _sum_by, stacked_rmatvec)


def span_residual(generators, vec):
    """Distance from vec to the span of a list of generators (least squares)."""
    m = np.stack([np.asarray(g, dtype=complex) for g in generators], axis=1)
    coef, *_ = np.linalg.lstsq(m, np.asarray(vec, dtype=complex), rcond=None)
    return float(np.linalg.norm(vec - m @ coef))


def dense_unitary_eig(u):
    """Oracle: spectral decomposition of one d x d unitary by complex Schur.

    For a normal matrix the Schur form is diagonal up to roundoff and the
    Schur basis is exactly orthonormal.  Checks the dimension cap, and
    raises NonUnitaryError when the unitarity or reconstruction residual
    exceeds assert_tol, as the library's closed-form stack path does.
    """
    u = np.asarray(u, dtype=complex)
    check_dim(u.shape[-1])
    if unitarity_residual(u) > DEFAULT_TOL.assert_tol:
        raise NonUnitaryError("input matrix is not unitary within tolerance")
    t, q = scipy.linalg.schur(u, output="complex")
    phases = np.angle(np.diagonal(t))
    dec = SpectralDecomposition(phases=np.where(phases <= -np.pi + 1e-300,
                                                np.pi, phases), vectors=q)
    resid = float(np.max(np.abs(dec.reconstruct() - u), initial=0.0))
    if resid > DEFAULT_TOL.assert_tol:
        raise NonUnitaryError(f"spectral reconstruction residual {resid:.3e} too large")
    return dec


def dense_walk_spectrum(instance):
    """Oracle: Schur decomposition of the full d x d walk.

    Returns every eigenphase with the squared overlap of psi0 on its
    eigenvector; the library's decision engine never builds this walk.
    """
    dec = dense_unitary_eig(instance.walk_unitary())
    return dec.phases, np.abs(dec.vectors.conj().T @ instance.psi0) ** 2


def reflect(q, qh, x):
    """The reflection 2 Q Q^H - I applied to the columns of x; qh is Q^H."""
    return 2.0 * q @ (qh @ x) - x


def reflected_compressions(instance, u, w):
    """Oracle: W's 2 x 2 compression on each plane span{u[:, j], w[:, j]}.

    Both reflections are applied to every plane as dense d x k products of
    the instance's span bases, so no closed form is assumed.
    """
    qa, qb = instance.span_basis("A"), instance.span_basis("B")
    planes = np.stack([u, w], axis=-1)
    dim, count = planes.shape[0], planes.shape[1]
    walked = reflect(qa, qa.conj().T,
                     reflect(qb, qb.conj().T, planes.reshape(dim, 2 * count)))
    # (count, 2, dim) @ (count, dim, 2)
    return (planes.transpose(1, 2, 0).conj()
            @ walked.reshape(dim, count, 2).transpose(1, 0, 2))


class CrossPlan(NamedTuple):
    """Where the cross Gram G_A^H G_B comes from: the entry pairs on a shared label.

    Pair p is side A's entry left[p] and side B's entry right[p], on the
    same basis label; its product conj(a[left[p]]) * b[right[p]] adds to
    the flat k_A x k_B entry flat[p], in array order.
    """

    left: np.ndarray
    right: np.ndarray
    flat: np.ndarray


def cross_plan(structure):
    """The pairs of an A entry and a B entry of a structure that share a label.

    Side A's entries are taken in storage order, each paired with every
    B entry on its label, in B's storage order; generator i's labels
    ascend, so each cross Gram entry sums its labels in ascending order.
    """
    a, b = structure.sides["A"], structure.sides["B"]
    per_row = np.bincount(b.rows, minlength=structure.dim)
    by_row = np.argsort(b.rows, kind="stable")
    counts = per_row[a.rows]
    left = np.repeat(np.arange(len(a.rows)), counts)
    starts = np.cumsum(per_row) - per_row
    # offset of each pair within its label's run of B entries
    offset = np.arange(len(left)) - np.repeat(np.cumsum(counts) - counts, counts)
    right = by_row[np.repeat(starts[a.rows], counts) + offset]
    return CrossPlan(*map(_read_only, (left, right, a.cols[left] * b.shape[1] + b.cols[right])))


def cross_gram(structure, qa, qb):
    """Q_A^H Q_B of rows of normalized generator values qa, qb: (m, k_A, k_B).

    Summed from the entry pairs that share a label (cross_plan), with one
    bincount over the flat entries: every other pair of generators is
    orthogonal by support.
    """
    plan = cross_plan(structure)
    k_a, k_b = (structure.sides[s].shape[1] for s in ("A", "B"))
    products = qa.take(plan.left, axis=1).conj() * qb.take(plan.right, axis=1)
    return _sum_by(plan.flat, products, k_a * k_b).reshape(len(qa), k_a, k_b)


def stacked_matmat(sparsity, values, x):
    """G_s X_s for every row s: values (m, nnz) on sparsity, x (m, k, r), an (m, d, r) array.

    Each output row sums its label's entries in storage order, one slot at
    a time (slot s holds each label's s-th entry), with no BLAS call.
    """
    order = np.argsort(sparsity.rows, kind="stable")
    rows = sparsity.rows[order]
    index = np.arange(len(rows))
    # an entry's slot is its distance from its label's first entry
    slot = index - np.maximum.accumulate(np.where(np.diff(rows, prepend=-1) != 0, index, 0))
    m, width = len(values), x.shape[-1]
    out = np.zeros((m, sparsity.dim, width), dtype=np.result_type(values, x))
    flat = out.reshape(-1, width)
    shift = sparsity.dim * np.arange(m)[:, None]
    for s in range(int(slot.max(initial=-1)) + 1):
        entries = order[slot == s]
        product = values.take(entries, axis=1)[..., None] * x.take(sparsity.cols[entries], axis=1)
        flat[(sparsity.rows[entries] + shift).ravel()] += product.reshape(-1, width)
    return out


def star_block_compressions(instance):
    """Oracle: W0's 2 x 2 compression on each rotation plane of the star's blocks.

    Block by block (the engine's choice: the star or one block), pattern
    by pattern, as the engine hands the planes of a lone instance to
    unitary_eig, once for a pattern whose blocks all
    hold the same values: the planes
    are rebuilt on the block's
    dense normalized generators from the SVD of the engine's block cross
    Gram, and R_A' R_B is applied to them as dense products, so no
    closed form is assumed.
    """
    part = instance.psi0_component()
    rows = part.rows()
    qa, qb = rows.normalized("A")[0], rows.normalized("B")[0]
    star = phase._star_of(part.structure)
    # the vector whose weights the blocks give: the hub generator, or psi0
    x = part.psi0
    if star.hub is not None:
        a = part.structure.sides["A"]
        hub = slice(a.indptr[star.hub], a.indptr[star.hub + 1])
        x = np.zeros(part.dim, dtype=qa.dtype)
        x[a.rows[hub]] = qa[hub]
    out = [np.zeros((0, 2, 2))]
    for pattern in star.patterns:
        sides = pattern.structure.sides
        blocks = list(zip(pattern.rows, pattern.entries["A"], pattern.entries["B"]))
        keys = {tuple(np.asarray(v).tobytes() for v in (x[r], qa[a], qb[b]))
                for r, a, b in blocks}
        # a pattern whose blocks all hold the same values is decided once
        for block_rows, entries_a, entries_b in blocks[:1] if len(keys) == 1 else blocks:
            da = _dense(sides["A"], qa[entries_a])
            db = _dense(sides["B"], qb[entries_b])
            u, cos, vh = np.linalg.svd(cross_gram(pattern.structure, qa[entries_a][None],
                                                  qb[entries_b][None])[0],
                                       full_matrices=False)
            ua = da @ u
            perp = db @ vh.conj().T - ua * cos
            sin = np.linalg.norm(perp, axis=0)
            rot = sin > DEFAULT_TOL.rank_tol
            planes = np.stack([ua[:, rot], perp[:, rot] / sin[rot]], axis=-1)
            size, count = planes.shape[0], planes.shape[1]
            walked = reflect(da, da.conj().T,
                             reflect(db, db.conj().T, planes.reshape(size, 2 * count)))
            out.append(planes.transpose(1, 2, 0).conj()
                       @ walked.reshape(size, count, 2).transpose(1, 0, 2))
    return np.concatenate(out)


def reflected_walk_spectrum(instance):
    """Oracle: the principal-angle engine on dense span bases.

    The thin SVD of the dense d-length product Q_A^H Q_B pairs the
    planes, every plane vector and overlap is a dense d x k product, and
    unitary_eig decomposes W's compression on each plane, computed with
    dense reflections (reflected_compressions) rather than in closed form.
    Returns a WalkSpectrum laid out as the library's; the library decides
    from the sparse generators instead.
    """
    instance = instance.psi0_component()
    qa, qb = instance.span_basis("A"), instance.span_basis("B")
    qah, qbh = qa.conj().T, qb.conj().T
    u, cos, vh = np.linalg.svd(qah @ qb, full_matrices=False)
    v = vh.conj().T
    ua = qa @ u
    perp = qb @ v - ua * cos
    sin = np.linalg.norm(perp, axis=0)
    rot = sin > DEFAULT_TOL.rank_tol
    w = perp[:, rot] / sin[rot]

    psi0 = instance.psi0
    psi0h = psi0.conj()
    pa, pb = (psi0h @ qa).conj(), (psi0h @ qb).conj()
    ca, cw = u.conj().T @ pa, (psi0h @ w).conj()
    ra, rb = pa - u @ ca, pb - v @ (vh @ pb)
    outside = float(np.linalg.norm(psi0 - qa @ pa - w @ cw - qb @ rb) ** 2)

    coeffs = np.stack([ca[rot], cw], axis=-1)
    dec = unitary_eig(reflected_compressions(instance, ua[:, rot], w))
    weights = np.abs(np.einsum("kij,ki->kj", dec.vectors.conj(), coeffs)) ** 2

    lines = np.abs(ca[~rot]) ** 2
    unpaired = [np.linalg.norm(ra) ** 2, np.linalg.norm(rb) ** 2]
    angles = np.arctan2(sin[rot], cos[rot])
    return WalkSpectrum(
        phases=np.concatenate([dec.phases.ravel(), np.zeros(len(lines)),
                               [np.pi, np.pi, 0.0]]),
        weights=np.concatenate([weights.ravel(), lines, unpaired, [outside]]),
        dim=instance.dim, rank_a=qa.shape[1], rank_b=qb.shape[1],
        min_angle=float(angles.min()) if len(angles) else None)


def principal_angle_spectrum(instance):
    """Oracle: the principal-angle engine on psi0's whole component, sparse.

    The library's engine before it decided on the star: the cross Gram
    Q_A^H Q_B of the whole component, summed from the entry pairs that
    share a label, one thin SVD of it, the plane vectors as sparse
    products, each plane's rotation in closed form and psi0's weight on
    every phase, with no hub and no secular equation.  Its SVD is of the
    whole k_A x k_B cross Gram, so it is cubic in n.  Returns a
    WalkSpectrum whose min_angle is the smallest principal angle of the
    rotation planes.
    """
    part = instance.rows().component()
    psi0 = part.psi0
    sa, sb = part.structure.sides["A"], part.structure.sides["B"]
    qa, qb = part.normalized("A"), part.normalized("B")
    c = cross_gram(part.structure, qa, qb)
    u, cos, vh = np.linalg.svd(c, full_matrices=False)
    v = vh.conj().swapaxes(1, 2)
    scaled = cos[:, None, :]
    resid = max(np.abs(c @ v - u * scaled).max(initial=0.0),
                np.abs(c.conj().swapaxes(1, 2) @ u - v * scaled).max(initial=0.0))
    assert resid <= DEFAULT_TOL.assert_tol
    pa, pb = stacked_rmatvec(sa, qa, psi0), stacked_rmatvec(sb, qb, psi0)
    ca = (pa.conj()[:, None] @ u)[:, 0].conj()
    cb = (vh @ pb[..., None])[..., 0]
    ra = pa - (u @ ca[..., None])[..., 0]
    rb = pb - (v @ cb[..., None])[..., 0]
    on_b = stacked_matmat(sb, qb, np.concatenate([v, rb[..., None]], axis=2))
    on_a = stacked_matmat(sa, qa, np.concatenate([u * scaled, pa[..., None]], axis=2))
    perp = on_b[..., :-1] - on_a[..., :-1]
    sin = np.linalg.norm(perp, axis=1)
    rot = sin > DEFAULT_TOL.rank_tol
    cw = (cb - cos * ca)[rot] / sin[rot]
    x = np.zeros(cos.shape, dtype=cw.dtype)
    x[rot] = cw / sin[rot]
    outside = psi0 - on_a[..., -1] - (perp @ x[..., None])[..., 0] - on_b[..., -1]
    angles = np.arctan2(sin[rot], cos[rot])
    dec = unitary_eig(_rotation_blocks(angles))
    coeffs = np.stack([ca[rot], cw], axis=-1)
    weights = np.abs(np.einsum("kij,ki->kj", dec.vectors.conj(), coeffs)) ** 2
    return WalkSpectrum(
        phases=np.concatenate([dec.phases.ravel(), np.zeros(int(np.sum(~rot))),
                               [np.pi, np.pi, 0.0]]),
        weights=np.concatenate([weights.ravel(), np.abs(ca[~rot]) ** 2,
                                [np.linalg.norm(ra) ** 2, np.linalg.norm(rb) ** 2,
                                 np.linalg.norm(outside) ** 2]]),
        dim=part.structure.dim, rank_a=sa.shape[1], rank_b=sb.shape[1],
        min_angle=float(angles.min()) if len(angles) else None)


def dense_zero_phase_overlap(spectrum, theta_star):
    """Oracle p0: weight on eigenphase clusters of magnitude <= theta_star."""
    phases, weights = spectrum
    cluster_tol = DEFAULT_TOL.eig_cluster_tol
    return sum(float(np.sum(weights[c]))
               for c in cluster_phases(phases, cluster_tol)
               if abs(float(np.mean(phases[c]))) <= theta_star + cluster_tol)


def dense_qpe_zero_prediction(spectrum, bits):
    """Oracle Pr[register = 0] from the leakage kernel."""
    phases, weights = spectrum
    return float(sum(w * qpe_kernel(th, bits) for th, w in zip(phases, weights)))


def dense_qpe_distribution(instance, bits):
    """Oracle phase-register distribution from the full d x d walk."""
    m = 1 << bits
    u = instance.walk_unitary()
    states = [np.asarray(instance.psi0, dtype=complex)]
    for _ in range(m - 1):
        states.append(u @ states[-1])
    return np.sum(np.abs(np.fft.fft(np.array(states), axis=0) / m) ** 2, axis=1)


def dense_reflection_factorization_residual(instance):
    """Oracle: each side's reflection against the product of its set reflections.

    Uses the subspace-negating convention D = I - 2P, for which orthogonal
    generator groups compose multiplicatively: prod_k (I - 2P_k) =
    I - 2 sum_k P_k.  Returns the largest entry of the difference over
    both sides, from one d x d SVD projector and product per set; the
    library reads the same identity off the sparse cross-set Gram.
    """
    worst = 0.0
    eye = np.eye(instance.dim, dtype=complex)
    for side in ("A", "B"):
        product = eye
        for name in instance.structure.sets[side]:
            p = projector_from_set(instance.set_vectors(side, name),
                                   dim=instance.dim)
            product = product @ (-reflection(p))
        direct = -reflection(instance.projector(side))
        worst = max(worst, float(np.max(np.abs(direct - product))))
    return worst


def dense_simple_sets(oracle, omega):
    """Oracle: the simple instance's generator sets, one dense vector each.

    (a_sets, b_sets) as dicts of vector lists, built label by label; the
    library assembles the same sets as sparse matrices from index arrays.
    """
    n = oracle.size
    e = SimpleBasis(n).unit
    launch = e("src", 0, 0)
    for i in range(1, n + 1):
        launch -= math.sqrt(omega / n) * e("qry", i, 0)
    query = [e("qry", i, 0) - e("ret", i, 1 if (i - 1) in oracle.marked else 0)
             for i in range(1, n + 1)]
    check = [e("ret", i, b) - e("chk", i, b)
             for i in range(1, n + 1) for b in (0, 1)]
    absorb = [e("chk", i, 0) for i in range(1, n + 1)
              if (i - 1) not in oracle.marked]
    return ({"launch": [launch], "check": check},
            {"query": query, "absorb": absorb})


def dense_general_sets(spec, weights, store=lambda vec: vec):
    """Oracle: the general instance's generator sets, one dense vector each.

    Each vector is built dense and kept as store(vec), so a caller can
    keep only its nonzeros where all of them at once would not fit in
    memory.
    """
    n = spec.num_inputs
    basis = GeneralBasis.for_spec(spec)
    alpha = weights.alpha
    w = spec.workspace_size
    t_max = spec.num_steps
    e = basis.unit

    launch = e("src", 0, 0)
    for i in range(1, n + 1):
        launch -= math.sqrt(weights.omega[i - 1] / n) * e("src", i, 0)
    forward = [e("src", i, b, a) - e("fwd", i, b, a)
               for i in range(1, n + 1) for b in (0, 1) for a in (0, 1)]
    backward = [e("bwd", i, b, a) - e("ret", i, b, a)
                for i in range(1, n + 1) for b in (0, 1) for a in (0, 1)]
    check = [e("ret", i, b, a) - e("chk", i, b, a)
             for i in range(1, n + 1) for b in (0, 1) for a in (0, 1)]
    absorb = [e("chk", i, 0, a) for i in range(1, n + 1)
              if spec.outputs[i - 1] == 0 for a in (0, 1)]

    even, odd = [], []
    for j in range(n):
        i = j + 1
        for t in range(t_max):
            halted = {z for cell in spec.partition[:t] for z in cell}
            active = [z for z in range(w) if z not in halted]
            u_next = spec.unitaries[j, t]
            bucket = even if t % 2 == 0 else odd
            for tag in ("fwd", "bwd"):
                for b in (0, 1):
                    there = basis.az_indices(tag, i, b, t + 1)
                    for a in (0, 1):
                        for z in active:
                            vec = np.zeros(basis.dim, dtype=complex)
                            vec[basis.index(tag, i, b, a, z, t)] = math.sqrt(alpha[t])
                            vec[there] -= math.sqrt(alpha[t + 1]) * u_next[:, a * w + z]
                            bucket.append(store(vec))
        for t in range(1, t_max + 1):
            cell = spec.partition[t - 1]
            bucket = even if t % 2 == 0 else odd
            for a in (0, 1):
                for b in (0, 1):
                    for z in cell:
                        vec = np.zeros(basis.dim, dtype=complex)
                        vec[basis.index("fwd", i, b, a, z, t)] = 1.0
                        vec[basis.index("bwd", i, b ^ a, a, z, t)] = -1.0
                        bucket.append(store(vec))
    return ({"launch": [store(launch)], "even": even,
             "check": [store(v) for v in check]},
            {"forward": [store(v) for v in forward], "odd": odd,
             "backward": [store(v) for v in backward],
             "absorb": [store(v) for v in absorb]})


def dense_simple_witnesses(oracle, omega):
    """Oracle: simple_witnesses summed label by label from dense unit vectors."""
    n = oracle.size
    basis = SimpleBasis(n)

    e = basis.unit

    if oracle.marked:
        m_count = len(oracle.marked)
        w = e("src", 0, 0)
        for j in sorted(oracle.marked):
            i = j + 1
            w += (1.0 / m_count) * math.sqrt(n / omega) * (
                e("qry", i, 0) + e("ret", i, 1) + e("chk", i, 1))
        return PositiveWitness(vector=w,
                               closed_norm_sq=1.0 + 3.0 * n / (m_count * omega))

    w_a = e("src", 0, 0)
    for i in range(1, n + 1):
        c = math.sqrt(omega / n)
        w_a += c * (-e("qry", i, 0) + e("ret", i, 0) - e("chk", i, 0))
    w_b = e("src", 0, 0) - w_a
    return NegativeWitness(w_a=w_a, w_b=w_b, closed_norm_sq=1.0 + 3.0 * omega)


def expected_sum(profile, weights):
    """Oracle E[sum_{t=0}^{T} weights[t]] from a stopping profile's cdf.

    P[T >= t] is 1 for t <= 1 and 1 - cdf[t - 2] after; Python's sum adds
    the terms one at a time, in t order.
    """
    survival = [1.0, 1.0] + [1.0 - c for c in profile.cdf[:-1]]
    return float(sum(w * s for w, s in zip(weights, survival)))


def dense_inner_history(spec, i):
    """Oracle: input i's history by the projected recurrence, one step at a time.

    Zeroes the part halted by step t - 1 before applying U_t; the library
    reads the same states off spec.trajectory instead.
    """
    states = [spec.initial_state()]
    for t in range(1, spec.num_steps + 1):
        prev = states[-1].copy()
        mask = spec.halted_mask(t - 1)
        prev[mask] = 0.0
        states.append(spec.unitaries[i, t - 1] @ prev)
    return states


def _dense_history_states(spec, i, alpha):
    """Oracle: input i's (w_plus, w_minus, norm_plus, norm_minus), dense d-vectors.

    Summed label by label into fresh d-length vectors; the closed norms
    come from a per-input profile, not from the spec's stacked table.
    """
    alpha = np.asarray(alpha, dtype=float)
    basis = GeneralBasis.for_spec(spec)
    fi = spec.outputs[i]
    inner = dense_inner_history(spec, i)
    profile = per_input_profile(spec, i)

    w_plus = np.zeros(basis.dim, dtype=complex)
    w_minus = np.zeros(basis.dim, dtype=complex)
    for t, state in enumerate(inner):
        fwd = basis.az_indices("fwd", i + 1, 0, t)
        bwd = basis.az_indices("bwd", i + 1, fi, t)
        w_plus[fwd] += state / math.sqrt(alpha[t])
        w_plus[bwd] += state / math.sqrt(alpha[t])
        signed = (-1.0) ** t * math.sqrt(alpha[t]) * state
        w_minus[fwd] += signed
        w_minus[bwd] -= signed

    norm_plus = 2.0 * expected_sum(profile, 1.0 / alpha)
    norm_minus = 2.0 * expected_sum(profile, alpha)
    return w_plus, w_minus, norm_plus, norm_minus


def dense_general_witnesses(spec, weights):
    """Oracle: the general witness of spec, summed from dense history states.

    Positive (from the marked inputs' forward histories) when spec marks
    an input, negative (from every input's rewind history) otherwise.
    The closed norm is math.fsum of one term per input.
    """
    basis = GeneralBasis.for_spec(spec)
    n = spec.num_inputs
    marked = [j for j, b in enumerate(spec.outputs) if b == 1]
    if marked:
        vec = np.zeros(basis.dim, dtype=complex)
        vec[basis.index("src", 0, 0, 0, 0, 0)] = 1.0
        terms = [1.0]
        for j in marked:
            i = j + 1
            coef = math.sqrt(n) * math.sqrt(weights.beta[j]) / math.sqrt(weights.omega[j])
            w_plus, _, norm_plus, _ = _dense_history_states(spec, j, weights.alpha)
            vec[basis.index("src", i, 0, 0, 0, 0)] += coef
            vec += coef * w_plus
            vec[basis.index("ret", i, 1, 0, 0, 0)] += coef
            vec[basis.index("chk", i, 1, 0, 0, 0)] += coef
            terms.append(n * weights.beta[j] / weights.omega[j] * (2.0 + norm_plus + 1.0))
        return PositiveWitness(vector=vec, closed_norm_sq=math.fsum(terms))

    w_a = np.zeros(basis.dim, dtype=complex)
    psi0_idx = basis.index("src", 0, 0, 0, 0, 0)
    w_a[psi0_idx] = 1.0
    terms = [1.0]
    for j in range(n):
        i = j + 1
        coef = math.sqrt(weights.omega[j] / n)
        _, w_minus, _, norm_minus = _dense_history_states(spec, j, weights.alpha)
        w_a[basis.index("src", i, 0, 0, 0, 0)] -= coef
        w_a += coef * w_minus
        w_a[basis.index("ret", i, 0, 0, 0, 0)] += coef
        w_a[basis.index("chk", i, 0, 0, 0, 0)] -= coef
        terms.append(weights.omega[j] / n * (2.0 + norm_minus + 1.0))
    w_b = -w_a
    w_b[psi0_idx] += 1.0
    return NegativeWitness(w_a=w_a, w_b=w_b, closed_norm_sq=math.fsum(terms))


def scipy_haar(rng, dim):
    """One Haar unitary from scipy's own sampler, on the given generator."""
    return scipy.stats.unitary_group.rvs(dim, random_state=rng)


def loop_random_subroutine(seed, num_inputs, num_steps, workspace_size,
                           halting_fractions=None, marked=(), haar=scipy_haar):
    """Oracle: random_subroutine drawn one (step, input) pair at a time.

    One haar(rng, k) draw or one rng.random() phase per input per step,
    then np.kron(np.eye(2), w) and a dense answer flip per marked input;
    the library draws each step once for all inputs.
    """
    rng = np.random.default_rng(seed)
    if halting_fractions is None:
        weights = rng.random(num_steps)
        halting_fractions = weights / weights.sum()
    halting_fractions = np.asarray(halting_fractions, dtype=float)
    counts = np.floor(halting_fractions * workspace_size).astype(int)
    counts[-1] += workspace_size - int(counts.sum())
    partition = []
    nxt = 0
    for c in counts:
        partition.append(tuple(range(nxt, nxt + int(c))))
        nxt += int(c)
    outputs = tuple(1 if i in set(marked) else 0 for i in range(num_inputs))

    dim = 2 * workspace_size
    us = np.zeros((num_inputs, num_steps, dim, dim), dtype=complex)
    cum = 0
    for t in range(num_steps):
        active = list(range(cum, workspace_size))   # labels not yet halted
        cell = partition[t]
        cum += len(cell)
        for i in range(num_inputs):
            w = np.eye(workspace_size, dtype=complex)
            if len(active) > 1:
                w[np.ix_(active, active)] = haar(rng, len(active))
            elif len(active) == 1:
                w[active[0], active[0]] = np.exp(2j * np.pi * rng.random())
            u = np.kron(np.eye(2), w)
            if outputs[i] == 1 and cell:
                flip = np.eye(dim, dtype=complex)
                for z in cell:
                    flip[z, z] = 0.0
                    flip[workspace_size + z, workspace_size + z] = 0.0
                    flip[workspace_size + z, z] = 1.0
                    flip[z, workspace_size + z] = 1.0
                u = flip @ u
            us[i, t] = u
    return SubroutineSpec(num_inputs=num_inputs, num_steps=num_steps,
                          workspace_size=workspace_size,
                          partition=tuple(partition), unitaries=us,
                          outputs=outputs)


def per_input_profile(spec, i):
    """Oracle: input i's stopping profile, one step and one component at a time.

    cdf[t - 1] adds re^2 + im^2 of each halted component of input i's
    state after step t, in component order, in Python floats.  The
    library computes every input's cdf in one stacked pass per step.
    """
    states = spec.trajectory[i]
    cdf = np.zeros(spec.num_steps)
    for t in range(1, spec.num_steps + 1):
        total = 0.0
        for x in states[t][spec.halted_mask(t)].tolist():
            total += x.real * x.real + x.imag * x.imag
        cdf[t - 1] = total
    pmf = np.clip(np.diff(cdf, prepend=0.0), 0.0, None)
    return StoppingProfile(pmf=pmf, cdf=cdf)


def random_block_schedule(seed, blocks=(2, 2), zp=2, n=2, projector_rank=1):
    """Zero-error block algorithm: generic on the workspace, trivial answer.

    The steps act as identity on the answer register (so the claimed
    output bit is exact); the variable-time structure comes entirely
    from the workspace dynamics and the success measurement.
    """
    rng = np.random.default_rng(seed)
    t = sum(blocks)
    us = np.empty((n, t, 2 * zp, 2 * zp), dtype=complex)
    for i in range(n):
        for s in range(t):
            us[i, s] = np.kron(np.eye(2),
                               scipy.stats.unitary_group.rvs(zp, random_state=rng))
    if projector_rank >= zp:
        meas = np.eye(zp)
    else:
        q = np.linalg.qr(rng.normal(size=(zp, projector_rank)))[0]
        meas = q @ q.conj().T
    return BlockSchedule(block_lengths=blocks, inner_workspace_size=zp,
                         step_unitaries=us, measurement=meas)


@pytest.fixture(scope="session")
def small_pair():
    """Smallest nontrivial pair (instance dimension 504)."""
    return subroutine_pair(7, 2, 2, 2)


@pytest.fixture
def l2_above_l1(monkeypatch):
    """bounds.bound with the l2 and l1 values swapped, so l2 lies above l1."""
    true_bound = bounds.bound

    def swapped(kind, profile, promise):
        return true_bound({"l2": "l1", "l1": "l2"}.get(kind, kind), profile, promise)
    monkeypatch.setattr(bounds, "bound", swapped)
