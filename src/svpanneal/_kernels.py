"""Hot loops for the sweep propagator and the annealing sampler.

The sweep propagator is vectorized numpy on a tensor product of small
per-qudit local spaces (the qudit sector of ``spectrum.ProblemDiagonal``),
in the computational basis: per substep one GEMM per qudit axis between two
state buffers, then one multiply by the problem phase.
The sampler is vectorized numpy over reads, one seeded anneal per read,
bit-identical to updating one spin of one read at a time.
"""
from __future__ import annotations

import numpy as np

# no kernel uses numba; perfbench/run.py records this flag as provenance
HAVE_NUMBA = False

# Yoshida composition: three symmetric second-order substeps give a
# fourth-order step
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = 1.0 - 2.0 * _W1
# entries per table of phase factors or propagators (1 MiB of complex)
_PHASE_BLOCK = 1 << 16
# sweeps per refill of the sampler's per-read buffers of uniform draws
_DRAW_BLOCK = 16


def _substeps(h0, T, windows):
    """(theta, phi) of every Strang substep in order, three Yoshida substeps
    per window: the driver half-step applies exp(i theta sum sigma_x), the
    problem step exp(-i phi diag)."""
    dt = T / windows
    t = np.arange(windows) * dt
    t0 = np.stack([t, t + _W1 * dt, t + (_W1 + _W0) * dt], axis=1).reshape(-1)
    sub = np.tile([_W1 * dt, _W0 * dt, _W1 * dt], windows)
    s_frac = (t0 + 0.5 * sub) / T
    theta = h0 * (1.0 - s_frac) * sub / 2.0
    return theta, sub * s_frac


def _each_qudit(a: np.ndarray, b: np.ndarray, u: np.ndarray, n_axes: int):
    """Apply the symmetric d x d matrix u along every axis of the flat
    tensor a, one GEMM per axis into the other buffer; returns the pair
    (result, spare).  Each GEMM moves the axis it applies to from first to
    last, so after ``n_axes`` of them the axes are back in order."""
    d = u.shape[0]
    for _ in range(n_axes):
        np.matmul(a.reshape(d, -1).T, u, out=b.reshape(-1, d))
        a, b = b, a
    return a, b


def yoshida_sweep_sector(psi, energies, inverse, local, h0, T, windows):
    """Propagate psi through the linear sweep with `windows` fourth-order
    splitting steps on a tensor product of local spaces; returns the final
    state.  psi has shape (d,) * N, one axis per qudit, and every qudit's
    transverse field is the real symmetric d x d matrix ``local``.  The
    problem energy of flat state i is energies[inverse[i]], as
    ``np.unique(values, return_inverse=True)`` gives them.  A C-contiguous
    complex128 psi is the first state buffer and is overwritten; any other
    is copied to one.

    The state stays in the computational basis.  Adjacent driver half-steps
    merge into one angle alpha_k, so a substep is the complex symmetric
    driver propagator U_k = vec diag(exp(i alpha_k lam)) vec^T along every
    qudit axis, then the problem phase exp(-i phi_k E), taken over the
    distinct energies only.  Both are tabulated for a block of substeps at
    a time.  ``dynamics.evolve`` starts psi in the driver ground state,
    whose measurement distribution is uniform over spin configurations:
    ``experiments.baseline`` reads its figures off that start distribution.
    """
    n_axes = psi.ndim
    lam, vec = np.linalg.eigh(local)
    d = lam.size
    theta, phi = _substeps(h0, T, windows)
    # driver angle before each problem step, then the closing half-step
    alpha = np.append(theta, 0.0)
    alpha[1:] += theta
    a = np.asarray(psi, dtype=np.complex128).reshape(-1)
    b = np.empty_like(a)
    # a block's tables hold at most _PHASE_BLOCK entries each, or one substep's
    block = max(1, _PHASE_BLOCK // max(a.size, d * d))
    prob = np.empty((block, a.size), np.complex128)
    for k in range(0, phi.size, block):
        ph = phi[k:k + block]
        drv = np.exp(1j * np.multiply.outer(alpha[k:k + ph.size], lam))
        props = np.matmul(vec * drv[:, None, :], vec.T)
        # mode="clip" writes straight into out (indices are in range)
        np.take(np.exp(-1j * np.multiply.outer(ph, energies)),
                inverse, axis=1, out=prob[:ph.size], mode="clip")
        for u, p_ph in zip(props, prob):
            a, b = _each_qudit(a, b, u, n_axes)
            a *= p_ph
    closing = (vec * np.exp(1j * alpha[-1] * lam)) @ vec.T
    return _each_qudit(a, b, closing, n_axes)[0].reshape(psi.shape)


def _independent_runs(nbr_ptr, nbr_idx):
    """Bounds (a, b) of the maximal runs of consecutive slots a..b-1 with no
    edge among them, in slot order (on Chimera, whole cell halves)."""
    n = nbr_ptr.size - 1
    starts = [0] if n else []
    for i in range(1, n):
        nbrs = nbr_idx[nbr_ptr[i]:nbr_ptr[i + 1]]
        if ((nbrs >= starts[-1]) & (nbrs < i)).any():
            starts.append(i)
    return list(zip(starts, starts[1:] + [n]))


def metropolis_reads(nbr_ptr, nbr_idx, nbr_val, h, betas, reads, seeds):
    """Temperature-scheduled single-spin-flip Metropolis; one independent
    anneal per read, seeded per read.  Returns (reads, n) int8 spins.

    Reads share an array axis but each keeps its own ``RandomState`` and
    consumes it exactly as a one-spin-at-a-time loop would: n uniforms for
    the start state, then one uniform per update whose energy change is
    positive.  A run of slots with no edge among them updates at once, the
    draws handed out in slot order, and every field is summed neighbour by
    neighbour in CSR order, so the spins are bit-identical to that loop.
    """
    n = h.size
    rngs = [np.random.RandomState(seed) for seed in seeds[:reads]]
    # one column per read, plus a row of ones that carries the fields
    s = np.ones((n + 1, reads))
    for r, rng in enumerate(rngs):
        s[:n, r] = np.where(rng.random_sample(n) < 0.5, 1.0, -1.0)

    # padded neighbour table: term 0 is h times the row of ones, padding
    # adds 0.0, which leaves every sign and every nonzero field unchanged
    deg = np.diff(nbr_ptr)
    width = int(deg.max(initial=0)) + 1
    row = np.repeat(np.arange(n), deg)
    col = np.arange(nbr_idx.size) - np.repeat(nbr_ptr[:-1], deg) + 1
    tab_idx = np.full((n, width), n)
    tab_val = np.zeros((n, width))
    tab_idx[row, col] = nbr_idx
    tab_val[row, col] = nbr_val
    tab_val[:, 0] = h
    runs = []
    for a, b in _independent_runs(nbr_ptr, nbr_idx):
        w = int(deg[a:b].max()) + 1
        runs.append((a, b, tab_idx[a:b, :w].T, tab_val[a:b, :w].T[:, :, None]))

    # each read's unused uniforms, refilled before every block of sweeps
    # with as many as the block can consume at most
    cap = n * _DRAW_BLOCK
    draws = np.empty((reads, cap))
    flat = draws.reshape(-1)
    base = np.arange(reads) * cap
    used = np.full(reads, cap)
    for start in range(0, len(betas), _DRAW_BLOCK):
        for r, rng in enumerate(rngs):
            k = used[r]
            draws[r, :cap - k] = draws[r, k:]
            draws[r, cap - k:] = rng.random_sample(k)
        nxt = base.copy()
        for beta in betas[start:start + _DRAW_BLOCK]:
            for a, b, idx, val in runs:
                terms = s[idx]
                terms *= val
                field = terms[0]
                for t in terms[1:]:
                    field += t
                spin = s[a:b]
                d_e = -2.0 * spin * field
                up = d_e > 0.0
                taken = up.cumsum(axis=0)
                u = flat[nxt + taken - up]
                nxt += taken[-1]
                flip = ~up | (u < np.exp(-beta * np.maximum(d_e, 0.0)))
                np.negative(spin, out=spin, where=flip)
        used = nxt - base
    return s[:n].T.astype(np.int8, order="C")
