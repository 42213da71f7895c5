"""Hot loops for the sweep propagator and the annealing sampler.

The sweep propagator is vectorized numpy on a tensor product of small
per-qudit local spaces (the qudit sector of ``spectrum.ProblemDiagonal``).  The sampler is a plain
Python loop, one seeded anneal per read.
"""
from __future__ import annotations

from functools import reduce

import numpy as np

# no kernel uses numba; perfbench/run.py records this flag as provenance
HAVE_NUMBA = False

# Yoshida composition: three symmetric second-order substeps give a
# fourth-order step
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = 1.0 - 2.0 * _W1
# phase factors the propagator tabulates at once (1 MiB per table)
_PHASE_BLOCK = 1 << 16


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


def _each_axis(x: np.ndarray, mat: np.ndarray, shapes) -> np.ndarray:
    """Apply the real d x d matrix along every axis of the flat complex
    tensor x, one broadcast matmul per axis on the interleaved real view;
    ``shapes`` holds (d**a, d, -1) for every axis a."""
    r = x.view(np.float64)
    for shape in shapes:
        r = np.matmul(mat, r.reshape(shape))
    return r.reshape(-1).view(np.complex128)


def yoshida_sweep_sector(psi, diag, local, h0, T, windows):
    """Propagate psi through the linear sweep with `windows` fourth-order
    splitting steps on a tensor product of local spaces; returns the final
    state.  psi (complex) and diag have shape (d,) * N, one axis per qudit,
    and every qudit's transverse field is the real symmetric d x d matrix
    ``local``.

    The state stays in the eigenbasis of ``local``, where the driver is
    diagonal, so adjacent driver half-steps merge into one phase; each
    problem step rotates to the computational basis and back.
    """
    n_axes = diag.ndim
    diag = diag.reshape(-1)
    d = local.shape[0]
    shapes = [(d ** a, d, -1) for a in range(n_axes)]
    lam, vec = np.linalg.eigh(local)
    lam_all = reduce(np.add.outer, [lam] * n_axes).reshape(-1)
    theta, phi = _substeps(h0, T, windows)
    # driver angle before each problem step, then the closing half-step
    alpha = np.append(theta, 0.0)
    alpha[1:] += theta
    x = _each_axis(psi.reshape(-1), vec.T, shapes)
    # phases are tabulated for a block of substeps at a time
    block = max(1, _PHASE_BLOCK // diag.size)
    for k in range(0, phi.size, block):
        drv = np.exp(1j * np.multiply.outer(alpha[k:k + block], lam_all))
        prob = np.exp(-1j * np.multiply.outer(phi[k:k + block], diag))
        for d_ph, p_ph in zip(drv, prob):
            x *= d_ph
            y = _each_axis(x, vec, shapes)
            y *= p_ph
            x = _each_axis(y, vec.T, shapes)
    x *= np.exp(1j * alpha[-1] * lam_all)
    return _each_axis(x, vec, shapes).reshape(psi.shape)


def metropolis_reads(nbr_ptr, nbr_idx, nbr_val, h, betas, reads, seeds):
    """Temperature-scheduled single-spin-flip Metropolis; one independent
    anneal per read, seeded per read."""
    n = h.size
    out = np.empty((reads, n), dtype=np.int8)
    for r in range(reads):
        rng = np.random.RandomState(seeds[r])
        s = np.where(rng.random_sample(n) < 0.5, 1, -1).astype(np.int8)
        for beta in betas:
            for i in range(n):
                field = h[i]
                for t in range(nbr_ptr[i], nbr_ptr[i + 1]):
                    field += nbr_val[t] * s[nbr_idx[t]]
                d_e = -2.0 * s[i] * field
                if d_e <= 0.0 or rng.random_sample() < np.exp(-beta * d_e):
                    s[i] = -s[i]
        out[r] = s
    return out
