"""Independent reference implementations used only to check the library.

Everything here deliberately avoids the code paths under test: lattice
membership by exact rational elimination, shortest vectors by enumerating
integer points of a ball or by scanning every point of a coefficient box,
energies by per-configuration decoding with Fractions, squared lengths straight from the Gram form (``length_sq`` for
one coefficient vector, ``exhaustive_length_table`` for every
configuration of an encoding, with no compiled coefficients involved),
spectra from explicitly assembled matrices, time evolution by a
high-resolution Runge-Kutta integrator on the dense Hamiltonian or by the
same splitting in the driver's eigenbasis, probability per squared length
by ``np.unique`` grouping, and
annealing reads by a one-spin-at-a-time Metropolis loop.  Also the test
fixtures for the emulator: a complete stand-in graph and its identity
embedding.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce

import numpy as np

from svpanneal import lattice
from svpanneal._kernels import _PHASE_BLOCK, _substeps
from svpanneal.emulator import ChimeraEmbedding, ChimeraGraph
from svpanneal.lattice import LatticeError, OracleResult, ResourceLimitError


def integral_coefficients(basis_rows, vector):
    """Solve x * B = v exactly; returns the integer coefficient tuple or
    None if v is not in the lattice of the rows."""
    n = len(basis_rows)
    # transpose: columns of B^T are the basis rows; solve B^T x^T = v^T
    aug = [[Fraction(basis_rows[i][j]) for i in range(n)] + [Fraction(vector[j])]
           for j in range(n)]
    col = 0
    pivots = []
    for row in range(n):
        piv = None
        for r in range(row, n):
            if aug[r][col] != 0:
                piv = r
                break
        while piv is None and col < n - 1:
            col += 1
            for r in range(row, n):
                if aug[r][col] != 0:
                    piv = r
                    break
        if piv is None:
            break
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [v * inv for v in aug[row]]
        for r in range(n):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[row])]
        pivots.append(col)
        col += 1
    x = [aug[i][n] for i in range(n)]
    if any(v.denominator != 1 for v in x):
        return None
    return tuple(int(v) for v in x)


def shortest_by_ball(hnf_rows):
    """lambda1^2 of the lattice generated by upper-triangular rows, found by
    enumerating every integer point inside the Minkowski ball and keeping
    the lattice members (membership by exact back-substitution)."""
    n = len(hnf_rows)
    d = 1
    for i in range(n):
        d *= hnf_rows[i][i]
    r2 = math.floor(n * d ** (2.0 / n) + 1e-9)
    r = math.isqrt(r2)
    best = None
    point = [0] * n

    def member(v):
        x = [0] * n
        rem = list(v)
        for i in range(n - 1, -1, -1):
            piv = hnf_rows[i][i]
            if rem[i] % piv:
                return False
            x[i] = rem[i] // piv
            for j in range(n):
                rem[j] -= x[i] * hnf_rows[i][j]
        return all(c == 0 for c in rem)

    def rec(i, norm_sq):
        nonlocal best
        if norm_sq > r2:
            return
        if i == n:
            if norm_sq > 0 and member(point) and (best is None or norm_sq < best):
                best = norm_sq
            return
        for v in range(-r, r + 1):
            point[i] = v
            rec(i + 1, norm_sq + v * v)
        point[i] = 0

    rec(0, 0)
    return best


_CHUNK = 1 << 18


def box_svp_reference(basis, box):
    """``lattice.brute_force_svp`` by scanning every point of the box in
    numpy chunks of ``_CHUNK`` points: the minimum nonzero x^T G x and every
    minimizer in lexicographic order, with the same refusals."""
    n = basis.dim
    if len(box) != n:
        raise LatticeError("box dimension mismatch")
    box = tuple((int(lo), int(hi)) for lo, hi in box)
    for lo, hi in box:
        if lo > hi:
            raise LatticeError("empty box interval")
        if lo > 0 or hi < 0:
            raise LatticeError("box must contain the zero vector")
    sizes = [hi - lo + 1 for lo, hi in box]
    total = math.prod(sizes)
    if total == 1:
        raise LatticeError("box holds no nonzero vector")
    if total > lattice._DEFAULT_POINT_CAP:
        raise ResourceLimitError(
            f"box holds {total} points, above the cap of {lattice._DEFAULT_POINT_CAP}"
        )

    g = lattice.gram(basis).as_array()
    # overflow guard for the int64 quadratic form
    max_abs = max(max(abs(lo), abs(hi)) for lo, hi in box)
    bound = (n * max_abs) ** 2 * int(np.abs(g).max())
    if bound >= 2 ** 62:
        raise ResourceLimitError("coefficient box too large for exact int64 energies")

    lows = np.array([lo for lo, _ in box], dtype=np.int64)
    radix = np.array(sizes, dtype=np.int64)
    strides = np.ones(n, dtype=np.int64)
    for i in range(n - 2, -1, -1):
        strides[i] = strides[i + 1] * radix[i + 1]

    best = None
    best_x = []
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        x = (idx[:, None] // strides[None, :]) % radix[None, :] + lows[None, :]
        e = np.einsum("ci,ij,cj->c", x, g, x)
        nonzero = np.any(x != 0, axis=1)
        if not nonzero.any():
            continue
        e_nz = e[nonzero]
        x_nz = x[nonzero]
        m = int(e_nz.min())
        if best is None or m < best:
            best = m
            best_x = [tuple(int(v) for v in row) for row in x_nz[e_nz == m]]
        elif m == best:
            best_x.extend(tuple(int(v) for v in row) for row in x_nz[e_nz == m])
    assert best is not None and best > 0
    return OracleResult(
        lambda1_sq=best, witnesses=tuple(sorted(best_x)), search_box=box
    )


def length_sq(gram, x) -> int:
    """Exact squared length of the lattice vector with coefficients x."""
    n = gram.dim
    g = gram.entries
    return sum(
        int(x[i]) * int(x[j]) * g[i][j] for i in range(n) for j in range(n)
    )


def _broadcast_shape(n_qudits, j, size):
    # qudit n-1 on the first axis, qudit 0 on the last, so that flattening
    # in C order makes qudit 0 the least significant digit
    return [size if ax == n_qudits - 1 - j else 1 for ax in range(n_qudits)]


def exhaustive_length_table(gram, encoding) -> np.ndarray:
    """Squared length of the decoded vector for every configuration,
    evaluated directly from the qudit value maps and the Gram form (no
    compiled coefficients involved); exact int64.  Raises
    ResourceLimitError before allocating if the quadratic form could
    overflow."""
    n_dim = gram.dim
    m = encoding.qubits_per_qudit
    max_abs = max(-encoding.lo, encoding.hi)
    max_g = max(abs(v) for row in gram.entries for v in row)
    if (n_dim * max_abs) ** 2 * max_g >= 2 ** 62:
        raise ResourceLimitError("coefficient range too large for exact int64 energies")
    vals = encoding.local_values()
    g = gram.as_array()
    total = np.zeros([1 << m] * n_dim, dtype=np.int64)
    for i in range(n_dim):
        xi = vals.reshape(_broadcast_shape(n_dim, i, 1 << m))
        for j in range(n_dim):
            xj = vals.reshape(_broadcast_shape(n_dim, j, 1 << m))
            total = total + g[i, j] * xi * xj
    return total.reshape(-1)


def decode_energy(config_index, basis_rows, encoding):
    """Squared length of the decoded vector of one configuration, computed
    one qudit column at a time with exact integers."""
    n = len(basis_rows)
    m = encoding.qubits_per_qudit
    x = []
    for j in range(n):
        spins = [1 - 2 * ((config_index >> (j * m + p)) & 1) for p in range(m)]
        if encoding.family == "hamming":
            x.append(sum(spins) // 2)
        else:
            twice = -sum((2 ** p) * s for p, s in enumerate(spins)) - 1
            x.append(twice // 2)
    v = [sum(x[i] * basis_rows[i][j] for i in range(n)) for j in range(n)]
    return sum(c * c for c in v)


def sector_index(encoding, n_qudits):
    """Qudit-sector state of every full-space configuration, flat with qudit
    0 as the least significant digit, read from each qudit's local bits:
    a Hamming qudit's level is their popcount (its Hamming weight), a binary
    qudit's level the local bits themselves."""
    m = encoding.qubits_per_qudit
    hamming = encoding.family == "hamming"
    d = m + 1 if hamming else 1 << m
    config = np.arange(1 << (m * n_qudits))
    index = np.zeros_like(config)
    for j in range(n_qudits):
        local = (config >> (j * m)) & ((1 << m) - 1)
        level = sum((local >> p) & 1 for p in range(m)) if hamming else local
        index += level * d ** j
    return index


def dense_sweep_hamiltonian(diag_values, h0, s):
    """Explicit H(s) built from scratch (bit arithmetic, no library calls)."""
    dim = len(diag_values)
    n = dim.bit_length() - 1
    h = np.zeros((dim, dim))
    for c in range(dim):
        h[c, c] = s * diag_values[c]
        for b in range(n):
            h[c, c ^ (1 << b)] -= h0 * (1.0 - s)
    return h


def reference_evolution(diag_values, h0, T, steps):
    """Classic fourth-order Runge-Kutta on the dense H(t); only viable for
    tiny dimensions, used as the independent dynamics reference."""
    dim = len(diag_values)
    psi = np.full(dim, 1.0 / math.sqrt(dim), dtype=np.complex128)
    dt = T / steps
    dvals = np.asarray(diag_values, dtype=float)

    def rhs(t, y):
        s = min(max(t / T, 0.0), 1.0)
        hy = s * dvals * y
        for b in range(dim.bit_length() - 1):
            hy = hy - h0 * (1.0 - s) * y[np.arange(dim) ^ (1 << b)]
        return -1j * hy

    t = 0.0
    for _ in range(steps):
        k1 = rhs(t, psi)
        k2 = rhs(t + dt / 2, psi + dt / 2 * k1)
        k3 = rhs(t + dt / 2, psi + dt / 2 * k2)
        k4 = rhs(t + dt, psi + dt * k3)
        psi = psi + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
    return psi


def _each_axis(x: np.ndarray, mat: np.ndarray, shapes) -> np.ndarray:
    """Apply the real d x d matrix along every axis of the flat complex
    tensor x, one broadcast matmul per axis on the interleaved real view;
    ``shapes`` holds (d**a, d, -1) for every axis a."""
    r = x.view(np.float64)
    for shape in shapes:
        r = np.matmul(mat, r.reshape(shape))
    return r.reshape(-1).view(np.complex128)


def eigenbasis_sweep_reference(psi, diag, local, h0, T, windows):
    """Propagate psi through the linear sweep with `windows` fourth-order
    splitting steps on a tensor product of local spaces; returns the final
    state.  psi (complex) and diag have shape (d,) * N, one axis per qudit,
    and every qudit's transverse field is the real symmetric d x d matrix
    ``local``.

    The state stays in the eigenbasis of ``local``, where the driver is
    diagonal, so adjacent driver half-steps merge into one phase; each
    problem step rotates to the computational basis and back.  The same
    substeps as ``_kernels.yoshida_sweep_sector``, which keeps the state in
    the computational basis instead.
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


def group_probabilities(values: np.ndarray, probs: np.ndarray) -> dict[int, float]:
    """Total probability per exact squared length, outcome i having squared
    length values[i]: the grouping ``dynamics.evolve`` must reproduce."""
    levels, inverse = np.unique(values, return_inverse=True)
    mass = np.bincount(inverse.reshape(-1), weights=probs.reshape(-1))
    return {int(l): float(p) for l, p in zip(levels, mass)}


def metropolis_reference(nbr_ptr, nbr_idx, nbr_val, h, betas, reads, seeds):
    """Temperature-scheduled single-spin-flip Metropolis; one independent
    anneal per read, seeded per read.  One spin at a time in plain Python:
    the reference the vectorised sampler must reproduce draw for draw."""
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


def neighbour_lists(n, couplings):
    """CSR (ptr, idx, val) of the (i, j, v) couplings, assembled coupling by
    coupling: each spin lists its neighbours in the order of ``couplings``."""
    nbrs = [[] for _ in range(n)]
    for i, j, v in couplings:
        nbrs[i].append((j, v))
        nbrs[j].append((i, v))
    ptr = np.cumsum([0] + [len(nb) for nb in nbrs]).astype(np.int64)
    idx = np.array([j for nb in nbrs for j, _ in nb], dtype=np.int64)
    val = np.array([v for nb in nbrs for _, v in nb], dtype=np.float64)
    return ptr, idx, val


def reference_sample(phys, reads, seed, params):
    """``emulator.sample`` rebuilt on ``neighbour_lists`` and
    ``metropolis_reference``."""
    ptr, idx, val = neighbour_lists(phys.n_qubits, phys.couplings)
    seeds = np.random.SeedSequence(seed).generate_state(reads).astype(np.int64)
    return metropolis_reference(ptr, idx, val, phys.h, params.schedule(phys), reads, seeds)


def complete_graph(n):
    """Fully connected stand-in graph (chains of length one embed any model
    identically); m is set to 0 to mark it as non-Chimera."""
    adj = tuple(frozenset(v for v in range(n) if v != u) for u in range(n))
    return ChimeraGraph(m=0, adjacency=adj)


def identity_embedding(n_logical, chain_strength=1.0):
    return ChimeraEmbedding(
        chains=tuple((i,) for i in range(n_logical)), chain_strength=chain_strength
    )
