"""Sweep Hamiltonian H(s) = (1-s) H_0 + s H_P and its gap profile along
the sweep.

H_0 is the transverse-field driver -h0 * sum_i sigma_x^i and H_P the
compiled problem diagonal.  A problem has one representation,
``ProblemDiagonal``: its energies on a product of small per-qudit spaces,
the qudit sector, which both dynamics and spectra work in.  A Hamming
problem's sweep Hamiltonian commutes with qubit permutations inside each
qudit column, and the initial state (uniform superposition) lies in the
fully symmetric sector, where each qudit reduces to an (m+1)-level ladder.
A binary qudit keeps all its 2^q configurations as levels, so its sector
is the full space.  ``dim`` is the sector dimension and ``n_qubits`` the
real qubit count; ``ProblemDiagonal.from_model`` evaluates the sector
energies straight from the compiled model, never the 2^n diagonal, and
refuses a sector of more than ``MAX_STATES`` states before allocating it.
The sector gap is the one that controls the sweep: for Hamming it stays
open at s=1 even though the full-space ground level is degenerate there.
``dynamics.evolve`` integrates every sweep in the same sector.

Gap profiles come from a warm-started block eigensolver (LOBPCG) that
applies H(s) to a block of vectors one qudit axis at a time, never forming
the matrix, and carries its blocks from one grid point to the next; the
endpoints s = 0 and s = 1 are taken in closed form.  A sector larger than
``MAX_SECTOR_DIM`` states is refused before anything is allocated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .encoding import (
    IsingModel,
    QuditEncoding,
    compile_ising,
    problem_diagonal_ints,
)
from .lattice import GramMatrix, ResourceLimitError


class SpectrumError(RuntimeError):
    """Eigensolver failure: ``gap_scan`` raises it when a grid point has
    not converged after ``_MAX_ITERATIONS`` iterations."""


# largest sector gap_scan accepts.  The block solver holds five past blocks
# of 4 sector vectors and a search block of at most 3 (1 + N q), N qudits
# of q qubits: on 2 cores a
# 33-point scan of 6D Hamming [-2,2] (15,625 states) took 4.2 s and peaked
# at 18.6 MiB (tracemalloc), one of 7D binary [-2,1] (16,384) 4.0 s and
# 41.6 MiB
MAX_SECTOR_DIM = 1 << 14

# the block solver (see _block_scan): its block after the first interior
# point, the number of past grid points whose blocks warm-start the next
# one, iterations per grid point before it gives up, and its stopping
# tolerances.  Five past blocks, against two, cut the iterations of a
# 33-point scan of sweep-ham's 125 states from 245 to 146 and its time from
# 28 ms to 20-23 ms, level with dense eigvalsh's 21-22 ms (medians over
# its six lattices, 2 cores), and of sweep-bin's 512 states from 333 to 233
_BLOCK = 4
_HISTORY = 5
_MAX_ITERATIONS = 500
_EIG_RTOL = 1e-12
_RESIDUAL_TOL = 1e-5

# largest sector ProblemDiagonal.from_model builds, as many states as a
# 24-qubit binary problem has.  Per state the int64 energies take 8 bytes
# and evolve peaks at 57 bytes more (56.8 at 2^17 states, 56.1 at 2^20;
# tracemalloc), inside the sweep kernel: two complex state buffers, the
# first of them the start amplitudes, and a complex phase table, 48 bytes,
# while evolve holds the int64 energy index.  At the cap, 128 MiB and
# 0.9 GiB.
MAX_STATES = 1 << 24


@dataclass(frozen=True)
class DriverSpec:
    h0: float = 1.0

    def __post_init__(self):
        if not self.h0 > 0:
            raise ValueError("transverse field strength must be positive")


@dataclass(frozen=True)
class ProblemDiagonal:
    """The problem Hamiltonian on the qudit sector that contains the sweep.

    The 2^m local configurations of a qudit column are grouped into levels,
    one per qudit value, numbered by their lowest configuration, and level
    a stands for the normalised uniform superposition of its
    configurations.  A Hamming column's levels are its Hamming weights w,
    the number of its spins at -1 (value m/2 - w): an (m+1)-level ladder of
    symmetric (Dicke) states, which the sweep Hamiltonian never leaves
    because it commutes with qubit permutations inside a column.  A binary
    column has one level per configuration, so its sector is the full
    space.  ``level`` holds the level of every local configuration (default
    one-qubit qudits, i.e. ``values`` over the full space) and ``values``
    the exact integer problem energy of every level tuple, flat with qudit
    0 as the least significant digit.
    """

    values: np.ndarray  # int64, length d^N for d levels and N qudits
    level: np.ndarray = (0, 1)  # int, length 2^m

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.int64)
        lv = np.asarray(self.level, dtype=np.int64)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "level", lv)
        m = lv.size.bit_length() - 1
        if (m < 1 or lv.size != 1 << m or lv.min() < 0 or lv.max() < 1
                or not np.bincount(lv).all()):
            raise ValueError("level must map 2^m configurations onto levels 0..d-1")
        if v.size < 2 or (int(lv.max()) + 1) ** self.n_qudits != v.size:
            raise ValueError("values must hold one energy per sector state, d^N >= 2")
        if v.min() < 0:
            raise ValueError("problem energies must be non-negative")

    @property
    def n_qudits(self) -> int:
        return round(math.log(self.values.size) / math.log(int(self.level.max()) + 1))

    @property
    def n_qubits(self) -> int:
        return self.n_qudits * (self.level.size.bit_length() - 1)

    @property
    def dim(self) -> int:
        """Sector dimension."""
        return self.values.size

    @classmethod
    def from_model(cls, model: IsingModel) -> "ProblemDiagonal":
        """The sector of a compiled model, with energies evaluated exactly
        at each level's lowest configuration (``problem_diagonal_ints``).
        Raises ResourceLimitError before allocating if the sector has more
        than ``MAX_STATES`` states."""
        lay = model.layout
        # the lowest configuration with each configuration's value, then
        # one level per such representative, in ascending order
        _, first, inverse = np.unique(
            lay.encoding.local_values(), return_index=True, return_inverse=True
        )
        rep, level = np.unique(first[inverse], return_inverse=True)
        dim = rep.size ** lay.n_qudits
        if dim > MAX_STATES:
            raise ResourceLimitError(
                f"sector dimension {dim} exceeds the {MAX_STATES}-state cap: "
                f"its energies take {8 * dim} bytes ({8 * dim / 2**30:.1f} GiB) "
                f"and a sweep {57 * dim} bytes more ({57 * dim / 2**30:.1f} GiB): "
                f"two complex state buffers, a complex phase table and an "
                f"energy index"
            )
        return cls(problem_diagonal_ints(model, rep), level)

    def driver(self) -> np.ndarray:
        """sum_p sigma_x^p of one qudit between its normalised levels: the
        number of single flips linking levels a and b over sqrt(mult_a
        mult_b).  That is 2 S_x, with elements sqrt((w+1)(m-w)), for a
        Hamming ladder and the bit-flip matrix for a binary qudit; the
        square root is taken of the ratio, an exact integer for both, so
        the elements are correctly rounded."""
        lv = self.level
        d = int(lv.max()) + 1
        local = np.arange(lv.size)
        flipped = lv[local[:, None] ^ (1 << np.arange(lv.size.bit_length() - 1))]
        flips = np.bincount((lv[:, None] * d + flipped).reshape(-1), minlength=d * d)
        mult = np.bincount(lv).astype(np.float64)
        return np.sqrt(flips.reshape(d, d) ** 2.0 / np.multiply.outer(mult, mult))

    def multiplicity(self) -> np.ndarray:
        """Full-space configurations per sector state, prod_j mult(a_j),
        flat."""
        mult = np.bincount(self.level).astype(np.float64)
        return reduce(np.multiply.outer, [mult] * self.n_qudits).reshape(-1)


@dataclass(frozen=True)
class GapProfile:
    """E0 and E1 at every grid point, with the solver's diagnostics:
    ``iterations`` the block solver's LOBPCG iterations after its
    warm-start step and ``residual`` the larger residual norm
    ||H x_j - theta_j x_j|| of its two lowest Ritz pairs.  The closed-form
    endpoints record 0 iterations and residual 0.0."""

    s_grid: np.ndarray
    e0: np.ndarray
    e1: np.ndarray
    iterations: np.ndarray
    residual: np.ndarray

    @property
    def gaps(self) -> np.ndarray:
        return self.e1 - self.e0

    @property
    def min_gap(self) -> tuple[float, float]:
        """(s*, gap*) at the grid minimum."""
        gaps = self.gaps
        i = int(np.argmin(gaps))
        return float(self.s_grid[i]), float(gaps[i])


def sector_hamiltonian_parts(
    diag: ProblemDiagonal, driver: DriverSpec
) -> tuple[np.ndarray, np.ndarray]:
    """(driver matrix, problem diagonal) of the sweep Hamiltonian on the
    sector: the driver is -h0 times the sum over qudits of each qudit's
    local driver."""
    local = diag.driver()
    eye = np.eye(local.shape[0])
    n_dim = diag.n_qudits
    drv = np.zeros((diag.dim, diag.dim))
    for j in range(n_dim):
        op = np.ones((1, 1))
        # qudit 0 on the last kron factor = least significant digit
        for jj in range(n_dim - 1, -1, -1):
            op = np.kron(op, local if jj == j else eye)
        drv -= driver.h0 * op
    return drv, diag.values.astype(np.float64)


def gap_scan(diag: ProblemDiagonal, driver: DriverSpec, grid: int = 33) -> GapProfile:
    """E0 and E1 of H(s) in the problem's qudit sector (the one
    ``dynamics.evolve`` integrates) at ``grid`` evenly spaced points of s
    from 0 to 1, by the block solver ``_block_scan``."""
    if grid < 3:
        raise ValueError("need at least 3 grid points")
    d = diag.dim
    if d > MAX_SECTOR_DIM:
        raise ResourceLimitError(
            f"sector dimension {d} exceeds the {MAX_SECTOR_DIM}-state gap-scan "
            f"cap (at the cap a 33-point scan takes about 4 s and 42 MiB)"
        )
    return _block_scan(diag, driver, np.linspace(0.0, 1.0, int(grid)))


def _apply_h(x: np.ndarray, local: np.ndarray, values: np.ndarray, n_qudits: int) -> np.ndarray:
    """H x for a block x of sector vectors (one per column): ``local``
    along every qudit axis plus the diagonal ``values``, never forming the
    d x d matrix."""
    d = local.shape[0]
    hx = x * values[:, None]
    for j in range(n_qudits):
        # qudit j is digit j of the state index, axis 1 of this view
        xj = x.reshape(d ** (n_qudits - 1 - j), d, -1)
        hx.reshape(xj.shape)[...] += np.matmul(local, xj)
    return hx


def _block_scan(diag: ProblemDiagonal, driver: DriverSpec, sgrid: np.ndarray) -> GapProfile:
    """LOBPCG (Knyazev, SIAM J. Sci. Comput. 23:517, 2001) for the lowest
    levels of H(s), matrix-free, from one interior point to the next.

    The first interior point starts from the s = 0 eigenvectors of the
    driver ground level and its whole first excited cluster; every later
    one from a Rayleigh-Ritz step on the blocks of the previous
    ``_HISTORY`` points, keeping ``_BLOCK`` vectors.  Where H(s) has a
    symmetry (the reflection of every qudit of a symmetric Hamming range)
    the start block holds one even vector, the ground state, and the odd
    first excited cluster; an even E1 is still reached through the ground
    vector's residual and the past ground vectors.  The preconditioner is
    1 / (|s E_i - theta_j| + (1 - s) h0).  A point is done when, for its
    two lowest Ritz pairs, the eigenvalue error bound
    ||r_j||^2 / max(theta_top - theta_j, ||r_j||) is at most
    ``_EIG_RTOL`` max(1, |theta_j|) and ||r_j|| <= ``_RESIDUAL_TOL``,
    theta_top being the block's highest Ritz value.  Raises SpectrumError
    after ``_MAX_ITERATIONS`` iterations at one point."""
    n = diag.n_qudits
    driver_local = diag.driver()
    lam, vec = np.linalg.eigh(driver_local)
    values = diag.values.astype(np.float64)
    h0 = driver.h0
    # s = 0: every qudit in its top local level, then one qudit in a
    # second one; qudit j is the last of the outer product's factors
    top = vec[:, -1]
    second = vec[:, :-1][:, np.isclose(lam[:-1], lam[-2], rtol=0.0, atol=1e-9)]
    start = [reduce(np.multiply.outer, [top] * n).reshape(-1)]
    for j in range(n):
        for v in second.T:
            factors = [top] * n
            factors[n - 1 - j] = v
            start.append(reduce(np.multiply.outer, factors).reshape(-1))
    blocks = [np.stack(start, axis=1)]
    inner = []
    for s in sgrid[1:-1]:
        local = (-h0 * (1.0 - s)) * driver_local
        sv = s * values
        m = blocks[0].shape[1] if len(blocks) == 1 else _BLOCK
        q, _ = np.linalg.qr(np.concatenate(blocks, axis=1))
        x = p = None
        for it in range(_MAX_ITERATIONS + 1):
            if x is not None:
                w = r / (np.abs(sv[:, None] - theta) + (1.0 - s) * h0)
                q, _ = np.linalg.qr(np.concatenate([x, w] if p is None else [x, w, p], axis=1))
            hq = _apply_h(q, local, sv, n)
            theta, c = np.linalg.eigh(q.T @ hq)
            theta, c = theta[:m], c[:, :m]
            x, hx = q @ c, hq @ c
            if it:
                p = q[:, m:] @ c[m:]
            r = hx - x * theta
            norms = np.sqrt(np.einsum("ij,ij->j", r[:, :2], r[:, :2]))
            # the error bound, multiplied out so that a zero residual in a
            # degenerate block passes
            spread = np.maximum(theta[-1] - theta[:2], norms)
            if ((norms ** 2 <= _EIG_RTOL * np.maximum(1.0, np.abs(theta[:2])) * spread)
                    & (norms <= _RESIDUAL_TOL)).all():
                break
        else:
            raise SpectrumError(
                f"block eigensolver did not converge at s={s:.6g} after "
                f"{_MAX_ITERATIONS} iterations: residuals {norms[0]:.3e}, {norms[1]:.3e}"
            )
        inner.append((theta[0], theta[1], it, norms.max()))
        blocks = [x, *blocks[:_HISTORY - 1]]
    # closed form at s = 0, the driver ground level and the first excited
    # one, and at s = 1, the two smallest sector energies
    low = np.partition(values, 1)[:2]
    rows = np.array([
        (-h0 * n * lam[-1], -h0 * ((n - 1) * lam[-1] + lam[-2]), 0, 0.0),
        *inner,
        (low[0], low[1], 0, 0.0),
    ], dtype=np.float64)
    return GapProfile(s_grid=sgrid, e0=rows[:, 0], e1=rows[:, 1],
                      iterations=rows[:, 2].astype(np.int64), residual=rows[:, 3])


def sector_gap_scan(
    gram: GramMatrix,
    encoding: QuditEncoding,
    driver: DriverSpec,
    grid: int = 33,
) -> GapProfile:
    """``gap_scan`` of the compiled lattice problem."""
    model = compile_ising(gram, encoding)
    return gap_scan(ProblemDiagonal.from_model(model), driver, grid)
