"""Matrix-free sweep Hamiltonian H(s) = (1-s) H_0 + s H_P and its low-lying
spectrum along the sweep.

H_0 is the transverse-field driver -h0 * sum_i sigma_x^i, whose action is a
sum over single-bit-flip neighbours; H_P is the compiled diagonal.  The full
2^n x 2^n matrix is only materialized for small dimensions (dense eigensolver
path) or in tests.

The sweep also lives in a product of small per-qudit spaces
(``qudit_sector``).  A Hamming problem's sweep Hamiltonian commutes with
qubit permutations inside each qudit column, and the initial state (uniform
superposition) lies in the fully symmetric sector, where each qudit reduces
to an (m+1)-level ladder.  A binary qudit keeps all its 2^q configurations
as levels, so its sector is the full space.  ``sector_gap_scan`` computes
gap profiles in the sector; for Hamming this is the gap that controls the
sweep dynamics and stays open at s=1 even though the full-space ground level
is degenerate there.  ``dynamics.evolve`` integrates every sweep in the same
sector.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

from .encoding import (
    IsingModel,
    QuditEncoding,
    QuditLayout,
    compile_ising,
    problem_diagonal_ints,
)
from .lattice import GramMatrix


class SpectrumError(RuntimeError):
    pass


DENSE_CUTOFF = 1 << 10
_EIGSH_SEED = 987654321


@dataclass(frozen=True)
class DriverSpec:
    h0: float = 1.0

    def __post_init__(self):
        if not self.h0 > 0:
            raise ValueError("transverse field strength must be positive")


@dataclass(frozen=True)
class ProblemDiagonal:
    """Eigenvalues of the problem Hamiltonian per computational basis state
    (exact integers for integer lattices), with the qudit layout of the
    compiled model when it is known."""

    values: np.ndarray  # int64, length 2^n
    layout: QuditLayout | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.int64)
        object.__setattr__(self, "values", v)
        n = v.size.bit_length() - 1
        if n < 1 or v.size != 1 << n:
            raise ValueError("diagonal length must be a power of two >= 2")
        if v.min() < 0:
            raise ValueError("problem energies must be non-negative")
        lay = self.layout
        if lay is not None and lay.n_qudits * lay.encoding.qubits_per_qudit != n:
            raise ValueError("layout qubit count does not match the diagonal")

    @property
    def n_qubits(self) -> int:
        return self.values.size.bit_length() - 1

    @property
    def dim(self) -> int:
        return self.values.size

    def as_float(self) -> np.ndarray:
        return self.values.astype(np.float64)

    def levels(self) -> np.ndarray:
        """Distinct energies, ascending."""
        return np.unique(self.values)

    @classmethod
    def from_model(cls, model: IsingModel) -> "ProblemDiagonal":
        return cls(problem_diagonal_ints(model), model.layout)

    @property
    def qudit_layout(self) -> QuditLayout:
        """The layout, or n one-qubit binary qudits when it is unknown."""
        if self.layout is not None:
            return self.layout
        return QuditLayout(
            QuditEncoding.binary(k=0), tuple((q,) for q in range(self.n_qubits))
        )

    def on_grid(self, local: np.ndarray) -> np.ndarray:
        """Energies on the product grid of the local configurations
        ``local`` of every qudit, as ``problem_diagonal_ints(model, local)``
        evaluates them."""
        lay = self.qudit_layout
        m = lay.encoding.qubits_per_qudit
        digits = [local << (j * m) for j in reversed(range(lay.n_qudits))]
        return self.values[reduce(np.add.outer, digits)].reshape(-1)


@dataclass(frozen=True)
class QuditSector:
    """Product of per-qudit local spaces that contains the sweep.

    The 2^m local configurations of a qudit column are grouped into levels,
    one per qudit value, numbered by their lowest configuration, and level
    a stands for the normalised uniform superposition of its
    configurations.  A Hamming column's levels are its Hamming weights w,
    the number of its spins at -1 (value m/2 - w): an (m+1)-level ladder of
    symmetric (Dicke) states, which the sweep Hamiltonian never leaves
    because it commutes with qubit permutations inside a column.  A binary
    column has one level per configuration, so the sector is the full space.
    ``level`` holds the level of every local configuration and
    ``diagonal`` the exact problem energy of every level tuple, with qudit
    j on axis N-1-j so that C-order flattening makes qudit 0 the least
    significant digit.
    """

    level: np.ndarray  # int, length 2^m
    diagonal: np.ndarray  # int64, shape (d,) * N

    @property
    def n_qudits(self) -> int:
        return self.diagonal.ndim

    @property
    def dim(self) -> int:
        return self.diagonal.size

    def driver(self) -> np.ndarray:
        """sum_p sigma_x^p of one qudit between its normalised levels: the
        number of single flips linking levels a and b over sqrt(mult_a
        mult_b).  That is 2 S_x, with elements sqrt((w+1)(m-w)), for a
        Hamming ladder and the bit-flip matrix for a binary qudit; the
        square root is taken of the ratio, an exact integer for both, so
        the elements are correctly rounded."""
        lv = self.level
        d = self.diagonal.shape[0]
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

    def full_index(self) -> np.ndarray:
        """Flat sector index of every full-space configuration."""
        d = self.diagonal.shape[0]
        digits = [self.level * d ** j for j in reversed(range(self.n_qudits))]
        return reduce(np.add.outer, digits).reshape(-1)


def qudit_sector(
    layout: QuditLayout, energies: Callable[[np.ndarray], np.ndarray]
) -> QuditSector:
    """The sector of a problem with this layout.

    ``energies(local)`` returns the compiled integer energies on the
    product grid of the local configurations ``local``
    (``problem_diagonal_ints`` or ``ProblemDiagonal.on_grid``); it is asked
    for each level's lowest configuration, so sector energies stay exact.
    """
    # the lowest configuration with each configuration's value, then one
    # level per such representative, in ascending order
    _, first, inverse = np.unique(
        layout.encoding.local_values(), return_index=True, return_inverse=True
    )
    rep, level = np.unique(first[inverse], return_inverse=True)
    shape = [rep.size] * layout.n_qudits
    return QuditSector(level, energies(rep).reshape(shape))


def apply_driver(psi: np.ndarray, n: int) -> np.ndarray:
    """Sum of psi over all single-bit-flip neighbours (the -1/h0 part of
    H_0 psi), computed without materializing any matrix."""
    dim = psi.shape[0]
    out = np.zeros_like(psi)
    for b in range(n):
        out += psi.reshape(dim >> (b + 1), 2, 1 << b)[:, ::-1, :].reshape(dim)
    return out


def apply_hamiltonian(
    diag: ProblemDiagonal, driver: DriverSpec, s: float, psi: np.ndarray
) -> np.ndarray:
    """H(s) psi for the linear sweep Hamiltonian."""
    if not 0.0 <= s <= 1.0:
        raise ValueError("normalized time must lie in [0, 1]")
    if psi.shape[0] != diag.dim:
        raise ValueError("state vector length mismatch")
    out = s * (diag.as_float() * psi)
    if s < 1.0:
        out -= driver.h0 * (1.0 - s) * apply_driver(psi, diag.n_qubits)
    return out


def dense_hamiltonian(diag: ProblemDiagonal, driver: DriverSpec, s: float) -> np.ndarray:
    """Explicit H(s); for tests and the dense eigensolver path only."""
    dim = diag.dim
    n = diag.n_qubits
    hmat = np.diag(s * diag.as_float())
    off = -driver.h0 * (1.0 - s)
    idx = np.arange(dim)
    for b in range(n):
        hmat[idx, idx ^ (1 << b)] += off
    return hmat


def _transverse_levels(n: int, h0: float, m: int) -> np.ndarray:
    """m lowest eigenvalues of the bare driver: -h0*(n-2w), multiplicity
    binomial(n, w)."""
    out: list[float] = []
    w = 0
    while len(out) < m and w <= n:
        out.extend([-h0 * (n - 2 * w)] * math.comb(n, w))
        w += 1
    return np.array(out[:m])


def low_spectrum(
    diag: ProblemDiagonal,
    driver: DriverSpec,
    s: float,
    m: int = 2,
    dense_cutoff: int = DENSE_CUTOFF,
    tol: float = 1e-10,
    maxiter: int | None = None,
    v0: np.ndarray | None = None,
) -> np.ndarray:
    """m smallest eigenvalues of H(s), ascending.

    Endpoints use closed forms (driver ladder at s=0, sorted diagonal at
    s=1; note the s=1 values are the raw, ungrouped spectrum, which is
    degenerate for redundant encodings).  Interior points use a dense
    solver up to ``dense_cutoff`` dimensions and a Krylov solver with a
    seeded deterministic start vector above.
    """
    if m < 1:
        raise ValueError("need at least one eigenvalue")
    dim = diag.dim
    if m > dim:
        raise ValueError("more eigenvalues requested than the dimension")
    if s == 0.0:
        return _transverse_levels(diag.n_qubits, driver.h0, m)
    if s == 1.0:
        return np.sort(diag.as_float())[:m]
    if dim <= dense_cutoff:
        return np.linalg.eigvalsh(dense_hamiltonian(diag, driver, s))[:m]
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    dvals = diag.as_float()
    n = diag.n_qubits
    h0 = driver.h0

    def mv(psi):
        out = s * (dvals * psi)
        out -= h0 * (1.0 - s) * apply_driver(psi, n)
        return out

    op = LinearOperator((dim, dim), matvec=mv, dtype=np.float64)
    if v0 is None:
        v0 = np.random.default_rng(_EIGSH_SEED).standard_normal(dim)
    try:
        vals = eigsh(
            op, k=m, which="SA", v0=v0, tol=tol,
            maxiter=maxiter, return_eigenvectors=False,
        )
    except ArpackNoConvergence as exc:
        got = np.sort(exc.eigenvalues) if exc.eigenvalues is not None else []
        raise SpectrumError(
            f"eigensolver did not converge at s={s}: "
            f"{len(got)} of {m} eigenvalues converged"
        ) from exc
    return np.sort(vals)


@dataclass(frozen=True)
class GapProfile:
    s_grid: np.ndarray
    e0: np.ndarray
    e1: np.ndarray

    @property
    def gaps(self) -> np.ndarray:
        return self.e1 - self.e0

    @property
    def min_gap(self) -> tuple[float, float]:
        """(s*, gap*) at the grid minimum."""
        gaps = self.gaps
        i = int(np.argmin(gaps))
        return float(self.s_grid[i]), float(gaps[i])


def _grid(points) -> np.ndarray:
    if np.isscalar(points):
        if points < 3:
            raise ValueError("need at least 3 grid points")
        return np.linspace(0.0, 1.0, int(points))
    g = np.asarray(points, dtype=np.float64)
    if g.size < 3 or g[0] != 0.0 or g[-1] != 1.0 or np.any(np.diff(g) <= 0):
        raise ValueError("grid must ascend from 0 to 1 with >= 3 points")
    return g


def gap_scan(
    diag: ProblemDiagonal,
    driver: DriverSpec,
    grid: int | np.ndarray = 33,
    dense_cutoff: int = DENSE_CUTOFF,
    refine: int = 0,
) -> GapProfile:
    """E0 and E1 of H(s) over a uniform s grid including both endpoints.

    At s=1 the reported E1 is the first distinct level above the ground
    energy (degeneracy grouping applies at the diagonal endpoint); interior
    points report the raw sorted spectrum.  ``refine`` adds that many
    rounds of local bisection around the grid minimum.
    """
    sgrid = _grid(grid)

    def pair(s: float) -> tuple[float, float]:
        if s == 1.0:
            lv = np.unique(diag.values)
            return float(lv[0]), float(lv[1] if lv.size > 1 else lv[0])
        e = low_spectrum(diag, driver, s, m=2, dense_cutoff=dense_cutoff)
        return float(e[0]), float(e[1])

    pairs = [pair(float(s)) for s in sgrid]
    e0 = np.array([p[0] for p in pairs])
    e1 = np.array([p[1] for p in pairs])

    if refine:
        s_lo, s_hi, s_mid = _bracket(sgrid, e1 - e0)
        svals = list(sgrid)
        for _ in range(refine):
            for s_new in ((s_lo + s_mid) / 2, (s_mid + s_hi) / 2):
                if 0.0 < s_new < 1.0 and s_new not in svals:
                    svals.append(s_new)
                    pairs.append(pair(s_new))
            order = np.argsort(svals)
            svals = [svals[i] for i in order]
            pairs = [pairs[i] for i in order]
            gnew = np.array([p[1] - p[0] for p in pairs])
            s_lo, s_hi, s_mid = _bracket(np.array(svals), gnew)
        sgrid = np.array(svals)
        e0 = np.array([p[0] for p in pairs])
        e1 = np.array([p[1] for p in pairs])
    return GapProfile(s_grid=sgrid, e0=e0, e1=e1)


def _bracket(sgrid, gaps):
    i = int(np.argmin(gaps))
    lo = sgrid[max(i - 1, 0)]
    hi = sgrid[min(i + 1, len(sgrid) - 1)]
    return float(lo), float(hi), float(sgrid[i])


def sector_hamiltonian_parts(
    gram: GramMatrix, encoding: QuditEncoding, driver: DriverSpec
) -> tuple[np.ndarray, np.ndarray]:
    """(driver matrix, problem diagonal) of the sweep Hamiltonian restricted
    to the dynamically relevant sector (``qudit_sector``): the driver is -h0
    times the sum over qudits of each qudit's local driver.  For a Hamming
    problem that is the fully symmetric sector; for a binary one, the full
    space with its single-bit-flip driver.
    """
    model = compile_ising(gram, encoding)
    sector = qudit_sector(model.layout, partial(problem_diagonal_ints, model))
    local = sector.driver()
    eye = np.eye(local.shape[0])
    n_dim = sector.n_qudits
    drv = np.zeros((sector.dim, sector.dim))
    for j in range(n_dim):
        op = np.ones((1, 1))
        # qudit 0 on the last kron factor = least significant digit
        for jj in range(n_dim - 1, -1, -1):
            op = np.kron(op, local if jj == j else eye)
        drv -= driver.h0 * op
    return drv, sector.diagonal.reshape(-1).astype(np.float64)


def sector_gap_scan(
    gram: GramMatrix,
    encoding: QuditEncoding,
    driver: DriverSpec,
    grid: int | np.ndarray = 33,
) -> GapProfile:
    """Gap profile E1(s) - E0(s) in the dynamically relevant sector (dense
    diagonalization; sector dimensions are small)."""
    drv, dg = sector_hamiltonian_parts(gram, encoding, driver)
    sgrid = _grid(grid)
    e0 = np.empty(sgrid.size)
    e1 = np.empty(sgrid.size)
    dmat = np.diag(dg)
    for i, s in enumerate(sgrid):
        vals = np.linalg.eigvalsh((1.0 - s) * drv + s * dmat)
        e0[i], e1[i] = vals[0], vals[1]
    return GapProfile(s_grid=sgrid, e0=e0, e1=e1)
