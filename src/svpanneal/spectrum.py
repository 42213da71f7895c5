"""Sweep Hamiltonian H(s) = (1-s) H_0 + s H_P and its gap profile along
the sweep.

H_0 is the transverse-field driver -h0 * sum_i sigma_x^i and H_P the
compiled problem diagonal.  Both dynamics and spectra work in a product of
small per-qudit spaces (``qudit_sector``).  A Hamming problem's sweep
Hamiltonian commutes with qubit permutations inside each qudit column, and
the initial state (uniform superposition) lies in the fully symmetric
sector, where each qudit reduces to an (m+1)-level ladder.  A binary qudit
keeps all its 2^q configurations as levels, so its sector is the full
space.  The sector gap is the one that controls the sweep: for Hamming it
stays open at s=1 even though the full-space ground level is degenerate
there.  ``dynamics.evolve`` integrates every sweep in the same sector.

Gap profiles come from one dense solver: ``eigvalsh`` of the sector
Hamiltonian at every grid point.  A sector larger than ``MAX_SECTOR_DIM``
states is refused before any d x d matrix is allocated.
"""
from __future__ import annotations

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
from .lattice import GramMatrix, ResourceLimitError


class SpectrumError(RuntimeError):
    """Eigensolver failure.  The dense scan never raises it; it stays in the
    public API because callers catch it."""


# largest sector the dense scan accepts: at the cap each of the three d x d
# float64 matrices it holds (driver, H(s), eigvalsh's work copy) takes
# 512 MiB, and eigvalsh costs O(d^3) at every grid point
MAX_SECTOR_DIM = 1 << 13


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




def sector_hamiltonian_parts(
    sector: QuditSector, driver: DriverSpec
) -> tuple[np.ndarray, np.ndarray]:
    """(driver matrix, problem diagonal) of the sweep Hamiltonian restricted
    to the sector: the driver is -h0 times the sum over qudits of each
    qudit's local driver."""
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


def _scan(sector: QuditSector, driver: DriverSpec, grid) -> GapProfile:
    sgrid = _grid(grid)
    d = sector.dim
    if d > MAX_SECTOR_DIM:
        raise ResourceLimitError(
            f"sector dimension {d} exceeds the dense-scan cap {MAX_SECTOR_DIM}: "
            f"the scan would hold three {d} x {d} float64 matrices of "
            f"{8 * d * d} bytes ({8 * d * d / 2**30:.1f} GiB) each"
        )
    drv, dg = sector_hamiltonian_parts(sector, driver)
    e0 = np.empty(sgrid.size)
    e1 = np.empty(sgrid.size)
    h = np.empty_like(drv)
    for i, s in enumerate(sgrid):
        np.multiply(drv, 1.0 - s, out=h)
        h.flat[:: d + 1] += s * dg
        vals = np.linalg.eigvalsh(h)
        e0[i], e1[i] = vals[0], vals[1]
    return GapProfile(s_grid=sgrid, e0=e0, e1=e1)


def gap_scan(
    diag: ProblemDiagonal, driver: DriverSpec, grid: int | np.ndarray = 33
) -> GapProfile:
    """E0 and E1 of H(s) in the problem's qudit sector (the one
    ``dynamics.evolve`` integrates) over an s grid from 0 to 1; a diagonal
    without a layout is read as n one-qubit qudits."""
    return _scan(qudit_sector(diag.qudit_layout, diag.on_grid), driver, grid)


def sector_gap_scan(
    gram: GramMatrix,
    encoding: QuditEncoding,
    driver: DriverSpec,
    grid: int | np.ndarray = 33,
) -> GapProfile:
    """``gap_scan`` of the compiled lattice problem, with the sector energies
    evaluated from the model so that the 2^n diagonal is never built."""
    model = compile_ising(gram, encoding)
    sector = qudit_sector(model.layout, partial(problem_diagonal_ints, model))
    return _scan(sector, driver, grid)
