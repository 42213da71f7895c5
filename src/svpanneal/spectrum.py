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

Gap profiles come from one dense solver: ``eigvalsh`` of the sector
Hamiltonian at every grid point.  A sector larger than ``MAX_SECTOR_DIM``
states is refused before any d x d matrix is allocated.
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
    """Eigensolver failure.  The dense scan never raises it; it stays in the
    public API because callers catch it."""


# largest sector the dense scan accepts: at the cap each of the three d x d
# float64 matrices it holds (driver, H(s), eigvalsh's work copy) takes
# 512 MiB, and eigvalsh costs O(d^3) at every grid point
MAX_SECTOR_DIM = 1 << 13

# largest sector ProblemDiagonal.from_model builds, as many states as a
# 24-qubit binary problem has.  Per state the int64 energies take 8 bytes
# and evolve peaks at 64 bytes more (tracemalloc, 2^20 states), inside the
# sweep kernel: two complex state buffers and a complex phase table, 48
# bytes, while evolve holds the int64 energy index and the start
# amplitudes.  At the cap, 128 MiB and 1.0 GiB.
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
                f"and a sweep {64 * dim} bytes more ({64 * dim / 2**30:.1f} GiB): "
                f"two complex state buffers, a complex phase table, an "
                f"energy index and the start amplitudes"
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
    from 0 to 1."""
    if grid < 3:
        raise ValueError("need at least 3 grid points")
    sgrid = np.linspace(0.0, 1.0, int(grid))
    d = diag.dim
    if d > MAX_SECTOR_DIM:
        raise ResourceLimitError(
            f"sector dimension {d} exceeds the dense-scan cap {MAX_SECTOR_DIM}: "
            f"the scan would hold three {d} x {d} float64 matrices of "
            f"{8 * d * d} bytes ({8 * d * d / 2**30:.1f} GiB) each"
        )
    drv, dg = sector_hamiltonian_parts(diag, driver)
    e0 = np.empty(sgrid.size)
    e1 = np.empty(sgrid.size)
    h = np.empty_like(drv)
    for i, s in enumerate(sgrid):
        np.multiply(drv, 1.0 - s, out=h)
        h.flat[:: d + 1] += s * dg
        vals = np.linalg.eigvalsh(h)
        e0[i], e1[i] = vals[0], vals[1]
    return GapProfile(s_grid=sgrid, e0=e0, e1=e1)


def sector_gap_scan(
    gram: GramMatrix,
    encoding: QuditEncoding,
    driver: DriverSpec,
    grid: int = 33,
) -> GapProfile:
    """``gap_scan`` of the compiled lattice problem."""
    model = compile_ising(gram, encoding)
    return gap_scan(ProblemDiagonal.from_model(model), driver, grid)
