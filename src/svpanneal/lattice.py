"""Integer-lattice algebra: bases, Gram matrices, HNF, qubit budgets, instance
generation, and an exhaustive shortest-vector oracle.

All matrix arithmetic in this module is exact (Python integers); floating
point appears only in the Minkowski/budget formulas, which are real-valued
by definition.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

Rows = tuple[tuple[int, ...], ...]


class LatticeError(ValueError):
    pass


class ResourceLimitError(RuntimeError):
    """Raised when an exhaustive enumeration would exceed its point budget."""


def _as_rows(rows) -> Rows:
    out = []
    for r in rows:
        row = []
        for v in r:
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise LatticeError(f"non-integer entry {v!r}")
            row.append(int(v))
        out.append(tuple(row))
    return tuple(out)


def det_exact(rows: Rows) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    n = len(rows)
    m = [list(r) for r in rows]
    if any(len(r) != n for r in m):
        raise LatticeError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class Basis:
    """Square integer row basis; each row is one basis vector."""

    rows: Rows

    def __post_init__(self):
        rows = _as_rows(self.rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise LatticeError("basis must be a non-empty square matrix")
        if det_exact(rows) == 0:
            raise LatticeError("basis is singular")

    @property
    def dim(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class GramMatrix:
    entries: Rows

    def __post_init__(self):
        object.__setattr__(self, "entries", _as_rows(self.entries))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def as_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=np.int64)


@dataclass(frozen=True)
class HnfBasis:
    rows: Rows
    pivots: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", _as_rows(self.rows))
        object.__setattr__(self, "pivots", tuple(int(p) for p in self.pivots))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def covolume(self) -> int:
        return math.prod(self.pivots)


@dataclass(frozen=True)
class OracleResult:
    lambda1_sq: int
    witnesses: tuple[tuple[int, ...], ...]
    search_box: tuple[tuple[int, int], ...]


def gram(basis: Basis) -> GramMatrix:
    """Pairwise dot products of the basis rows."""
    n = basis.dim
    rows = basis.rows
    g = [
        [sum(rows[i][k] * rows[j][k] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    return GramMatrix(tuple(tuple(r) for r in g))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return x, y, g


def hnf(basis: Basis) -> HnfBasis:
    """Unique row-style Hermite Normal Form of the lattice.

    Upper triangular, positive pivots on the diagonal, entries above each
    pivot reduced modulo it.  Exact integer row operations only, so the
    result generates the same lattice as the input.
    """
    n = basis.dim
    rows = [list(r) for r in basis.rows]
    for j in range(n):
        piv = None
        for i in range(j, n):
            if rows[i][j] != 0:
                piv = i
                break
        if piv is None:
            raise LatticeError("basis is singular")
        rows[j], rows[piv] = rows[piv], rows[j]
        for i in range(j + 1, n):
            while rows[i][j] != 0:
                a, b = rows[j][j], rows[i][j]
                x, y, g = _xgcd(a, b)
                ag, bg = a // g, b // g
                rj, ri = rows[j], rows[i]
                rows[j] = [x * rj[k] + y * ri[k] for k in range(n)]
                rows[i] = [ag * ri[k] - bg * rj[k] for k in range(n)]
        if rows[j][j] < 0:
            rows[j] = [-v for v in rows[j]]
        for i in range(j):
            q = rows[i][j] // rows[j][j]
            if q:
                rows[i] = [rows[i][k] - q * rows[j][k] for k in range(n)]
    return HnfBasis(tuple(tuple(r) for r in rows), tuple(rows[j][j] for j in range(n)))


def is_optimal_hnf(h: HnfBasis) -> bool:
    """True iff exactly one pivot differs from 1.

    The identity lattice (no non-unit pivot) is deliberately classified as
    not optimal.
    """
    return sum(1 for p in h.pivots if p != 1) == 1


def minkowski_bound(n: int, d: int | float) -> float:
    """Upper bound sqrt(n) * d**(1/n) on the shortest vector length."""
    if n < 1 or d < 1:
        raise LatticeError("need n >= 1 and covolume >= 1")
    return math.sqrt(n) * d ** (1.0 / n)


@dataclass(frozen=True)
class QubitBudget:
    per_qudit: int
    total: int


# guard against float slop when the formula lands exactly on an integer
_CEIL_EPS = 1e-9


def qubit_budget(n: int, d: int | float, family: str) -> QubitBudget:
    """Qubits sufficient to express a shortest vector of an optimal-HNF
    lattice: per-qudit count and grid total for the given encoding family.
    """
    if n < 1 or d < 1:
        raise LatticeError("need n >= 1 and covolume >= 1")
    fam = family.lower()
    if fam in ("binary", "bin"):
        per = math.ceil(1 + 1.5 * math.log2(n) + math.log2(d) / n - _CEIL_EPS)
    elif fam in ("hamming", "ham"):
        per = math.ceil(2 * n ** 1.5 * d ** (1.0 / n) - _CEIL_EPS)
    else:
        raise LatticeError(f"unknown encoding family {family!r}")
    per = max(per, 1)
    return QubitBudget(per_qudit=per, total=n * per)


def coefficient_box(n: int, d: int | float) -> tuple[tuple[int, int], ...]:
    """Per-coordinate coefficient intervals guaranteed to contain a shortest
    vector of an optimal-HNF lattice (in its HNF coordinates): half-width
    sqrt(n)*d**(1/n) for the first n-1 coordinates and n**1.5 * d**(1/n) for
    the last.
    """
    if n < 1 or d < 1:
        raise LatticeError("need n >= 1 and covolume >= 1")
    a = math.floor(math.sqrt(n) * d ** (1.0 / n) + _CEIL_EPS)
    c = math.floor(n ** 1.5 * d ** (1.0 / n) + _CEIL_EPS)
    return tuple([(-a, a)] * (n - 1) + [(-c, c)])


@dataclass(frozen=True)
class Instance:
    good: Basis
    bad: Basis
    unimodular: Rows
    seed: int

    @property
    def dim(self) -> int:
        return self.good.dim

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "good_basis": [list(r) for r in self.good.rows],
            "bad_basis": [list(r) for r in self.bad.rows],
            "unimodular": [list(r) for r in self.unimodular],
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Instance":
        return cls(
            good=Basis(_as_rows(obj["good_basis"])),
            bad=Basis(_as_rows(obj["bad_basis"])),
            unimodular=_as_rows(obj["unimodular"]),
            seed=int(obj["seed"]),
        )

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json(), f, indent=1)

    @classmethod
    def load(cls, path) -> "Instance":
        with open(path) as f:
            return cls.from_json(json.load(f))


_UNIMOD_ENTRY_CAP = 6
_SHEAR_CAP = 3


def random_unimodular(n: int, rng: np.random.Generator) -> Rows:
    """Random determinant +-1 matrix with entries in [-6, 6], built from 4n
    elementary row operations (swap, sign flip, shear); an operation that
    would push an entry past the cap is redrawn.
    """
    n_ops = 4 * n
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    applied = 0
    attempts = 0
    while applied < n_ops and attempts < 40 * n_ops:
        attempts += 1
        kind = rng.integers(0, 3)
        i = int(rng.integers(0, n))
        if kind == 0:
            j = int(rng.integers(0, n))
            if i == j:
                continue
            u[i], u[j] = u[j], u[i]
            applied += 1
        elif kind == 1:
            u[i] = [-v for v in u[i]]
            applied += 1
        else:
            j = int(rng.integers(0, n))
            if i == j:
                continue
            c = int(rng.integers(1, _SHEAR_CAP + 1)) * (1 if rng.integers(0, 2) else -1)
            new_row = [u[i][k] + c * u[j][k] for k in range(n)]
            if max(abs(v) for v in new_row) <= _UNIMOD_ENTRY_CAP:
                u[i] = new_row
                applied += 1
    return tuple(tuple(r) for r in u)


def generate_instance(n: int, seed: int) -> Instance:
    """Seeded SVP instance: a {0,1} full-rank 'good' basis and the 'bad'
    basis obtained by mixing its rows with a random unimodular matrix
    (entries in [-6, 6]), so both generate the same lattice.
    """
    if n < 2:
        raise LatticeError("need dimension >= 2")
    rng = np.random.default_rng(seed)
    while True:
        rows = tuple(
            tuple(int(v) for v in rng.integers(0, 2, size=n)) for _ in range(n)
        )
        if det_exact(rows) != 0:
            good = Basis(rows)
            break
    u = random_unimodular(n, rng)
    bad_rows = tuple(
        tuple(
            sum(u[i][k] * good.rows[k][j] for k in range(n)) for j in range(n)
        )
        for i in range(n)
    )
    return Instance(good=good, bad=Basis(bad_rows), unimodular=u, seed=seed)


_DEFAULT_POINT_CAP = 10 ** 9
_CHUNK = 1 << 18


def brute_force_svp(basis: Basis, box: tuple[tuple[int, int], ...]) -> OracleResult:
    """Exhaustive shortest-vector search over a per-coordinate coefficient
    box.  Returns the minimum squared length over nonzero coefficient
    vectors and every minimizer, in lexicographic order.

    The box is enumerated in chunks of ``_CHUNK`` points; the result is
    independent of the chunk size.  A box of more than
    ``_DEFAULT_POINT_CAP`` points is refused before enumerating.
    """
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
    if total > _DEFAULT_POINT_CAP:
        raise ResourceLimitError(
            f"box holds {total} points, above the cap of {_DEFAULT_POINT_CAP}"
        )

    g = gram(basis).as_array()
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
    best_x: list[tuple[int, ...]] = []
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


def auto_box(basis: Basis) -> tuple[tuple[int, int], ...]:
    """Coefficient box for the HNF coordinates of this basis, sized by the
    optimal-HNF sufficiency intervals."""
    h = hnf(basis)
    return coefficient_box(h.dim, h.covolume)
