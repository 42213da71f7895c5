"""Integer-lattice algebra: bases, Gram matrices, HNF, qubit budgets, instance
generation, and a shortest-vector oracle that enumerates a coefficient box.

All matrix arithmetic in this module is exact (Python integers); floating
point appears only in the Minkowski/budget formulas, which are real-valued
by definition, and in the oracle's pruning bounds, which never decide an
energy.
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
    """Raised before any work starts when a job would exceed a budget: an
    oracle box over its point budget, energies outside the exact int64
    range, or a sector over a cap (``spectrum.MAX_STATES`` in
    ``ProblemDiagonal.from_model``, ``spectrum.MAX_SECTOR_DIM`` in
    ``gap_scan``)."""


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
# prune slack >> ~n*eps*bound, the float error of any partial sum (bound >= |x|^T|G||x| in the box)
_REL_SLACK = 1e-9
_ABS_SLACK = 1e-6


def _gram_schmidt(g: Rows) -> tuple[list[float], list[list[float]]]:
    """Float factors of x^T G x = sum_j q[j] * (x_j + sum_{i>j} mu[i][j] x_i)^2.

    The squared Gram-Schmidt norms q and coefficients mu come from exact
    integral Gram-Schmidt on the Gram matrix (Cohen, Alg. 2.6.7) and are
    each rounded once, so every q is positive however ill-conditioned G is.
    """
    n = len(g)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            u = g[i][j]
            for k in range(j):
                u = (d[k + 1] * u - lam[i][k] * lam[j][k]) // d[k]
            if j < i:
                lam[i][j] = u
            else:
                d[i + 1] = u
    q = [d[j + 1] / d[j] for j in range(n)]
    mu = [[lam[i][j] / d[j + 1] for j in range(n)] for i in range(n)]
    return q, mu


def brute_force_svp(basis: Basis, box: tuple[tuple[int, int], ...]) -> OracleResult:
    """Shortest-vector search bounded by a per-coordinate coefficient box.
    Returns the minimum squared length over nonzero coefficient vectors in
    the box and every minimizer, in lexicographic order.

    Depth-first Fincke-Pohst enumeration from the last coordinate down:
    each coordinate runs over its box interval cut to the interval around
    its centre that keeps the partial sum within the radius.  The radius
    starts at the smallest G_ii whose unit vector lies in the box and
    shrinks to the best exact energy found, inclusively, so ties survive.
    Float factors only prune (with a slack); every leaf's energy is exact.
    A box of more than ``_DEFAULT_POINT_CAP`` points is refused before
    enumerating.
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
    total = math.prod(hi - lo + 1 for lo, hi in box)
    if total == 1:
        raise LatticeError("box holds no nonzero vector")
    if total > _DEFAULT_POINT_CAP:
        raise ResourceLimitError(
            f"box holds {total} points, above the cap of {_DEFAULT_POINT_CAP}"
        )

    g = gram(basis).entries
    # energies past int64 are refused: the package keeps energy arrays as int64
    max_abs = max(max(abs(lo), abs(hi)) for lo, hi in box)
    bound = (n * max_abs) ** 2 * max(abs(v) for row in g for v in row)
    if bound >= 2 ** 62:
        raise ResourceLimitError("coefficient box too large for exact int64 energies")

    q, mu = _gram_schmidt(g)
    slack = _REL_SLACK * bound + _ABS_SLACK
    best = min(g[i][i] for i, (lo, hi) in enumerate(box) if lo < 0 or hi > 0)
    best_x: list[tuple[int, ...]] = []
    x = [0] * n

    def visit(j: int, partial: float) -> None:
        nonlocal best, best_x
        c = -sum(mu[i][j] * x[i] for i in range(j + 1, n))
        w = math.sqrt(max(best + slack - partial, 0.0) / q[j])
        lo, hi = box[j]
        for v in range(max(lo, math.ceil(c - w)), min(hi, math.floor(c + w)) + 1):
            t = partial + q[j] * (v - c) ** 2
            if t > best + slack:
                continue
            x[j] = v
            if j:
                visit(j - 1, t)
            elif any(x):
                e = sum(g[a][b] * x[a] * x[b] for a in range(n) for b in range(n))
                if e < best:
                    best, best_x = e, [tuple(x)]
                elif e == best:
                    best_x.append(tuple(x))
        x[j] = 0

    visit(n - 1, 0.0)
    return OracleResult(
        lambda1_sq=best, witnesses=tuple(sorted(best_x)), search_box=box
    )


def auto_box(basis: Basis | HnfBasis) -> tuple[tuple[int, int], ...]:
    """Coefficient box for the HNF coordinates of this basis, sized by the
    optimal-HNF sufficiency intervals; an ``HnfBasis`` is used as it is."""
    h = basis if isinstance(basis, HnfBasis) else hnf(basis)
    return coefficient_box(h.dim, h.covolume)
