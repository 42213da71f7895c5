"""Qudit encodings and the Ising compiler.

A qudit is a column of qubits interpreted as one integer coefficient.  Two
families are supported:

* ``hamming``: the qudit value is half the column's spin sum.  m qubits give
  the range [-m/2, m/2] with binomial redundancy per value.
* ``binary``: qubits are binary digits; q qubits give the bijective range
  [-2**(q-1), 2**(q-1) - 1].

``compile_ising`` expands the Gram quadratic form over these column
operators into spin-pair couplings J, local fields h and a constant offset,
using exact rational arithmetic throughout, so that the model's energy at
every spin configuration equals the squared length of the decoded lattice
vector exactly.

Spin convention: logical bit 0 is spin +1, bit 1 is spin -1.  Configuration
integers are little-endian: qubit q of the grid is bit q, qubits are
numbered position-major inside each qudit column and columns follow the
basis-vector order.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .lattice import GramMatrix, ResourceLimitError

# int64 headroom for exact energies, as in lattice.brute_force_svp
_INT64_BOUND = 2 ** 62


class EncodingError(ValueError):
    pass


@dataclass(frozen=True)
class QuditEncoding:
    family: str  # "hamming" | "binary"
    lo: int
    hi: int
    qubits_per_qudit: int

    def __post_init__(self):
        fam = self.family
        m = self.qubits_per_qudit
        if fam == "hamming":
            if m < 2 or m % 2:
                raise EncodingError("hamming qudits need an even qubit count >= 2")
            if (self.lo, self.hi) != (-m // 2, m // 2):
                raise EncodingError(
                    f"hamming range for {m} qubits is [{-m // 2}, {m // 2}]"
                )
        elif fam == "binary":
            if m < 1:
                raise EncodingError("binary qudits need at least one qubit")
            if (self.lo, self.hi) != (-(2 ** (m - 1)), 2 ** (m - 1) - 1):
                raise EncodingError(
                    f"binary range for {m} qubits is "
                    f"[{-(2 ** (m - 1))}, {2 ** (m - 1) - 1}]"
                )
        else:
            raise EncodingError(f"unknown family {fam!r}")

    @classmethod
    def hamming(cls, k: int | None = None, rng: tuple[int, int] | None = None):
        """Hamming encoding from the range exponent k (range [-2**k, 2**k])
        or an explicit symmetric range."""
        if (k is None) == (rng is None):
            raise EncodingError("give exactly one of k or rng")
        if k is not None:
            if k < 0:
                raise EncodingError("k must be >= 0")
            half = 2 ** k
        else:
            lo, hi = rng
            if hi != -lo or hi < 1:
                raise EncodingError("hamming range must be [-r, r] with r >= 1")
            half = hi
        return cls("hamming", -half, half, 2 * half)

    @classmethod
    def binary(cls, k: int | None = None, rng: tuple[int, int] | None = None):
        """Binary encoding from the range exponent k (range [-2**k, 2**k - 1])
        or an explicit realizable range."""
        if (k is None) == (rng is None):
            raise EncodingError("give exactly one of k or rng")
        if k is not None:
            if k < 0:
                raise EncodingError("k must be >= 0")
            q = k + 1
        else:
            lo, hi = rng
            if lo >= 0 or hi != -lo - 1:
                raise EncodingError(
                    "binary range must be [-2**(q-1), 2**(q-1) - 1]"
                )
            q = (-lo).bit_length()
            if -lo != 2 ** (q - 1):
                raise EncodingError("binary range bound must be a power of two")
        return cls("binary", -(2 ** (q - 1)), 2 ** (q - 1) - 1, q)

    def spin_offset(self) -> Fraction:
        return Fraction(0) if self.family == "hamming" else Fraction(-1, 2)

    def spin_weights(self) -> tuple[Fraction, ...]:
        """Per-position coefficient of the spin in the column operator."""
        m = self.qubits_per_qudit
        if self.family == "hamming":
            return (Fraction(1, 2),) * m
        return tuple(-Fraction(2 ** p, 2) for p in range(m))

    def local_values(self) -> np.ndarray:
        """Qudit value for each of the 2**m local configurations (bit p of
        the local index set means spin -1 at position p)."""
        m = self.qubits_per_qudit
        idx = np.arange(1 << m, dtype=np.int64)
        bits = (idx[:, None] >> np.arange(m)[None, :]) & 1
        spins = 1 - 2 * bits
        if self.family == "hamming":
            twice = spins.sum(axis=1)
            return twice // 2
        w2 = -np.array([2 ** p for p in range(m)], dtype=np.int64)  # 2 * weight
        return (spins @ w2 - 1) // 2


def qudit_value(encoding: QuditEncoding, column) -> int:
    """Integer value of one qudit column of +-1 spins."""
    m = encoding.qubits_per_qudit
    col = list(column)
    if len(col) != m:
        raise EncodingError(f"expected {m} spins, got {len(col)}")
    if any(s not in (-1, 1) for s in col):
        raise EncodingError("spins must be +-1")
    acc = encoding.spin_offset()
    for w, s in zip(encoding.spin_weights(), col):
        acc += w * s
    assert acc.denominator == 1
    return int(acc)


@dataclass(frozen=True)
class QuditLayout:
    """Qubits of each qudit column.  Qudit j must be qubits j*m .. j*m+m-1:
    the energy grids (``problem_diagonal_ints``) and the sweep sector index
    configurations that way, so any other layout is rejected rather than
    misread."""

    encoding: QuditEncoding
    qudits: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        m = self.encoding.qubits_per_qudit
        for j, qudit in enumerate(self.qudits):
            if tuple(qudit) != tuple(range(j * m, (j + 1) * m)):
                raise EncodingError(
                    f"qudit {j} must be qubits {j * m}..{(j + 1) * m - 1}, "
                    f"got {list(qudit)}"
                )

    @property
    def n_qudits(self) -> int:
        return len(self.qudits)


@dataclass(frozen=True)
class SpinConfig:
    bits: tuple[int, ...]  # +-1 spins

    def __post_init__(self):
        bits = tuple(int(b) for b in self.bits)
        if any(b not in (-1, 1) for b in bits):
            raise EncodingError("spins must be +-1")
        object.__setattr__(self, "bits", bits)


@dataclass(frozen=True)
class IsingModel:
    """Compiled problem Hamiltonian: energy(s) = offset + sum h_i s_i +
    sum_{i<j} J_ij s_i s_j, equal to the squared length of the decoded
    lattice vector for every configuration."""

    n_qubits: int
    offset: Fraction
    h: tuple[Fraction, ...]
    couplings: tuple[tuple[int, int, Fraction], ...]  # (i, j, J_ij) with i < j
    layout: QuditLayout

    def energy(self, config: SpinConfig) -> Fraction:
        """Exact energy of a spin configuration."""
        s = config.bits
        if len(s) != self.n_qubits:
            raise EncodingError("configuration length mismatch")
        e = self.offset
        for i, hi in enumerate(self.h):
            if hi:
                e += hi * s[i]
        for i, j, v in self.couplings:
            e += v * s[i] * s[j]
        return e

    def decode(self, config: SpinConfig) -> tuple[int, ...]:
        """Coefficient vector obtained by reading each qudit column."""
        s = config.bits
        if len(s) != self.n_qubits:
            raise EncodingError("configuration length mismatch")
        enc = self.layout.encoding
        return tuple(
            qudit_value(enc, [s[q] for q in qudit]) for qudit in self.layout.qudits
        )

    # -- serialization (exact decimal strings; all denominators are powers
    #    of two, so the decimal expansions terminate) --

    def to_json(self) -> dict:
        return {
            "n_qubits": self.n_qubits,
            "offset": _frac_str(self.offset),
            "h": [_frac_str(v) for v in self.h],
            "J": [[i, j, _frac_str(v)] for i, j, v in self.couplings],
            "layout": {
                "family": self.layout.encoding.family,
                "lo": self.layout.encoding.lo,
                "hi": self.layout.encoding.hi,
                "qubits_per_qudit": self.layout.encoding.qubits_per_qudit,
                "qudits": [list(q) for q in self.layout.qudits],
            },
        }

    @classmethod
    def from_json(cls, obj: dict) -> "IsingModel":
        lay = obj["layout"]
        enc = QuditEncoding(
            family=lay["family"],
            lo=lay["lo"],
            hi=lay["hi"],
            qubits_per_qudit=lay["qubits_per_qudit"],
        )
        return cls(
            n_qubits=int(obj["n_qubits"]),
            offset=Fraction(obj["offset"]),
            h=tuple(Fraction(v) for v in obj["h"]),
            couplings=tuple(
                (int(i), int(j), Fraction(v)) for i, j, v in obj["J"]
            ),
            layout=QuditLayout(enc, tuple(tuple(q) for q in lay["qudits"])),
        )

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json(), f, indent=1)

    @classmethod
    def load(cls, path) -> "IsingModel":
        with open(path) as f:
            return cls.from_json(json.load(f))


def _frac_str(v: Fraction) -> str:
    den = v.denominator
    t = den.bit_length() - 1
    if den != 1 << t:
        raise EncodingError(f"denominator {den} is not a power of two")
    if t == 0:
        return str(v.numerator)
    digits = v.numerator * 5 ** t
    sign = "-" if digits < 0 else ""
    digits = abs(digits)
    s = str(digits).rjust(t + 1, "0")
    return f"{sign}{s[:-t]}.{s[-t:]}"


def compile_ising(gram: GramMatrix, encoding: QuditEncoding) -> IsingModel:
    """Expand sum_{ij} G_ij Q_i Q_j over the column operators into Ising
    coefficients.  Qubit q of qudit j sits at grid index j*m + q."""
    n_dim = gram.dim
    m = encoding.qubits_per_qudit
    n = n_dim * m
    a = encoding.spin_offset()
    w = encoding.spin_weights()
    g = gram.entries

    offset = Fraction(0)
    for i in range(n_dim):
        for j in range(n_dim):
            offset += g[i][j] * a * a
    wsq = sum(wp * wp for wp in w)
    for i in range(n_dim):
        offset += g[i][i] * wsq

    col_sums = [sum(g[i][j] for i in range(n_dim)) for j in range(n_dim)]
    h = [Fraction(0)] * n
    for j in range(n_dim):
        lin = 2 * a * col_sums[j]
        if lin:
            for p in range(m):
                h[j * m + p] = lin * w[p]

    couplings: list[tuple[int, int, Fraction]] = []
    for i in range(n_dim):
        base_i = i * m
        for p in range(m):
            for q in range(p + 1, m):
                v = 2 * g[i][i] * w[p] * w[q]
                if v:
                    couplings.append((base_i + p, base_i + q, v))
        for j in range(i + 1, n_dim):
            if g[i][j] == 0:
                continue
            base_j = j * m
            for p in range(m):
                for q in range(m):
                    v = 2 * g[i][j] * w[p] * w[q]
                    if v:
                        couplings.append((base_i + p, base_j + q, v))
    couplings.sort()

    layout = QuditLayout(
        encoding,
        tuple(tuple(range(j * m, (j + 1) * m)) for j in range(n_dim)),
    )
    return IsingModel(
        n_qubits=n,
        offset=offset,
        h=tuple(h),
        couplings=tuple(couplings),
        layout=layout,
    )


def _broadcast_shape(n_qudits: int, j: int, size: int) -> list[int]:
    # axis order: qudit n-1 first, qudit 0 last, so that flattening in C
    # order makes qudit 0 the least significant digit of the global index
    return [size if ax == n_qudits - 1 - j else 1 for ax in range(n_qudits)]


def problem_diagonal_ints(model: IsingModel, local=None) -> np.ndarray:
    """Energy of every configuration, evaluated from the compiled
    coefficients; exact int64 (coefficients are quarter-integers, so four
    times everything is integral).

    Works per qudit and per qudit pair on small local tables, then lifts
    them onto the full configuration grid by broadcasting.  ``local``
    restricts every qudit to those local configurations (default: all 2^m);
    the result then covers their product grid, flat with qudit 0 as the
    least significant digit.  Raises ResourceLimitError before allocating
    if a partial sum could overflow.
    """
    enc = model.layout.encoding
    n_dim = model.layout.n_qudits
    m = enc.qubits_per_qudit

    def x4(v: Fraction) -> int:
        q, r = divmod(4 * v.numerator, v.denominator)
        if r:
            raise EncodingError("coefficient is not a quarter-integer")
        return q

    off4 = x4(model.offset)
    h4 = [x4(v) for v in model.h]
    couplings4 = [(i, j, x4(v)) for i, j, v in model.couplings]
    # each spin product is +-1, so this bounds every partial sum of the
    # int64 grid built below
    bound = abs(off4) + sum(map(abs, h4)) + sum(abs(v) for _, _, v in couplings4)
    if bound >= _INT64_BOUND:
        raise ResourceLimitError("coefficients too large for exact int64 energies")

    local = np.arange(1 << m) if local is None else local
    local = np.asarray(local, dtype=np.int64)
    size = local.size
    spins = 1 - 2 * ((local[:, None] >> np.arange(m)[None, :]) & 1)  # (size, m)

    h4 = np.array(h4, dtype=np.int64).reshape(n_dim, m)
    intra4 = np.zeros((n_dim, m, m), dtype=np.int64)
    inter4 = {}
    for i, j, v in couplings4:
        qi, pi = divmod(i, m)
        qj, pj = divmod(j, m)
        if qi == qj:
            intra4[qi, pi, pj] = v
        else:
            inter4.setdefault((qi, qj), np.zeros((m, m), dtype=np.int64))[pi, pj] = v

    total = np.full([size] * n_dim, off4, dtype=np.int64)
    for j in range(n_dim):
        t = spins @ h4[j]
        t += np.einsum("cp,pq,cq->c", spins, intra4[j], spins)
        total = total + t.reshape(_broadcast_shape(n_dim, j, size))
    for (qi, qj), mat in inter4.items():
        t = spins @ mat @ spins.T  # [qi local, qj local]
        # qudit qj sits on the earlier grid axis, so its local index must
        # come first when reshaping
        shape = [size if ax in (n_dim - 1 - qi, n_dim - 1 - qj) else 1
                 for ax in range(n_dim)]
        total = total + t.T.reshape(shape)
    flat = total.reshape(-1)
    if (flat % 4).any():
        raise EncodingError("compiled energies are not integers")
    return flat // 4


def parse_encoding(family: str, k: int | None = None,
                   rng: tuple[int, int] | None = None) -> QuditEncoding:
    fam = family.lower()
    if fam in ("ham", "hamming"):
        return QuditEncoding.hamming(k=k, rng=rng)
    if fam in ("bin", "binary"):
        return QuditEncoding.binary(k=k, rng=rng)
    raise EncodingError(f"unknown encoding family {family!r}")
