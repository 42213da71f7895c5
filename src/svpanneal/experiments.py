"""Figures of merit, uniform-sampling baselines, ensemble aggregation and
length histograms.

The four figures of merit for a run's outcome distribution:

* p_zero            probability of the zero vector
* p_shortest        probability of a vector of squared length lambda1^2
* p_shorter_min     probability of 0 < length < shortest input basis vector
* p_shorter_median  probability of 0 < length < median input basis vector

Thresholds use strict inequality; for an even number of basis vectors the
median is the upper-middle element of the ascending lengths.  Instances
whose shortest vector is not expressible in the qudit range are kept (no
post-selection) and simply score zero on p_shortest.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .emulator import SampleSet
from .encoding import QuditEncoding, compile_ising
from .lattice import Basis, GramMatrix, OracleResult, gram
from .spectrum import ProblemDiagonal


@dataclass(frozen=True)
class FourProbs:
    p_zero: float
    p_shortest: float
    p_shorter_min: float
    p_shorter_median: float

    def as_dict(self) -> dict[str, float]:
        return {
            "p_zero": self.p_zero,
            "p_shortest": self.p_shortest,
            "p_shorter_min": self.p_shorter_min,
            "p_shorter_median": self.p_shorter_median,
        }


FOM_NAMES = ("p_zero", "p_shortest", "p_shorter_min", "p_shorter_median")


def basis_thresholds(g: GramMatrix) -> tuple[int, int]:
    """(min, median) squared length of the input basis vectors; the median
    of an even count is the upper-middle element."""
    lens = sorted(g.entries[i][i] for i in range(g.dim))
    return lens[0], lens[len(lens) // 2]


def _length_distribution(outcome) -> dict[int, float]:
    """Probability mass per exact squared length.  Accepts a SampleSet or
    an already-grouped {length_sq: probability} mapping, such as a sweep's
    ``SweepResult.grouped``."""
    if isinstance(outcome, SampleSet):
        levels, counts = np.unique(outcome.lengths_sq, return_counts=True)
        total = outcome.reads
        return {int(l): int(c) / total for l, c in zip(levels, counts)}
    if isinstance(outcome, dict):
        return {int(l): float(p) for l, p in outcome.items()}
    raise TypeError(f"unsupported outcome type {type(outcome).__name__}")


def figures_of_merit(outcome, basis: Basis, oracle: OracleResult) -> FourProbs:
    """The four probabilities for a grouped sweep distribution (exact) or a
    sample set (empirical frequencies)."""
    g = gram(basis)
    dist = _length_distribution(outcome)
    lo, med = basis_thresholds(g)
    p_zero = dist.get(0, 0.0)
    p_shortest = dist.get(oracle.lambda1_sq, 0.0)
    p_min = sum(p for l, p in dist.items() if 0 < l < lo)
    p_med = sum(p for l, p in dist.items() if 0 < l < med)
    return FourProbs(p_zero, p_shortest, p_min, p_med)


def baseline(basis: Basis, encoding: QuditEncoding) -> tuple[float, float]:
    """Uniform-sampling probabilities of drawing a vector shorter than the
    min / median basis vector, each spin configuration weighted once (so
    Hamming redundancy counts).  That distribution is the sweep's start
    state: the sector multiplicities normalised, as ``dynamics.evolve``
    starts from them.  Raises ResourceLimitError before allocating a
    sector of more than ``spectrum.MAX_STATES`` states."""
    g = gram(basis)
    diag = ProblemDiagonal.from_model(compile_ising(g, encoding))
    mult = diag.multiplicity()
    lengths = diag.values
    lo, med = basis_thresholds(g)
    total = mult.sum()
    p_min = float(mult[(lengths > 0) & (lengths < lo)].sum() / total)
    p_med = float(mult[(lengths > 0) & (lengths < med)].sum() / total)
    return p_min, p_med


@dataclass(frozen=True)
class FoMRow:
    dim: int
    encoding: str
    fom: str
    mean: float
    stderr: float
    baseline: float | None


@dataclass(frozen=True)
class FoMReport:
    rows: tuple[FoMRow, ...]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["dim", "encoding", "fom", "mean", "stderr", "baseline"])
            for r in self.rows:
                w.writerow([
                    r.dim, r.encoding, r.fom,
                    f"{r.mean:.10g}", f"{r.stderr:.10g}",
                    "" if r.baseline is None else f"{r.baseline:.10g}",
                ])


@dataclass(frozen=True)
class InstanceRecord:
    """One instance's figures of merit inside an ensemble cell."""

    dim: int
    encoding: str
    probs: FourProbs
    baselines: tuple[float, float] | None = None  # (min, median)


def aggregate(records: list[InstanceRecord]) -> FoMReport:
    """Means and standard errors per (dimension, encoding, figure of
    merit); baselines are averaged over the cell's instances."""
    cells: dict[tuple[int, str], list[InstanceRecord]] = {}
    for rec in records:
        cells.setdefault((rec.dim, rec.encoding), []).append(rec)
    rows: list[FoMRow] = []
    for (dim, enc) in sorted(cells):
        members = cells[(dim, enc)]
        if len(members) < 2:
            raise ValueError(
                f"cell dim={dim} encoding={enc} needs at least 2 instances"
            )
        base = None
        with_base = [m.baselines for m in members if m.baselines is not None]
        if with_base:
            base = (
                float(np.mean([b[0] for b in with_base])),
                float(np.mean([b[1] for b in with_base])),
            )
        for fi, name in enumerate(FOM_NAMES):
            vals = np.array([getattr(m.probs, name) for m in members])
            mean = float(vals.mean())
            stderr = float(vals.std(ddof=1) / math.sqrt(len(vals)))
            b = None
            if base is not None and name == "p_shorter_min":
                b = base[0]
            elif base is not None and name == "p_shorter_median":
                b = base[1]
            rows.append(FoMRow(dim, enc, name, mean, stderr, b))
    return FoMReport(rows=tuple(rows))


@dataclass(frozen=True)
class LengthHistogram:
    """Counts per squared length with shortest-vector and basis-length
    markers.  For sample sets the counts are read counts; for sweep results
    they are probability mass (shots normalized to 1)."""

    bins: dict[int, float]
    lambda1_sq: int
    basis_lengths_sq: tuple[int, ...]

    def total(self) -> float:
        return sum(self.bins.values())

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["len_sq", "count", "ln_len_sq"])
            for l in sorted(self.bins):
                ln = f"{math.log(l):.10g}" if l > 0 else ""
                w.writerow([l, f"{self.bins[l]:.10g}", ln])
            w.writerow([])
            w.writerow(["marker", "value", ""])
            w.writerow(["lambda1_sq", self.lambda1_sq, ""])
            for b in self.basis_lengths_sq:
                w.writerow(["basis_len_sq", b, ""])


def histogram(outcome, basis: Basis, oracle: OracleResult) -> LengthHistogram:
    g = gram(basis)
    dist = _length_distribution(outcome)
    if isinstance(outcome, SampleSet):
        bins = {l: p * outcome.reads for l, p in dist.items()}
    else:
        bins = dict(dist)
    return LengthHistogram(
        bins=bins,
        lambda1_sq=oracle.lambda1_sq,
        basis_lengths_sq=tuple(g.entries[i][i] for i in range(g.dim)),
    )
