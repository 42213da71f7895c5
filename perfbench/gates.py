"""Correctness checks run on every job of every benchmark run.

Each check returns a list of ``(layer, message)`` failures, empty when the
output is correct.  Lengths are recomputed here from the Gram matrix and the
qudit definitions, without calling svpanneal, so a fault in the package
cannot hide itself.  Sweeps, gap scans and the oracle are deterministic and
are compared with reference outputs recorded at the seed commit; annealer
samples are random, so they are compared with the reference statistically.
"""
from __future__ import annotations

import itertools
import math

PROB_SUM_TOL = 1e-9
FOM_TOL = 1e-9
GAP_RTOL = 1e-8
# how far (in standard errors) an ensemble figure of merit may sit from the
# reference before the anneal gate fails; 5 keeps false alarms below 1e-5
# per check while a biased sampler still fails
ENSEMBLE_Z_MAX = 5.0

Failures = list[tuple[str, str]]


def gram_rows(basis_rows) -> list[list[int]]:
    n = len(basis_rows)
    return [
        [sum(basis_rows[i][k] * basis_rows[j][k] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def gram_length(g, x) -> int:
    n = len(g)
    return sum(x[i] * x[j] * g[i][j] for i in range(n) for j in range(n))


def gram_values(g, lo: int, hi: int) -> set[int]:
    """Every squared length x^T G x over the coefficient box [lo, hi]^n."""
    return {
        gram_length(g, x)
        for x in itertools.product(range(lo, hi + 1), repeat=len(g))
    }


def decode_spins(spins, qudits, family: str) -> tuple[int, ...]:
    """Coefficient vector of a logical +-1 configuration: a Hamming qudit is
    half its spin sum; a binary qudit with spins s_p has the value
    (-1 - sum_p 2**p s_p) / 2."""
    out = []
    for qudit in qudits:
        col = [int(spins[q]) for q in qudit]
        if family == "hamming":
            twice = sum(col)
        else:
            twice = -1 - sum((1 << p) * s for p, s in enumerate(col))
        out.append(twice // 2)
    return tuple(out)


def check_sweep_runs(runs, norm_bound: float, allowed_lengths: set[int]) -> Failures:
    """Per sweep: probabilities sum to one, norm drift under the
    integrator's bound, and every outcome length is a Gram-form value."""
    bad: Failures = []
    for run in runs:
        T = run["T"]
        total = math.fsum(run["grouped"].values())
        if abs(total - 1.0) > PROB_SUM_TOL:
            bad.append(("dynamics", f"T={T}: probabilities sum to {total!r}"))
        if not run["norm_drift"] < norm_bound:
            bad.append(("dynamics", f"T={T}: norm drift {run['norm_drift']:.3e}"))
        stray = sorted(int(k) for k in run["grouped"] if int(k) not in allowed_lengths)
        if stray:
            bad.append(("dynamics", f"T={T}: lengths {stray[:5]} are not Gram values"))
    return bad


def check_foms(foms, ref_foms, tol: float = FOM_TOL) -> Failures:
    """Figures of merit per sweep duration against the reference."""
    if len(foms) != len(ref_foms):
        return [("experiments", f"{len(foms)} FoM rows, reference has {len(ref_foms)}")]
    bad: Failures = []
    for i, (row, ref) in enumerate(zip(foms, ref_foms)):
        for name, v in row.items():
            if not abs(v - ref[name]) <= tol:
                bad.append(("experiments", f"row {i} {name}: {v!r} vs {ref[name]!r}"))
    return bad


def check_gaps(gaps, ref_gaps, rtol: float = GAP_RTOL) -> Failures:
    """Sector gaps against the reference, relative tolerance with a floor
    of one energy unit so gaps near zero are compared absolutely."""
    if len(gaps) != len(ref_gaps):
        return [("spectrum", f"{len(gaps)} gap points, reference has {len(ref_gaps)}")]
    bad: Failures = []
    for i, (g, r) in enumerate(zip(gaps, ref_gaps)):
        if not abs(g - r) <= rtol * max(abs(r), 1.0):
            bad.append(("spectrum", f"gap {i}: {g!r} vs {r!r}"))
    return bad


def check_oracle(lambda1_sq: int, witnesses, ref, g) -> Failures:
    """lambda1^2 and the witness set equal the reference, and each witness
    has Gram length lambda1^2 (g: Gram matrix in the witness frame)."""
    bad: Failures = []
    if lambda1_sq != ref["lambda1_sq"]:
        bad.append(("lattice", f"lambda1^2 {lambda1_sq} vs {ref['lambda1_sq']}"))
    got = sorted(tuple(w) for w in witnesses)
    if got != sorted(tuple(w) for w in ref["witnesses"]):
        bad.append(("lattice", "witness set differs from the reference"))
    for w in got:
        if gram_length(g, w) != lambda1_sq:
            bad.append(("lattice", f"witness {w} has length^2 {gram_length(g, w)}"))
    return bad


def check_samples(samples, g, qudits, family: str) -> Failures:
    """Every sample's length_sq equals the Gram length of its own decoded
    coefficients."""
    bad: Failures = []
    for i, smp in enumerate(samples):
        x = decode_spins(smp["logical_config"], qudits, family)
        want = gram_length(g, x)
        if smp["length_sq"] != want:
            bad.append(("emulator", f"sample {i}: length_sq {smp['length_sq']} vs {want}"))
    return bad


def ensemble_z(hits: list[int], reads: list[int], ref_p: list[float],
               ref_reads: int) -> float:
    """Distance, in standard errors, between a pooled hit frequency and the
    reference probabilities of the same jobs.

    Job j drew reads[j] independent reads and hit hits[j] times; the
    reference estimated its probability as ref_p[j] from ref_reads reads.
    Both binomial errors count; probabilities are floored at half a
    reference read so a level the reference never saw still has an error.
    """
    total = sum(reads)
    obs = sum(hits) / total
    exp = sum(r * p for r, p in zip(reads, ref_p)) / total
    floor = 0.5 / ref_reads
    var = 0.0
    for r, p in zip(reads, ref_p):
        q = min(max(p, floor), 1.0 - floor)
        var += r * q * (1 - q) + r * r * q * (1 - q) / ref_reads
    return abs(obs - exp) / math.sqrt(var / (total * total))
