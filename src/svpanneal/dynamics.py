"""Closed-system sweep simulator.

Starts from the driver ground state (uniform superposition), integrates the
time-dependent Schroedinger equation for the linear sweep, and reports the
final measurement distribution grouped by squared lattice-vector length.

The propagator is a fourth-order splitting: both factors (diagonal phase and
per-qudit driver rotations) are applied exactly, so every step is unitary
and norm drift is limited to float roundoff.  The state stays in the
computational basis: a substep applies one complex d x d driver propagator
along every qudit axis, then the problem phase, taken over the distinct
energies only (``_kernels.yoshida_sweep_sector``).  The default window count
scales with T * (max problem energy + h0 * n), which bounds the phase
advanced per window, n being the real qubit count.  Every problem is
integrated on its one representation, the qudit sector of
``spectrum.ProblemDiagonal``: (m+1)^N ladder states for a Hamming problem,
one 2^q-level axis per qudit (the full space) for a binary one.  The final
distribution ``SweepResult.probs`` lives on that sector, aligned with
``diag.values``; the sector size is capped once, by
``spectrum.MAX_STATES`` in ``ProblemDiagonal.from_model``, before anything
is allocated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .spectrum import DriverSpec, ProblemDiagonal

# radians of worst-case phase advanced per splitting window at the default
# resolution, plus a per-unit-time floor so short low-energy sweeps stay
# resolved.  Not a stated accuracy: on 3D binary [-4,3] seed 0 at T = 64
# the default moved grouped probabilities by 2.2e-6 against 8x the windows,
# but halving the window count moved them by 1.5e-1; on 3D Hamming [-2,2]
# at T = 32, by 9.3e-7 and 8.5e-4
PHASE_PER_WINDOW = 8.0
WINDOWS_PER_TIME = 32.0
MIN_WINDOWS = 8
NORM_DRIFT_BOUND = 1e-9


class IntegratorError(RuntimeError):
    pass


@dataclass(frozen=True)
class SweepSchedule:
    """Linear sweep of duration T (hbar = 1, inverse energy units; not
    comparable to hardware microseconds).  ``windows`` overrides the
    automatic step count."""

    T: float
    windows: int | None = None

    def __post_init__(self):
        if not self.T > 0:
            raise ValueError("sweep duration must be positive")
        if self.windows is not None and self.windows < 1:
            raise ValueError("window count must be positive")


def auto_windows(diag: ProblemDiagonal, driver: DriverSpec, T: float) -> int:
    scale = float(diag.values.max()) + driver.h0 * diag.n_qubits
    return max(
        MIN_WINDOWS,
        math.ceil(T * scale / PHASE_PER_WINDOW),
        math.ceil(T * WINDOWS_PER_TIME),
    )


@dataclass(frozen=True)
class SweepResult:
    T: float
    windows: int
    probs: np.ndarray  # over the sector states, aligned with diag.values
    grouped: dict[int, float]
    norm_drift: float

    @property
    def p_zero(self) -> float:
        return self.grouped.get(0, 0.0)

    @property
    def p_lambda1(self) -> float:
        """Probability of the smallest expressible nonzero squared length."""
        lv = self._nonzero_levels()
        return self.grouped[lv[0]] if lv else 0.0

    @property
    def p_second(self) -> float:
        """Probability of the second smallest nonzero squared length."""
        lv = self._nonzero_levels()
        return self.grouped[lv[1]] if len(lv) > 1 else 0.0

    def _nonzero_levels(self) -> list[int]:
        return sorted(k for k in self.grouped if k > 0)


def evolve(
    diag: ProblemDiagonal,
    driver: DriverSpec,
    schedule: SweepSchedule,
) -> SweepResult:
    """Integrate the sweep and return final outcome probabilities grouped
    by squared length.

    The sweep runs in the problem's qudit sector, which the dynamics never
    leave, from the uniform superposition (each sector state weighted by
    the square root of its multiplicity).  Its start distribution,
    ``diag.multiplicity()`` normalised, is uniform sampling over spin
    configurations, the distribution ``experiments.baseline`` scores.
    ``probs`` is the final distribution over the sector states, aligned
    with ``diag.values``; ``grouped`` sums it per distinct energy, on the
    index the kernel's phase table uses.
    """
    windows = schedule.windows or auto_windows(diag, driver, schedule.T)
    local = diag.driver()
    shape = (local.shape[0],) * diag.n_qudits
    energies, inverse = np.unique(diag.values, return_inverse=True)
    # complex start amplitudes sqrt(mult / total): the kernel propagates
    # them in place, so no real copy stays alive through the sweep
    mult = diag.multiplicity()
    psi = np.zeros(shape, np.complex128)
    np.sqrt(mult.reshape(shape) / mult.sum(), out=psi.real)
    del mult
    psi = _kernels.yoshida_sweep_sector(
        psi, energies, inverse, local, driver.h0, schedule.T, windows,
    ).reshape(-1)
    norm = float(np.linalg.norm(psi))
    drift = abs(1.0 - norm)
    if drift > NORM_DRIFT_BOUND:
        raise IntegratorError(
            f"norm drift {drift:.3e} exceeds {NORM_DRIFT_BOUND:.0e} "
            f"(T={schedule.T}, windows={windows})"
        )
    probs = (np.abs(psi) ** 2) / (norm * norm)
    mass = np.bincount(inverse, weights=probs)
    grouped = {int(l): float(p) for l, p in zip(energies, mass)}
    return SweepResult(
        T=schedule.T,
        windows=windows,
        probs=probs,
        grouped=grouped,
        norm_drift=drift,
    )


def parse_T_list(spec: str) -> list[float]:
    """Sweep lists like '2^0..2^10' (powers of two), '1,2,4' or '16';
    raises ValueError if the list is empty, a duration is not positive and
    finite, or a range endpoint is not an integer power of two."""
    spec = spec.strip()
    if ".." in spec:
        lo_s, hi_s = spec.split("..", 1)
        if not (lo_s.strip().startswith("2^") and hi_s.strip().startswith("2^")):
            raise ValueError("ranges need the 2^a..2^b form")
        a, b = (math.log2(_parse_T(part)) for part in (lo_s, hi_s))
        if not (a.is_integer() and b.is_integer()):
            raise ValueError(
                f"range endpoints of {spec!r} must be integer powers of two"
            )
        Ts = [float(2 ** e) for e in range(int(a), int(b) + 1)]
    else:
        Ts = [_parse_T(part) for part in spec.split(",") if part.strip()]
    if not Ts:
        raise ValueError(f"no sweep durations in {spec!r}")
    return Ts


def _parse_T(s: str) -> float:
    s = s.strip()
    try:
        T = 2.0 ** float(s[2:]) if s.startswith("2^") else float(s)
    except OverflowError:
        T = math.inf
    if not 0.0 < T < math.inf:
        raise ValueError(f"sweep duration {s!r} is not positive and finite")
    return T
