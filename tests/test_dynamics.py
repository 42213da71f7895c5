import time
import tracemalloc

import numpy as np
import pytest

import svpanneal as sa
from svpanneal import _kernels, dynamics

from oracles import (
    eigenbasis_sweep_reference, group_probabilities, reference_evolution, sector_index,
)


def tiny_model(seed=5, family="binary"):
    inst = sa.generate_instance(2, seed)
    enc = (sa.QuditEncoding.binary(k=1) if family == "binary"
           else sa.QuditEncoding.hamming(k=1))
    return inst, sa.compile_ising(sa.gram(inst.bad), enc)


def tiny_problem(seed=5, family="binary"):
    inst, model = tiny_model(seed, family)
    return inst, model.layout.encoding, sa.ProblemDiagonal.from_model(model)


def on_full_space(model, probs):
    """Sector probabilities over the full space, each sector state's share
    split equally among its configurations (by the independent index)."""
    index = sector_index(model.layout.encoding, model.layout.n_qudits)
    return probs[index] / np.bincount(index)[index]


class TestEvolve:
    def test_sudden_quench_is_uniform(self):
        _, enc, diag = tiny_problem()
        res = sa.evolve(diag, sa.DriverSpec(), sa.SweepSchedule(T=1e-6))
        assert np.abs(res.probs - 1.0 / diag.dim).max() < 1e-4
        # grouped mass equals degeneracy / 2^n
        for level, p in res.grouped.items():
            degeneracy = int((diag.values == level).sum())
            assert p == pytest.approx(degeneracy / diag.dim, abs=1e-4)

    def test_probabilities_sum_to_one(self):
        _, _, diag = tiny_problem()
        for T in (0.5, 4.0, 32.0):
            res = sa.evolve(diag, sa.DriverSpec(), sa.SweepSchedule(T=T))
            assert res.probs.sum() == pytest.approx(1.0, abs=1e-9)
            assert sum(res.grouped.values()) == pytest.approx(1.0, abs=1e-9)

    def test_norm_drift_bounded_and_logged(self):
        _, _, diag = tiny_problem()
        res = sa.evolve(diag, sa.DriverSpec(), sa.SweepSchedule(T=64.0))
        assert res.norm_drift <= 1e-9

    def test_adiabatic_limit_small_instance(self):
        _, _, diag = tiny_problem(family="hamming")
        res = sa.evolve(diag, sa.DriverSpec(), sa.SweepSchedule(T=512.0))
        assert res.p_zero > 0.95

    def test_one_qubit_against_reference_integration(self):
        # Landau-Zener-style half-crossing on one qubit
        diag = sa.ProblemDiagonal(np.array([0, 2]))
        drv = sa.DriverSpec(1.0)
        for T in (1.0, 8.0):
            res = sa.evolve(diag, drv, sa.SweepSchedule(T=T))
            steps = 10 * max(res.windows, 2000)
            psi_ref = reference_evolution([0, 2], 1.0, T, steps)
            assert np.abs(res.probs - np.abs(psi_ref) ** 2).max() < 1e-6

    def test_step_halving_converged(self):
        _, _, diag = tiny_problem(family="hamming")
        drv = sa.DriverSpec(1.0)
        for T in (4.0, 64.0):
            base = sa.evolve(diag, drv, sa.SweepSchedule(T=T))
            fine = sa.evolve(
                diag, drv, sa.SweepSchedule(T=T, windows=2 * base.windows)
            )
            assert np.abs(base.probs - fine.probs).max() < 1e-6

    def test_qubit_cap(self):
        # 3D binary k=8: 27 qubits, whose 2^27-state sector is over the cap
        g = sa.gram(sa.generate_instance(3, 0).bad)
        model = sa.compile_ising(g, sa.QuditEncoding.binary(k=8))
        t0 = time.perf_counter()
        with pytest.raises(sa.ResourceLimitError, match=str(2 ** 27)):
            sa.ProblemDiagonal.from_model(model)
        assert time.perf_counter() - t0 < 0.5

    def test_p_level_accessors(self):
        _, _, diag = tiny_problem()
        res = sa.evolve(diag, sa.DriverSpec(), sa.SweepSchedule(T=2.0))
        levels = sorted(k for k in res.grouped if k > 0)
        assert res.p_zero == res.grouped[0]
        assert res.p_lambda1 == res.grouped[levels[0]]
        assert res.p_second == res.grouped[levels[1]]


def model_3d(enc, seed=0):
    inst = sa.generate_instance(3, seed)
    return sa.compile_ising(sa.gram(inst.bad), enc)


SECTOR_PROBLEMS = {
    "hamming-2d-k1": lambda: tiny_model(family="hamming")[1],
    "hamming-3d-r2": lambda: model_3d(sa.QuditEncoding.hamming(rng=(-2, 2))),
    "binary-3d-r4": lambda: model_3d(sa.QuditEncoding.binary(k=2)),
}


class TestSectorPath:
    """Every sweep runs on a product of per-qudit local spaces: (m+1)-level
    ladders for Hamming, one 2^q-level axis per binary qudit.  The full
    2^n diagonal of the same model (n one-qubit axes) and a dense
    Runge-Kutta integration are the references, compared through the
    independent full-space-to-sector index."""

    @pytest.mark.parametrize("problem", list(SECTOR_PROBLEMS))
    @pytest.mark.parametrize("T", [0.5, 4.0, 32.0])
    def test_matches_full_space(self, problem, T):
        model = SECTOR_PROBLEMS[problem]()
        diag = sa.ProblemDiagonal.from_model(model)
        drv = sa.DriverSpec(1.0)
        sched = sa.SweepSchedule(T=T)
        sector = sa.evolve(diag, drv, sched)
        full = sa.evolve(sa.ProblemDiagonal(sa.problem_diagonal_ints(model)), drv, sched)
        assert sector.windows == full.windows
        assert sector.grouped.keys() == full.grouped.keys()
        for level, p in full.grouped.items():
            assert abs(sector.grouped[level] - p) < 1e-10
        assert sector.probs.shape == (diag.dim,)
        assert group_probabilities(diag.values, sector.probs) == sector.grouped
        assert np.abs(on_full_space(model, sector.probs) - full.probs).max() < 1e-10
        assert sector.norm_drift < dynamics.NORM_DRIFT_BOUND

    @pytest.mark.parametrize("family", ["hamming", "binary"])
    def test_matches_reference_integration(self, family):
        _, model = tiny_model(family=family)
        T = 2.0
        res = sa.evolve(sa.ProblemDiagonal.from_model(model), sa.DriverSpec(1.0),
                        sa.SweepSchedule(T=T))
        psi_ref = reference_evolution(sa.problem_diagonal_ints(model), 1.0, T,
                                      10 * res.windows)
        assert np.abs(on_full_space(model, res.probs) - np.abs(psi_ref) ** 2).max() < 1e-6

    def test_layout_must_match_diagonal(self):
        # 3^2 sector states of 4-configuration qudits; 8 values would be
        # three one-qubit qudits, but not with this level map
        _, _, diag = tiny_problem(family="hamming")
        with pytest.raises(ValueError):
            sa.ProblemDiagonal(diag.values[:8], diag.level)
        with pytest.raises(ValueError):
            sa.ProblemDiagonal(diag.values, diag.level[:3])

    def test_needs_one_qubit(self):
        with pytest.raises(ValueError):
            sa.ProblemDiagonal(np.array([0]))


def popcounts(m):
    """Hamming-ladder level map of an m-qubit column: the weight of each
    configuration."""
    return [bin(c).count("1") for c in range(1 << m)]


# one qudit's level map per level count: Hamming ladders for 3 and 5
# levels, binary columns for 2 and 8
LEVELS = {2: [0, 1], 3: popcounts(2), 5: popcounts(4), 8: list(range(8))}


class TestComputationalBasisKernel:
    """The sweep kernel keeps the state in the computational basis; the
    eigenbasis kernel it replaced (``oracles.eigenbasis_sweep_reference``)
    runs the same substeps, so both agree to roundoff."""

    @pytest.mark.parametrize("windows", [1, 2, 7, None])
    @pytest.mark.parametrize("d, n_qudits", [(2, 1), (2, 4), (3, 2), (5, 3), (8, 3)])
    def test_matches_eigenbasis_reference(self, d, n_qudits, windows):
        rng = np.random.default_rng(10 * d + n_qudits)
        shape = (d,) * n_qudits
        # few distinct energies, so most repeat; then all equal
        cases = [rng.integers(0, 6, size=shape) * 3, np.full(shape, 7)]
        for values in cases:
            diag = sa.ProblemDiagonal(values.reshape(-1), LEVELS[d])
            drv = sa.DriverSpec(0.7)
            T = 3.0
            w = windows or dynamics.auto_windows(diag, drv, T)
            psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            psi /= np.linalg.norm(psi)
            energies, inverse = np.unique(values.reshape(-1), return_inverse=True)
            # the kernel overwrites a complex128 input
            got = _kernels.yoshida_sweep_sector(psi.copy(), energies, inverse,
                                                diag.driver(), drv.h0, T, w)
            want = eigenbasis_sweep_reference(psi, values.astype(np.float64),
                                              diag.driver(), drv.h0, T, w)
            assert got.shape == shape
            assert np.abs(got - want).max() < 1e-12

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("enc", [
        sa.QuditEncoding.hamming(rng=(-2, 2)), sa.QuditEncoding.binary(rng=(-4, 3)),
    ], ids=["ham", "bin"])
    def test_benchmark_pools_match_eigenbasis_reference(self, enc, seed):
        # the sweep-ham and sweep-bin pools: 3D lattices, T = 1 ... 32
        diag = sa.ProblemDiagonal.from_model(model_3d(enc, seed))
        drv = sa.DriverSpec(1.0)
        local = diag.driver()
        shape = (local.shape[0],) * diag.n_qudits
        mult = diag.multiplicity()
        psi0 = np.sqrt(mult / mult.sum()).astype(np.complex128).reshape(shape)
        values = diag.values.reshape(shape).astype(np.float64)
        for T in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
            res = sa.evolve(diag, drv, sa.SweepSchedule(T=T))
            assert res.windows == dynamics.auto_windows(diag, drv, T)
            psi = eigenbasis_sweep_reference(psi0, values, local, drv.h0, T, res.windows)
            probs = np.abs(psi.reshape(-1)) ** 2
            want = group_probabilities(diag.values, probs / probs.sum())
            assert res.grouped.keys() == want.keys()
            assert max(abs(res.grouped[k] - p) for k, p in want.items()) < 1e-12

    @staticmethod
    def evolve_peak(diag, schedule):
        tracemalloc.start()
        try:
            sa.evolve(diag, sa.DriverSpec(), schedule)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_wide_qudit_tables_stay_small(self):
        # one 256-level qudit: a table of propagators sized by the state
        # alone would hold 256 of 1 MiB each
        values = np.random.default_rng(0).integers(0, 40, size=256)
        diag = sa.ProblemDiagonal(values, level=np.arange(256))
        assert self.evolve_peak(diag, sa.SweepSchedule(T=1.0)) < 16 * 2**20

    def test_footprint_per_state(self):
        # the 57 bytes per state that spectrum.MAX_STATES documents (56.8
        # at this size); the slack, 2 bytes per state here, stays below the
        # 8 of a float64 copy of the start amplitudes
        values = np.random.default_rng(0).integers(0, 2000, size=1 << 17)
        diag = sa.ProblemDiagonal(values)
        peak = self.evolve_peak(diag, sa.SweepSchedule(T=0.01, windows=1))
        assert peak < 57 * diag.dim + 2**18


class TestSweepScan:
    """Sweeps over a list of durations on one diagonal, as CLI ``simulate``
    runs them."""

    def test_scan_deterministic(self):
        _, _, diag = tiny_problem()
        for T in (1.0, 4.0):
            a = sa.evolve(diag, sa.DriverSpec(), sa.SweepSchedule(T=T))
            b = sa.evolve(diag, sa.DriverSpec(), sa.SweepSchedule(T=T))
            assert np.array_equal(a.probs, b.probs)

    def test_scan_unitarity(self):
        _, _, diag = tiny_problem(seed=7)
        for k in range(6):
            res = sa.evolve(diag, sa.DriverSpec(), sa.SweepSchedule(T=2.0 ** k))
            assert sum(res.grouped.values()) == pytest.approx(1.0, abs=1e-6)

    def test_norm_drift_above_bound_raises(self, monkeypatch):
        monkeypatch.setattr(dynamics, "NORM_DRIFT_BOUND", -1.0)
        _, _, diag = tiny_problem()
        with pytest.raises(sa.IntegratorError, match="drift"):
            sa.evolve(diag, sa.DriverSpec(), sa.SweepSchedule(T=1.0))


class TestScheduleParsing:
    def test_power_range(self):
        Ts = dynamics.parse_T_list("2^0..2^4")
        assert Ts == [1.0, 2.0, 4.0, 8.0, 16.0]

    def test_comma_list(self):
        assert dynamics.parse_T_list("1, 2.5, 2^3") == [1.0, 2.5, 8.0]

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            dynamics.parse_T_list("1..5")

    def test_range_endpoints_are_integer_powers_of_two(self):
        # an endpoint off the powers of two is refused, not rounded onto one
        with pytest.raises(ValueError, match="integer powers of two"):
            dynamics.parse_T_list("2^0.5..2^3")
        assert dynamics.parse_T_list("2^-1..2^2") == [0.5, 1, 2, 4]

    @pytest.mark.parametrize("spec", ["1,4,-1", "0", "1,inf", "nan", "2^1023..2^1024",
                                      "2^-2000..2^1"])
    def test_durations_positive_and_finite(self, spec):
        # each used to pass (or overflow) and fail only at its own sweep
        with pytest.raises(ValueError, match="not positive and finite"):
            dynamics.parse_T_list(spec)

    @pytest.mark.parametrize("spec", [",", " ", "2^3..2^1"])
    def test_empty_list_rejected(self, spec):
        with pytest.raises(ValueError, match="no sweep durations"):
            dynamics.parse_T_list(spec)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            sa.SweepSchedule(T=0.0)
        with pytest.raises(ValueError):
            sa.SweepSchedule(T=1.0, windows=0)


class TestAutoWindows:
    def test_scales_with_T_and_energy(self):
        diag_small = sa.ProblemDiagonal(np.array([0, 1, 1, 2]))
        diag_big = sa.ProblemDiagonal(np.array([0, 100, 100, 400]))
        drv = sa.DriverSpec(1.0)
        w1 = dynamics.auto_windows(diag_small, drv, 4.0)
        w2 = dynamics.auto_windows(diag_small, drv, 8.0)
        w3 = dynamics.auto_windows(diag_big, drv, 4.0)
        assert w2 >= 2 * w1 - 1
        assert w3 > w1
