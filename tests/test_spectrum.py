import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import svpanneal as sa
from svpanneal import spectrum

from oracles import dense_sweep_hamiltonian, length_sq, sector_index


def small_problem(seed=5, family="binary"):
    inst = sa.generate_instance(2, seed)
    g = sa.gram(inst.bad)
    enc = (sa.QuditEncoding.binary(k=1) if family == "binary"
           else sa.QuditEncoding.hamming(k=1))
    model = sa.compile_ising(g, enc)
    return g, model, sa.ProblemDiagonal.from_model(model)


class TestGapScan:
    def test_one_qubit_analytic(self):
        # problem diag (0, a): gap(s) = 2*sqrt((s*a/2)**2 + (h0*(1-s))**2)
        a = 3
        diag = sa.ProblemDiagonal(np.array([0, a]))
        h0 = 1.3
        prof = sa.gap_scan(diag, sa.DriverSpec(h0), grid=41)
        expect = 2 * np.sqrt(
            (prof.s_grid * a / 2) ** 2 + (h0 * (1 - prof.s_grid)) ** 2
        )
        assert np.allclose(prof.gaps, expect, atol=1e-9)

    def test_endpoints_match_low_spectrum(self):
        # binary: the sector is the full space, so the endpoint gaps are
        # those of the two lowest full-space levels
        _, _, diag = small_problem(family="binary")
        prof = sa.gap_scan(diag, sa.DriverSpec(1.0), grid=5)
        for i, s in ((0, 0.0), (-1, 1.0)):
            full = np.linalg.eigvalsh(dense_sweep_hamiltonian(diag.values, 1.0, s))
            assert prof.gaps[i] == pytest.approx(full[1] - full[0], abs=1e-9)

    def test_grid_validation(self):
        _, _, diag = small_problem()
        with pytest.raises(ValueError):
            sa.gap_scan(diag, sa.DriverSpec(), grid=2)

    def test_nested_grid_never_raises_min(self):
        _, _, diag = small_problem(seed=6)
        drv = sa.DriverSpec(1.0)
        coarse = sa.gap_scan(diag, drv, grid=17).min_gap[1]
        fine = sa.gap_scan(diag, drv, grid=33).min_gap[1]
        assert fine <= coarse + 1e-12

    def test_s1_grouping_exact_integers(self):
        inst = sa.generate_instance(3, 0)
        g = sa.gram(inst.bad)
        enc = sa.QuditEncoding.hamming(k=1)
        diag = sa.ProblemDiagonal.from_model(sa.compile_ising(g, enc))
        prof = sa.gap_scan(diag, sa.DriverSpec(), grid=3)
        levels = np.unique(diag.values)
        # degeneracy grouping at the diagonal endpoint
        assert prof.e1[-1] == float(levels[1])
        assert float(prof.e1[-1]).is_integer()

    def test_layoutless_matches_full_space(self):
        # without a layout the sector is the full space, even for Hamming
        # values, whose full-space ground level is degenerate at s=1
        for family in ("binary", "hamming"):
            _, model, _ = small_problem(seed=2, family=family)
            values = sa.problem_diagonal_ints(model)
            prof = sa.gap_scan(sa.ProblemDiagonal(values), sa.DriverSpec(0.7), grid=9)
            for s, e0, e1 in zip(prof.s_grid, prof.e0, prof.e1):
                full = np.linalg.eigvalsh(dense_sweep_hamiltonian(values, 0.7, s))
                assert e0 == pytest.approx(full[0], abs=1e-9)
                assert e1 == pytest.approx(full[1], abs=1e-9)

    def test_hamming_gap_is_the_sector_gap(self):
        # the full-space gap closes near s=1 as the degenerate zero-vector
        # manifold splits (3.2e-4 at s=0.96875 on this instance); the
        # sector the sweep stays in keeps it open
        g = sa.gram(sa.generate_instance(2, 0).bad)
        model = sa.compile_ising(g, sa.QuditEncoding.hamming(rng=(-2, 2)))
        prof = sa.gap_scan(sa.ProblemDiagonal.from_model(model), sa.DriverSpec())
        assert prof.min_gap[1] > 0.1

    def test_oversized_sector_refused_before_allocating(self):
        g = sa.gram(sa.generate_instance(3, 0).bad)
        model = sa.compile_ising(g, sa.QuditEncoding.binary(rng=(-16, 15)))
        diag = sa.ProblemDiagonal.from_model(model)
        t0 = time.perf_counter()
        with pytest.raises(sa.ResourceLimitError, match="32768"):
            sa.gap_scan(diag, sa.DriverSpec())
        assert time.perf_counter() - t0 < 0.5


class TestLowSpectrum:
    """The two lowest sweep levels at s=0 and s=1, as gap_scan reports them."""

    def test_s0_closed_form(self):
        # s=0: the driver ladder, ground -h0 n, first excited -h0 (n-2)
        h0 = 1.3
        for family in ("binary", "hamming"):
            _, _, diag = small_problem(family=family)
            n = diag.n_qubits
            prof = sa.gap_scan(diag, sa.DriverSpec(h0), grid=5)
            assert prof.e0[0] == pytest.approx(-h0 * n, abs=1e-12)
            assert prof.e1[0] == pytest.approx(-h0 * (n - 2), abs=1e-12)
            assert prof.gaps[0] == pytest.approx(2 * h0, abs=1e-12)

    def test_s1_diagonal_endpoint_binary(self):
        # s=1: the zero vector, then the first nonzero level, exactly
        _, _, diag = small_problem(family="binary")
        prof = sa.gap_scan(diag, sa.DriverSpec(), grid=5)
        assert prof.e0[-1] == 0.0
        assert prof.e1[-1] == float(np.unique(diag.values)[1])  # bijective encoding


class TestSectorScan:
    def test_sector_eigenvalues_are_full_space_eigenvalues(self):
        inst = sa.generate_instance(2, 3)
        g = sa.gram(inst.bad)
        enc = sa.QuditEncoding.hamming(k=1)
        drv = sa.DriverSpec(1.0)
        model = sa.compile_ising(g, enc)
        diag = sa.ProblemDiagonal.from_model(model)
        values = sa.problem_diagonal_ints(model)
        sec_drv, sec_diag = spectrum.sector_hamiltonian_parts(diag, drv)
        prof = sa.gap_scan(diag, drv, grid=5)
        assert np.array_equal(prof.s_grid, np.linspace(0.0, 1.0, 5))
        for i, s in enumerate(prof.s_grid):
            sec = np.linalg.eigvalsh((1 - s) * sec_drv + s * np.diag(sec_diag))
            full = np.linalg.eigvalsh(dense_sweep_hamiltonian(values, 1.0, s))
            assert sec[0] == pytest.approx(full[0], abs=1e-9)  # shared ground
            for v in sec:
                assert np.min(np.abs(full - v)) < 1e-8
            assert prof.e0[i] == pytest.approx(full[0], abs=1e-9)
            assert np.min(np.abs(full - prof.e1[i])) < 1e-8

    def test_sector_energies_from_model_and_diagonal_agree(self):
        g = sa.gram(sa.generate_instance(3, 4).bad)
        enc = sa.QuditEncoding.hamming(rng=(-2, 2))
        model = sa.compile_ising(g, enc)
        diag = sa.ProblemDiagonal.from_model(model)
        # qudit j is digit j of the flat index, on axis N-1-j of the
        # (5, 5, 5) grid; weight w is the value 2 - w
        w = (1, 4, 0)
        assert diag.values.reshape(5, 5, 5)[w[2], w[1], w[0]] == length_sq(
            g, [2 - x for x in w])
        assert np.array_equal(diag.values[sector_index(enc, 3)],
                              sa.problem_diagonal_ints(model))
        # the scan of the model's sector is sector_gap_scan, bit for bit
        drv = sa.DriverSpec(0.9)
        from_diag = sa.gap_scan(diag, drv, grid=9)
        from_model = sa.sector_gap_scan(g, enc, drv, grid=9)
        assert np.array_equal(from_diag.e0, from_model.e0)
        assert np.array_equal(from_diag.e1, from_model.e1)

    def test_binary_sector_is_full_space(self):
        inst = sa.generate_instance(2, 3)
        g = sa.gram(inst.bad)
        enc = sa.QuditEncoding.binary(k=1)
        drv = sa.DriverSpec(1.0)
        prof_sector = sa.sector_gap_scan(g, enc, drv, grid=9)
        diag = sa.ProblemDiagonal.from_model(sa.compile_ising(g, enc))
        prof = sa.gap_scan(diag, drv, grid=9)
        assert np.array_equal(prof_sector.e0, prof.e0)
        assert np.array_equal(prof_sector.e1, prof.e1)
        for s, e0, e1 in zip(prof.s_grid, prof.e0, prof.e1):
            full = np.linalg.eigvalsh(dense_sweep_hamiltonian(diag.values, 1.0, s))
            assert e0 == pytest.approx(full[0], abs=1e-9)
            assert e1 == pytest.approx(full[1], abs=1e-9)

    def test_sector_endpoints(self):
        inst = sa.generate_instance(3, 1)
        g = sa.gram(inst.bad)
        drv = sa.DriverSpec(1.0)
        ham = sa.sector_gap_scan(g, sa.QuditEncoding.hamming(rng=(-2, 2)), drv, grid=5)
        n_ham = 3 * 4
        assert ham.gaps[0] == pytest.approx(2.0, abs=1e-9)
        assert ham.e0[0] == pytest.approx(-n_ham, abs=1e-9)
        # final gap is the first excited problem level, not zero
        assert ham.gaps[-1] > 0.5


# (encoding, lattice dimension) pairs of at most 8 qubits, both families
SECTOR_SHAPES = [
    (sa.QuditEncoding.hamming(rng=(-1, 1)), 2),
    (sa.QuditEncoding.hamming(rng=(-1, 1)), 3),
    (sa.QuditEncoding.hamming(rng=(-2, 2)), 2),
    (sa.QuditEncoding.binary(k=0), 3),
    (sa.QuditEncoding.binary(k=1), 2),
    (sa.QuditEncoding.binary(k=1), 3),
    (sa.QuditEncoding.binary(k=2), 2),
]


@st.composite
def sector_problems(draw):
    enc, n_dim = draw(st.sampled_from(SECTOR_SHAPES))
    entries = st.integers(-3, 3)
    b = np.array(draw(st.lists(st.lists(entries, min_size=n_dim, max_size=n_dim),
                               min_size=n_dim, max_size=n_dim)))
    return sa.GramMatrix((b @ b.T).tolist()), enc


class TestSectorMap:
    """The qudit sector against the full space on random Gram matrices
    (singular ones included): the sector is invariant under the full sweep
    Hamiltonian, and its restriction is the sector Hamiltonian."""

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(sector_problems())
    def test_sector_is_exact_restriction(self, problem):
        g, enc = problem
        model = sa.compile_ising(g, enc)
        diag = sa.ProblemDiagonal.from_model(model)
        values = sa.problem_diagonal_ints(model)
        index = sector_index(enc, g.dim)
        assert np.array_equal(diag.values[index], values)
        mult = diag.multiplicity()
        assert np.array_equal(mult, np.bincount(index, minlength=diag.dim))
        assert mult.sum() == values.size
        # columns: normalised uniform superpositions of each sector state
        p = np.zeros((values.size, diag.dim))
        p[np.arange(values.size), index] = mult[index] ** -0.5
        drv, dg = spectrum.sector_hamiltonian_parts(diag, sa.DriverSpec(0.9))
        for s in (0.0, 0.4, 1.0):
            h_full = dense_sweep_hamiltonian(values, 0.9, s)
            h_sector = (1 - s) * drv + s * np.diag(dg)
            assert np.allclose(p.T @ h_full @ p, h_sector, atol=1e-12)
            assert np.allclose(h_full @ p, p @ h_sector, atol=1e-12)


def lattice_diag(n_dim, seed, enc):
    g = sa.gram(sa.generate_instance(n_dim, seed).bad)
    return sa.ProblemDiagonal.from_model(sa.compile_ising(g, enc))


def dense_levels(diag, driver, points):
    """(E0, E1) of eigvalsh of the sector Hamiltonian at each s of points."""
    drv, dg = spectrum.sector_hamiltonian_parts(diag, driver)
    for s in points:
        h = (1 - s) * drv
        h.flat[:: diag.dim + 1] += s * dg
        vals = np.linalg.eigvalsh(h)
        yield vals[0], vals[1]


def assert_levels_close(e, ref, rtol=1e-10):
    # relative, with a floor of one energy unit
    assert abs(e - ref) <= rtol * max(1.0, abs(ref)), (e, ref)


GRID = np.linspace(0.0, 1.0, 33)

BLOCK_CASES = (
    # the sweep-ham and sweep-bin benchmark pools
    [(3, seed, sa.QuditEncoding.hamming(rng=(-2, 2))) for seed in range(6)]
    + [(3, seed, sa.QuditEncoding.binary(rng=(-4, 3))) for seed in range(6)]
    # 2D-4D, both families
    + [(2, seed, sa.QuditEncoding.hamming(rng=(-2, 2))) for seed in range(2)]
    + [(3, seed, sa.QuditEncoding.hamming(rng=(-1, 1))) for seed in range(2)]
    + [(4, seed, sa.QuditEncoding.hamming(rng=(-1, 1))) for seed in range(2)]
    + [(4, seed, sa.QuditEncoding.hamming(rng=(-2, 2))) for seed in range(2)]
    + [(2, seed, sa.QuditEncoding.binary(rng=(-2, 1))) for seed in range(2)]
    + [(3, seed, sa.QuditEncoding.binary(rng=(-2, 1))) for seed in range(2)]
    + [(4, seed, sa.QuditEncoding.binary(rng=(-2, 1))) for seed in range(2)]
)


class TestBlockSolver:
    """The warm-started block solver against dense eigvalsh of the sector
    Hamiltonian, called directly whatever the sector size."""

    @pytest.mark.parametrize(
        "n_dim, seed, enc", BLOCK_CASES,
        ids=[f"{n}D-{e.family}[{e.lo},{e.hi}]-{s}" for n, s, e in BLOCK_CASES])
    def test_matches_dense_at_every_point(self, n_dim, seed, enc):
        diag = lattice_diag(n_dim, seed, enc)
        drv = sa.DriverSpec(1.0)
        prof = spectrum._block_scan(diag, drv, GRID)
        assert np.array_equal(prof.s_grid, GRID)
        for e0, e1, (ref0, ref1) in zip(prof.e0, prof.e1, dense_levels(diag, drv, GRID)):
            assert_levels_close(e0, ref0)
            assert_levels_close(e1, ref1)
        # the endpoints in closed form; an interior point may converge on
        # its warm-start step alone, with 0 iterations
        assert prof.iterations[[0, -1]].tolist() == [0, 0]
        assert prof.residual[[0, -1]].tolist() == [0.0, 0.0]
        assert prof.iterations.sum() > 0
        assert (prof.residual[1:-1] <= spectrum._RESIDUAL_TOL).all()

    def test_4096_state_binary_sector(self):
        # 3D binary [-8,7] seed 2: its minimum gap, 0.1403 at s = 0.34375;
        # the dense scan of this sector took 124-141 s
        diag = lattice_diag(3, 2, sa.QuditEncoding.binary(rng=(-8, 7)))
        assert diag.dim == 4096
        drv = sa.DriverSpec(1.0)
        t0 = time.perf_counter()
        prof = sa.gap_scan(diag, drv)
        assert time.perf_counter() - t0 < 15.0
        assert prof.min_gap[0] == 0.34375
        points = [11, 31]  # s = 0.34375, 0.96875
        for i, (ref0, ref1) in zip(points, dense_levels(diag, drv, GRID[points])):
            assert_levels_close(prof.e0[i], ref0)
            assert_levels_close(prof.e1[i], ref1)
        # at s = 1 the dense matrix is diagonal: its eigenvalues are the
        # sorted energies
        assert [prof.e0[-1], prof.e1[-1]] == np.sort(diag.values)[:2].tolist()

    def test_avoided_crossing(self):
        # 3D binary [-4,3] seed 5 nearly closes its gap at s = 0.25
        diag = lattice_diag(3, 5, sa.QuditEncoding.binary(rng=(-4, 3)))
        prof = sa.gap_scan(diag, sa.DriverSpec(1.0))
        s_star, g_star = prof.min_gap
        assert s_star == 0.25
        (ref0, ref1), = dense_levels(diag, sa.DriverSpec(1.0), [0.25])
        assert g_star == pytest.approx(ref1 - ref0, abs=1e-10)
        assert 0.007 < g_star < 0.008

    def test_even_first_excited_level(self):
        # 3D Hamming [-3,3] seed 1 is symmetric under the reflection of
        # every qudit, and the start block holds one even vector, the
        # ground state, beside the odd first excited cluster; yet at
        # s = 0.96875 E1 is even, with the odd E2 1e-4 above it
        diag = lattice_diag(3, 1, sa.QuditEncoding.hamming(rng=(-3, 3)))
        k = int(diag.level.max()) + 1
        refl = np.arange(diag.dim).reshape(k, k, k)[::-1, ::-1, ::-1].reshape(-1)
        assert np.array_equal(diag.values[refl], diag.values)
        drv = sa.DriverSpec(1.0)
        h, dg = spectrum.sector_hamiltonian_parts(diag, drv)
        _, vecs = np.linalg.eigh(h / 32 + np.diag(dg * 31 / 32))
        assert vecs[refl, 1] @ vecs[:, 1] == pytest.approx(1.0)
        assert vecs[refl, 2] @ vecs[:, 2] == pytest.approx(-1.0)
        prof = sa.gap_scan(diag, drv)
        for e0, e1, (ref0, ref1) in zip(prof.e0, prof.e1, dense_levels(diag, drv, GRID)):
            assert_levels_close(e0, ref0)
            assert_levels_close(e1, ref1)

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(spectrum, "_MAX_ITERATIONS", 1)
        diag = lattice_diag(3, 0, sa.QuditEncoding.binary(rng=(-4, 3)))
        with pytest.raises(sa.SpectrumError, match=r"s=0\.03125 after 1 iterations"):
            sa.gap_scan(diag, sa.DriverSpec(1.0))

    def test_degenerate_levels(self):
        # equal energies: E1 is 9-fold degenerate at every s, through the
        # top of the block, and the Ritz pairs converge to roundoff residuals
        diag = sa.ProblemDiagonal(np.full(512, 7))
        drv = sa.DriverSpec(1.0)
        prof = spectrum._block_scan(diag, drv, GRID)
        for e0, e1, (ref0, ref1) in zip(prof.e0, prof.e1, dense_levels(diag, drv, GRID)):
            assert_levels_close(e0, ref0)
            assert_levels_close(e1, ref1)
