import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import svpanneal as sa
from svpanneal import spectrum
from svpanneal.spectrum import SpectrumError, _transverse_levels

from oracles import dense_sweep_hamiltonian


def small_problem(seed=5, family="binary"):
    inst = sa.generate_instance(2, seed)
    g = sa.gram(inst.bad)
    enc = (sa.QuditEncoding.binary(k=1) if family == "binary"
           else sa.QuditEncoding.hamming(k=1))
    model = sa.compile_ising(g, enc)
    return g, enc, sa.ProblemDiagonal.from_model(model)


class TestApplyHamiltonian:
    def test_s1_is_pure_diagonal(self):
        _, _, diag = small_problem()
        rng = np.random.default_rng(0)
        psi = rng.standard_normal(diag.dim) + 1j * rng.standard_normal(diag.dim)
        out = sa.apply_hamiltonian(diag, sa.DriverSpec(2.0), 1.0, psi)
        assert np.allclose(out, diag.as_float() * psi, atol=1e-14)

    def test_s0_uniform_is_driver_eigenstate(self):
        _, _, diag = small_problem()
        n = diag.n_qubits
        psi = np.full(diag.dim, diag.dim ** -0.5, dtype=np.complex128)
        out = sa.apply_hamiltonian(diag, sa.DriverSpec(1.5), 0.0, psi)
        assert np.allclose(out, -1.5 * n * psi, atol=1e-12)

    def test_hermitian_on_random_vectors(self):
        _, _, diag = small_problem()
        rng = np.random.default_rng(7)
        drv = sa.DriverSpec(0.8)
        for s in (0.1, 0.5, 0.93):
            phi = rng.standard_normal(diag.dim) + 1j * rng.standard_normal(diag.dim)
            psi = rng.standard_normal(diag.dim) + 1j * rng.standard_normal(diag.dim)
            lhs = np.vdot(phi, sa.apply_hamiltonian(diag, drv, s, psi))
            rhs = np.conj(np.vdot(psi, sa.apply_hamiltonian(diag, drv, s, phi)))
            assert abs(lhs - rhs) < 1e-10

    def test_matches_dense_up_to_ten_qubits(self):
        for seed, family in [(3, "binary"), (4, "hamming")]:
            inst = sa.generate_instance(2, seed)
            enc = (sa.QuditEncoding.binary(k=1) if family == "binary"
                   else sa.QuditEncoding.hamming(rng=(-2, 2)))
            diag = sa.ProblemDiagonal.from_model(
                sa.compile_ising(sa.gram(inst.bad), enc)
            )
            drv = sa.DriverSpec(1.1)
            rng = np.random.default_rng(seed)
            psi = rng.standard_normal(diag.dim)
            for s in (0.0, 0.3, 0.7, 1.0):
                dense = dense_sweep_hamiltonian(diag.values, 1.1, s)
                assert np.allclose(
                    sa.apply_hamiltonian(diag, drv, s, psi.astype(complex)),
                    dense @ psi,
                    atol=1e-12,
                )

    def test_length_mismatch(self):
        _, _, diag = small_problem()
        with pytest.raises(ValueError):
            sa.apply_hamiltonian(diag, sa.DriverSpec(), 0.5, np.ones(3))


class TestLowSpectrum:
    def test_s0_closed_form(self):
        _, _, diag = small_problem()
        n = diag.n_qubits
        vals = sa.low_spectrum(diag, sa.DriverSpec(1.0), 0.0, m=3)
        assert vals[0] == pytest.approx(-n)
        assert vals[1] == pytest.approx(-(n - 2))
        assert vals[1] - vals[0] == pytest.approx(2.0)

    def test_s0_multiplicities(self):
        lv = _transverse_levels(4, 1.0, 16)
        expect = sorted(
            [-4.0] * 1 + [-2.0] * 4 + [0.0] * 6 + [2.0] * 4 + [4.0] * 1
        )
        assert np.allclose(lv, expect)

    def test_s1_diagonal_endpoint_binary(self):
        _, _, diag = small_problem(family="binary")
        vals = sa.low_spectrum(diag, sa.DriverSpec(), 1.0, m=2)
        levels = diag.levels()
        assert vals[0] == 0.0
        assert vals[1] == float(levels[1])  # bijective encoding

    def test_dense_vs_krylov(self):
        inst = sa.generate_instance(3, 1)
        diag = sa.ProblemDiagonal.from_model(
            sa.compile_ising(sa.gram(inst.bad), sa.QuditEncoding.binary(k=2))
        )
        drv = sa.DriverSpec(1.0)
        for s in (0.2, 0.5, 0.8):
            dense = sa.low_spectrum(diag, drv, s, m=2, dense_cutoff=1 << 12)
            kry = sa.low_spectrum(diag, drv, s, m=2, dense_cutoff=4)
            assert np.allclose(dense, kry, atol=1e-8)

    def test_spectrum_matches_full_dense_diagonalization(self):
        _, _, diag = small_problem(seed=2)
        drv = sa.DriverSpec(0.7)
        for s in (0.25, 0.6):
            dense = dense_sweep_hamiltonian(diag.values, 0.7, s)
            expect = np.sort(np.linalg.eigvalsh(dense))[:4]
            got = sa.low_spectrum(diag, drv, s, m=4)
            assert np.allclose(got, expect, atol=1e-10)

    def test_nonconvergence_raises(self):
        inst = sa.generate_instance(3, 1)
        diag = sa.ProblemDiagonal.from_model(
            sa.compile_ising(sa.gram(inst.bad), sa.QuditEncoding.binary(k=2))
        )
        with pytest.raises(SpectrumError):
            sa.low_spectrum(
                diag, sa.DriverSpec(), 0.5, m=2, dense_cutoff=4, maxiter=1
            )


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
        _, _, diag = small_problem(family="binary")
        drv = sa.DriverSpec(1.0)
        prof = sa.gap_scan(diag, drv, grid=5)
        e0 = sa.low_spectrum(diag, drv, 0.0, m=2)
        e1 = sa.low_spectrum(diag, drv, 1.0, m=2)
        assert prof.gaps[0] == pytest.approx(e0[1] - e0[0])
        assert prof.gaps[-1] == pytest.approx(e1[1] - e1[0])

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

    def test_refinement_improves_bracket(self):
        _, _, diag = small_problem(seed=6)
        drv = sa.DriverSpec(1.0)
        base = sa.gap_scan(diag, drv, grid=9)
        refined = sa.gap_scan(diag, drv, grid=9, refine=3)
        assert refined.min_gap[1] <= base.min_gap[1] + 1e-12

    def test_s1_grouping_exact_integers(self):
        inst = sa.generate_instance(3, 0)
        g = sa.gram(inst.bad)
        enc = sa.QuditEncoding.hamming(k=1)
        diag = sa.ProblemDiagonal.from_model(sa.compile_ising(g, enc))
        prof = sa.gap_scan(diag, sa.DriverSpec(), grid=3)
        levels = diag.levels()
        # degeneracy grouping at the diagonal endpoint
        assert prof.e1[-1] == float(levels[1])
        assert float(prof.e1[-1]).is_integer()


class TestSectorScan:
    def test_sector_eigenvalues_are_full_space_eigenvalues(self):
        inst = sa.generate_instance(2, 3)
        g = sa.gram(inst.bad)
        enc = sa.QuditEncoding.hamming(k=1)
        drv = sa.DriverSpec(1.0)
        from svpanneal.spectrum import sector_hamiltonian_parts

        sec_drv, sec_diag = sector_hamiltonian_parts(g, enc, drv)
        diag = sa.ProblemDiagonal.from_model(sa.compile_ising(g, enc))
        for s in (0.0, 0.35, 0.8, 1.0):
            sec = np.linalg.eigvalsh((1 - s) * sec_drv + s * np.diag(sec_diag))
            full = np.linalg.eigvalsh(dense_sweep_hamiltonian(diag.values, 1.0, s))
            assert sec[0] == pytest.approx(full[0], abs=1e-9)  # shared ground
            for v in sec:
                assert np.min(np.abs(full - v)) < 1e-8

    def test_sector_energies_from_model_and_diagonal_agree(self):
        g = sa.gram(sa.generate_instance(3, 4).bad)
        model = sa.compile_ising(g, sa.QuditEncoding.hamming(rng=(-2, 2)))
        diag = sa.ProblemDiagonal.from_model(model)
        sector = spectrum.qudit_sector(model.layout,
                                       partial(sa.problem_diagonal_ints, model))
        assert np.array_equal(sector.diagonal,
                              spectrum.qudit_sector(diag.layout, diag.on_grid).diagonal)
        # qudit j sits on axis N-1-j; weight w is the value 2 - w
        w = (1, 4, 0)
        assert sector.diagonal[w[2], w[1], w[0]] == g.length_sq([2 - x for x in w])
        assert np.array_equal(sector.diagonal.reshape(-1)[sector.full_index()], diag.values)

    def test_binary_sector_is_full_space(self):
        inst = sa.generate_instance(2, 3)
        g = sa.gram(inst.bad)
        enc = sa.QuditEncoding.binary(k=1)
        drv = sa.DriverSpec(1.0)
        prof_sector = sa.sector_gap_scan(g, enc, drv, grid=9)
        diag = sa.ProblemDiagonal.from_model(sa.compile_ising(g, enc))
        prof_full = sa.gap_scan(diag, drv, grid=9)
        assert np.allclose(prof_sector.gaps, prof_full.gaps, atol=1e-9)

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
        sector = spectrum.qudit_sector(model.layout,
                                       partial(sa.problem_diagonal_ints, model))
        index = sector.full_index()
        assert np.array_equal(sector.diagonal.reshape(-1)[index], diag.values)
        mult = sector.multiplicity()
        assert mult.sum() == diag.dim
        # columns: normalised uniform superpositions of each sector state
        p = np.zeros((diag.dim, sector.dim))
        p[np.arange(diag.dim), index] = mult[index] ** -0.5
        drv, dg = spectrum.sector_hamiltonian_parts(g, enc, sa.DriverSpec(0.9))
        for s in (0.0, 0.4, 1.0):
            h_full = dense_sweep_hamiltonian(diag.values, 0.9, s)
            h_sector = (1 - s) * drv + s * np.diag(dg)
            assert np.allclose(p.T @ h_full @ p, h_sector, atol=1e-12)
            assert np.allclose(h_full @ p, p @ h_sector, atol=1e-12)
