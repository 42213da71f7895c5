import json
import math
from fractions import Fraction

import numpy as np
import pytest

import svpanneal as sa

from oracles import decode_energy, exhaustive_length_table, length_sq


def spins_of(bits):
    return [1 - 2 * b for b in bits]


def config_of(c, n_qubits):
    """Spin configuration of the little-endian configuration integer c."""
    return sa.SpinConfig(tuple(spins_of((c >> q) & 1 for q in range(n_qubits))))


class TestQuditEncoding:
    def test_hamming_from_k(self):
        enc = sa.QuditEncoding.hamming(k=2)
        assert (enc.lo, enc.hi, enc.qubits_per_qudit) == (-4, 4, 8)

    def test_binary_from_k(self):
        enc = sa.QuditEncoding.binary(k=2)
        assert (enc.lo, enc.hi, enc.qubits_per_qudit) == (-4, 3, 3)

    def test_hamming_explicit_range(self):
        enc = sa.QuditEncoding.hamming(rng=(-3, 3))
        assert enc.qubits_per_qudit == 6

    def test_bad_ranges_rejected(self):
        with pytest.raises(sa.EncodingError):
            sa.QuditEncoding.hamming(rng=(-2, 3))
        with pytest.raises(sa.EncodingError):
            sa.QuditEncoding.binary(rng=(-3, 2))
        with pytest.raises(sa.EncodingError):
            sa.QuditEncoding("hamming", -2, 2, 5)

    def test_value_counts(self):
        # 4 hamming qubits reach exactly 5 values, 4 binary qubits 16
        ham = sa.QuditEncoding.hamming(rng=(-2, 2))
        vals = ham.local_values()
        assert sorted(set(int(v) for v in vals)) == [-2, -1, 0, 1, 2]
        binr = sa.QuditEncoding.binary(k=3)
        bvals = binr.local_values()
        assert len(set(int(v) for v in bvals)) == 16


class TestQuditValue:
    def test_hamming_balanced_column(self):
        enc = sa.QuditEncoding.hamming(rng=(-2, 2))
        assert sa.qudit_value(enc, [1, 1, -1, -1]) == 0

    def test_binary_endpoints(self):
        enc = sa.QuditEncoding.binary(k=2)
        assert sa.qudit_value(enc, [1, 1, 1]) == -4
        assert sa.qudit_value(enc, [-1, -1, -1]) == 3

    def test_binary_is_shifted_binary_number(self):
        enc = sa.QuditEncoding.binary(k=2)
        for c in range(8):
            bits = [(c >> p) & 1 for p in range(3)]
            assert sa.qudit_value(enc, spins_of(bits)) == c - 4

    def test_wrong_column_length(self):
        enc = sa.QuditEncoding.binary(k=1)
        with pytest.raises(sa.EncodingError):
            sa.qudit_value(enc, [1, 1, 1])

    def test_ranges_cover_exactly(self):
        for enc in (sa.QuditEncoding.hamming(k=1), sa.QuditEncoding.binary(k=2)):
            vals = enc.local_values()
            assert vals.min() == enc.lo and vals.max() == enc.hi
            assert set(range(enc.lo, enc.hi + 1)) <= set(int(v) for v in vals)


def qudit_levels(enc):
    """Sector level of each local configuration of one qudit."""
    model = sa.compile_ising(sa.gram(sa.Basis(((1,),))), enc)
    return sa.ProblemDiagonal.from_model(model).level


def level_values(enc, level):
    """Qudit value of each level, read at its lowest configuration."""
    first = [int(np.argmax(level == a)) for a in range(level.max() + 1)]
    return enc.local_values()[first]


class TestRedundancy:
    def test_hamming_counts(self):
        # level w is Hamming weight w, value 2 - w
        counts = np.bincount(qudit_levels(sa.QuditEncoding.hamming(rng=(-2, 2))))
        assert counts.tolist() == [math.comb(4, w) for w in range(5)] == [1, 4, 6, 4, 1]

    def test_binary_bijective(self):
        assert np.bincount(qudit_levels(sa.QuditEncoding.binary(k=2))).tolist() == [1] * 8

    def test_out_of_range(self):
        # one level per value of the range, none outside it
        for enc in (sa.QuditEncoding.hamming(rng=(-3, 3)), sa.QuditEncoding.binary(k=1)):
            values = level_values(enc, qudit_levels(enc))
            assert sorted(values.tolist()) == list(range(enc.lo, enc.hi + 1))

    def test_counts_match_value_table(self):
        for enc in (sa.QuditEncoding.hamming(rng=(-3, 3)),
                    sa.QuditEncoding.binary(k=2)):
            level = qudit_levels(enc)
            vals = enc.local_values().tolist()
            want = [vals.count(v) for v in level_values(enc, level).tolist()]
            assert np.bincount(level).tolist() == want
            if enc.family == "hamming":
                assert want == [math.comb(6, 3 + v) for v in range(3, -4, -1)]


class TestCompile:
    def test_one_dimensional_binary_k0(self):
        g = sa.gram(sa.Basis(((1,),)))
        model = sa.compile_ising(g, sa.QuditEncoding.binary(k=0))
        assert model.n_qubits == 1
        energies = {int(model.energy(config_of(c, 1))) for c in range(2)}
        assert energies == {0, 1}

    def test_identity_hamming_zero_config(self):
        g = sa.gram(sa.Basis(((1, 0), (0, 1))))
        enc = sa.QuditEncoding.hamming(k=1)
        model = sa.compile_ising(g, enc)
        balanced = sa.SpinConfig((1, 1, -1, -1) * 2)
        assert model.energy(balanced) == 0
        assert model.decode(balanced) == (0, 0)

    def test_no_self_couplings_and_sorted(self):
        inst = sa.generate_instance(3, 4)
        model = sa.compile_ising(sa.gram(inst.bad), sa.QuditEncoding.binary(k=2))
        assert all(i < j for i, j, _ in model.couplings)
        assert list(model.couplings) == sorted(model.couplings)

    def test_coupling_structure(self):
        # a gram zero kills the inter-qudit block, the diagonal keeps
        # intra-qudit pairs
        g = sa.GramMatrix(((2, 0), (0, 3)))
        enc = sa.QuditEncoding.binary(k=1)
        model = sa.compile_ising(g, enc)
        pairs = {(i, j) for i, j, _ in model.couplings}
        assert pairs == {(0, 1), (2, 3)}  # intra-qudit only

    def test_dimension_mismatch(self):
        g = sa.gram(sa.Basis(((1, 0), (0, 1))))
        enc = sa.QuditEncoding.binary(k=1)
        model = sa.compile_ising(g, enc)
        with pytest.raises(sa.EncodingError):
            model.energy(sa.SpinConfig((1,) * 5))

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("family", ["hamming", "binary"])
    def test_exactness_both_paths(self, seed, family):
        inst = sa.generate_instance(3, seed)
        g = sa.gram(inst.bad)
        enc = (sa.QuditEncoding.hamming(k=1) if family == "hamming"
               else sa.QuditEncoding.binary(k=1))
        model = sa.compile_ising(g, enc)
        compiled = sa.problem_diagonal_ints(model)
        table = exhaustive_length_table(g, enc)
        assert np.array_equal(compiled, table)

    def test_exactness_spot_checks_pure_python(self):
        inst = sa.generate_instance(2, 17)
        g = sa.gram(inst.bad)
        for enc in (sa.QuditEncoding.hamming(rng=(-2, 2)),
                    sa.QuditEncoding.binary(k=2)):
            model = sa.compile_ising(g, enc)
            compiled = sa.problem_diagonal_ints(model)
            rng = np.random.default_rng(0)
            for c in rng.integers(0, compiled.size, size=30):
                expect = decode_energy(int(c), inst.bad.rows, enc)
                assert compiled[c] == expect
                cfg = config_of(int(c), model.n_qubits)
                assert model.energy(cfg) == expect


class TestOverflowGuard:
    @staticmethod
    def huge(exponent):
        return sa.GramMatrix(((2 ** exponent, 1, 0), (1, 2, 0), (0, 0, 1)))

    def test_compiled_diagonal_refuses(self):
        # 4 * energy sums six intra-qudit terms of 2^61: without the guard
        # this wraps silently
        model = sa.compile_ising(self.huge(60), sa.QuditEncoding.hamming(rng=(-2, 2)))
        with pytest.raises(sa.ResourceLimitError):
            sa.problem_diagonal_ints(model)

    @pytest.mark.parametrize("enc", [sa.QuditEncoding.hamming(rng=(-2, 2)),
                                     sa.QuditEncoding.binary(k=1)])
    def test_length_table_refuses(self, enc):
        # G_00 * 2^2 = 2^63 wraps silently without the guard
        with pytest.raises(sa.ResourceLimitError):
            exhaustive_length_table(self.huge(61), enc)

    def test_large_but_safe_gram_is_exact(self):
        g = sa.GramMatrix(((2 ** 40, 1), (1, 2 ** 40 + 3)))
        enc = sa.QuditEncoding.hamming(k=1)  # values in [-2, 2]
        compiled = sa.problem_diagonal_ints(sa.compile_ising(g, enc))
        assert np.array_equal(compiled, exhaustive_length_table(g, enc))
        assert compiled.max() == length_sq(g, (2, 2))


class TestDecode:
    def test_binary_all_plus_endpoint(self):
        g = sa.gram(sa.Basis(((1, 0), (0, 1))))
        model = sa.compile_ising(g, sa.QuditEncoding.binary(k=2))
        cfg = sa.SpinConfig((1,) * 6)
        assert model.decode(cfg) == (-4, -4)

    def test_hamming_balanced_is_zero(self):
        g = sa.gram(sa.Basis(((2, 1), (1, 3))))
        model = sa.compile_ising(g, sa.QuditEncoding.hamming(k=1))
        cfg = sa.SpinConfig((1, -1, 1, -1) * 2)
        assert model.decode(cfg) == (0, 0)

    def test_round_trip_energy_equals_length(self):
        inst = sa.generate_instance(2, 9)
        g = sa.gram(inst.bad)
        model = sa.compile_ising(g, sa.QuditEncoding.binary(k=1))
        for c in range(1 << model.n_qubits):
            cfg = config_of(c, model.n_qubits)
            x = model.decode(cfg)
            assert model.energy(cfg) == length_sq(g, x)


class TestDiagonalInvariants:
    @pytest.mark.parametrize("seed", range(5))
    def test_non_negative_with_exact_zero_count(self, seed):
        inst = sa.generate_instance(3, seed)
        g = sa.gram(inst.bad)
        enc = sa.QuditEncoding.hamming(rng=(-2, 2))
        model = sa.compile_ising(g, enc)
        d = sa.problem_diagonal_ints(model)
        assert d.min() == 0
        zeros = int((d == 0).sum())
        diag = sa.ProblemDiagonal.from_model(model)
        assert zeros == diag.multiplicity()[diag.values == 0].sum()
        assert zeros == math.comb(4, 2) ** 3

    def test_binary_single_zero(self):
        inst = sa.generate_instance(3, 2)
        d = sa.problem_diagonal_ints(
            sa.compile_ising(sa.gram(inst.bad), sa.QuditEncoding.binary(k=2))
        )
        assert int((d == 0).sum()) == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_first_excited_equals_oracle(self, seed):
        inst = sa.generate_instance(3, seed)
        enc = sa.QuditEncoding.binary(k=2)
        d = sa.problem_diagonal_ints(sa.compile_ising(sa.gram(inst.bad), enc))
        levels = np.unique(d)
        oracle = sa.brute_force_svp(inst.bad, ((enc.lo, enc.hi),) * 3)
        assert int(levels[1]) == oracle.lambda1_sq


class TestSerialization:
    def test_round_trip(self, tmp_path):
        inst = sa.generate_instance(3, 3)
        model = sa.compile_ising(sa.gram(inst.bad), sa.QuditEncoding.binary(k=2))
        path = tmp_path / "model.json"
        model.save(path)
        back = sa.IsingModel.load(path)
        assert back == model

    def test_exact_decimal_strings(self, tmp_path):
        inst = sa.generate_instance(2, 8)
        model = sa.compile_ising(
            sa.gram(inst.bad), sa.QuditEncoding.hamming(k=1)
        )
        payload = model.to_json()
        for _, _, v in payload["J"]:
            assert Fraction(v) in {Fraction(f) for f in
                                   [c[2] for c in model.couplings]}
        # parse every string back exactly
        assert sa.IsingModel.from_json(payload) == model

    def test_json_is_plain_data(self, tmp_path):
        inst = sa.generate_instance(2, 8)
        model = sa.compile_ising(sa.gram(inst.bad), sa.QuditEncoding.binary(k=1))
        path = tmp_path / "m.json"
        model.save(path)
        with open(path) as f:
            payload = json.load(f)
        assert set(payload) == {"n_qubits", "offset", "h", "J", "layout"}

    def test_permuted_layout_rejected_on_load(self):
        # the same model with qubits 1 and 2 swapped throughout: energies
        # and decoding agree, but the energy grids and the sweep sector
        # assume contiguous qudits, so such a model used to sweep wrongly
        model = sa.compile_ising(
            sa.gram(sa.generate_instance(2, 3).bad), sa.QuditEncoding.hamming(rng=(-1, 1))
        )
        perm = [0, 2, 1, 3]
        payload = model.to_json()
        h = [None] * model.n_qubits
        for i, v in enumerate(payload["h"]):
            h[perm[i]] = v
        payload["h"] = h
        payload["J"] = sorted(
            [min(perm[i], perm[j]), max(perm[i], perm[j]), v] for i, j, v in payload["J"]
        )
        payload["layout"]["qudits"] = [[0, 2], [1, 3]]
        with pytest.raises(sa.EncodingError, match="qudit 0"):
            sa.IsingModel.from_json(payload)


class TestSpinConfig:
    def test_bit_zero_is_spin_up(self):
        # local index 0b01: bit 0 set is spin -1 at position 0, bit 1 clear
        # is spin +1 at position 1
        ham = sa.QuditEncoding.hamming(k=0)
        assert ham.local_values().tolist() == [1, 0, 0, -1]
        binr = sa.QuditEncoding.binary(k=1)  # value -1/2 - sum 2^p s_p / 2
        assert binr.local_values().tolist() == [-2, -1, 0, 1]
        model = sa.compile_ising(sa.gram(sa.Basis(((1,),))), binr)
        assert model.decode(sa.SpinConfig((-1, 1))) == (binr.local_values()[0b01],)
