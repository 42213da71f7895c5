import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import svpanneal as sa
from svpanneal import lattice
from svpanneal.lattice import det_exact

from oracles import box_svp_reference, integral_coefficients, shortest_by_ball


def test_gram_identity():
    b = sa.Basis(((1, 0), (0, 1)))
    assert sa.gram(b).entries == ((1, 0), (0, 1))


def test_gram_direct_dot_products():
    b = sa.Basis(((1, 0), (1, 1)))
    assert sa.gram(b).entries == ((1, 1), (1, 2))


def test_gram_determinant_unimodular_invariant():
    rng = np.random.default_rng(3)
    for _ in range(20):
        inst = sa.generate_instance(3, int(rng.integers(0, 10 ** 6)))
        dg = det_exact(sa.gram(inst.good).entries)
        db = det_exact(sa.gram(inst.bad).entries)
        assert dg == db


def test_gram_rejects_singular():
    with pytest.raises(sa.LatticeError):
        sa.Basis(((1, 2), (2, 4)))


def test_basis_rejects_non_integer():
    with pytest.raises(sa.LatticeError):
        sa.Basis(((1.5, 0), (0, 1)))


def test_hnf_identity_fixed_point():
    for n in (2, 3, 5):
        eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        h = sa.hnf(sa.Basis(eye))
        assert h.rows == eye
        assert h.pivots == (1,) * n


def test_hnf_shape_and_normalization():
    h = sa.hnf(sa.Basis(((0, 3), (2, 1))))
    rows = h.rows
    n = h.dim
    # upper triangular, positive pivots, entries above reduced mod pivot
    for i in range(n):
        assert rows[i][i] > 0
        for j in range(i):
            assert rows[i][j] == 0
        for i2 in range(i):
            assert 0 <= rows[i2][i] < rows[i][i]
    assert h.covolume == abs(det_exact(((0, 3), (2, 1))))


def test_hnf_two_by_two_against_membership_oracle():
    original = ((0, 3), (2, 1))
    h = sa.hnf(sa.Basis(original))
    # frozen expected value, cross-checked below by mutual membership
    assert h.rows == ((2, 1), (0, 3))
    for row in h.rows:
        assert integral_coefficients(original, row) is not None
    for row in original:
        assert integral_coefficients(h.rows, row) is not None
    # every lattice point with coefficients in a radius-5 box agrees
    for a in range(-5, 6):
        for b in range(-5, 6):
            v = tuple(a * original[0][j] + b * original[1][j] for j in range(2))
            assert integral_coefficients(h.rows, v) is not None


def test_hnf_idempotent():
    for seed in range(30):
        inst = sa.generate_instance(3, seed)
        h = sa.hnf(inst.bad)
        assert sa.hnf(sa.Basis(h.rows)) == h


def test_hnf_unimodular_invariance_100_pairs():
    for seed in range(100):
        inst = sa.generate_instance(3, seed)
        assert sa.hnf(inst.good) == sa.hnf(inst.bad)


def test_hnf_covolume_equals_abs_det():
    for seed in range(30):
        inst = sa.generate_instance(4, seed)
        assert sa.hnf(inst.bad).covolume == abs(det_exact(inst.bad.rows))


def test_auto_box_takes_basis_or_its_hnf():
    for seed in range(10):
        inst = sa.generate_instance(4, seed)
        assert sa.auto_box(sa.hnf(inst.bad)) == sa.auto_box(inst.bad)


def test_is_optimal_hnf():
    eye = sa.hnf(sa.Basis(((1, 0, 0), (0, 1, 0), (0, 0, 1))))
    assert not sa.is_optimal_hnf(eye)  # zero non-unit pivots
    one_col = sa.hnf(sa.Basis(((1, 0, 2), (0, 1, 3), (0, 0, 7))))
    assert sa.is_optimal_hnf(one_col)
    two = sa.hnf(sa.Basis(((2, 0), (0, 3))))
    assert not sa.is_optimal_hnf(two)


def test_minkowski_bound_values():
    assert sa.minkowski_bound(4, 16) == pytest.approx(4.0)
    assert sa.minkowski_bound(1, 7) == pytest.approx(7.0)
    for n in (1, 2, 5, 9):
        assert sa.minkowski_bound(n, 1) == pytest.approx(math.sqrt(n))


def test_qubit_budget_binary():
    assert sa.qubit_budget(4, 16, "bin") == sa.QubitBudget(5, 20)
    assert sa.qubit_budget(1, 1, "binary") == sa.QubitBudget(1, 1)


def test_qubit_budget_hamming():
    assert sa.qubit_budget(4, 16, "ham") == sa.QubitBudget(32, 128)


def test_qubit_budget_rejects_unknown_family():
    with pytest.raises(sa.LatticeError):
        sa.qubit_budget(2, 2, "gray")


def test_generate_instance_constraints():
    for seed in (0, 1, 7, 1234):
        inst = sa.generate_instance(4, seed)
        assert all(v in (0, 1) for row in inst.good.rows for v in row)
        assert abs(det_exact(inst.unimodular)) == 1
        assert max(abs(v) for row in inst.unimodular for v in row) <= 6
        # bad rows are the unimodular mix of the good rows
        u = inst.unimodular
        for i in range(4):
            expect = tuple(
                sum(u[i][k] * inst.good.rows[k][j] for k in range(4))
                for j in range(4)
            )
            assert inst.bad.rows[i] == expect


def test_generate_instance_deterministic():
    a = sa.generate_instance(3, 99)
    b = sa.generate_instance(3, 99)
    assert a == b
    c = sa.generate_instance(3, 100)
    assert c != a


def test_instance_json_roundtrip(tmp_path):
    inst = sa.generate_instance(3, 5)
    path = tmp_path / "inst.json"
    inst.save(path)
    assert sa.Instance.load(path) == inst


def test_brute_force_identity_lattice():
    res = sa.brute_force_svp(sa.Basis(((1, 0), (0, 1))), ((-2, 2), (-2, 2)))
    assert res.lambda1_sq == 1
    assert set(res.witnesses) == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_brute_force_axis_lattice():
    res = sa.brute_force_svp(sa.Basis(((2, 0), (0, 3))), ((-2, 2), (-2, 2)))
    assert res.lambda1_sq == 4
    assert set(res.witnesses) == {(1, 0), (-1, 0)}


def test_brute_force_witness_symmetry_and_order():
    for seed in range(10):
        inst = sa.generate_instance(3, seed)
        res = sa.brute_force_svp(inst.bad, ((-3, 3),) * 3)
        assert list(res.witnesses) == sorted(res.witnesses)
        for w in res.witnesses:
            neg = tuple(-v for v in w)
            assert neg in res.witnesses  # box symmetric, so -w is inside


def test_brute_force_equals_reference_3d_seed_11():
    inst = sa.generate_instance(3, 11)
    box = ((-4, 4),) * 3
    assert sa.brute_force_svp(inst.bad, box) == box_svp_reference(inst.bad, box)


@st.composite
def bases_and_boxes(draw):
    """A nonsingular 2D-5D integer basis, in its raw or its HNF frame, and
    a box holding zero and at least one nonzero vector (often asymmetric)."""
    n = draw(st.integers(2, 5))
    rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    assume(det_exact(rows) != 0)
    basis = sa.Basis(rows)
    if draw(st.booleans()):
        basis = sa.Basis(sa.hnf(basis).rows)
    box = draw(st.lists(st.tuples(st.integers(-3, 0), st.integers(0, 3)),
                        min_size=n, max_size=n))
    assume(any(box_lo or box_hi for box_lo, box_hi in box))
    return basis, tuple(box)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(bases_and_boxes())
def test_brute_force_equals_reference_property(case):
    basis, box = case
    assert sa.brute_force_svp(basis, box) == box_svp_reference(basis, box)


@pytest.mark.parametrize("seed", range(5))
def test_brute_force_equals_reference_oracle_7d(seed):
    # the benchmark's oracle-7d job: HNF frame, auto box of ~10^6 points
    inst = sa.generate_instance(7, seed)
    basis, box = sa.Basis(sa.hnf(inst.bad).rows), sa.auto_box(inst.bad)
    assert sa.brute_force_svp(basis, box) == box_svp_reference(basis, box)


@pytest.mark.parametrize("rows", [
    # G = [[1, N], [N, N^2 + 1]]: a float factorisation of G loses the last
    # pivot (N^2 + 1 - N^2 rounds to 0); the exact one keeps it at 1
    ((1, 0), (10 ** 8, 1)),
    # lengths 2^54 and 2^54 + 1, equal as floats: only exact leaf energies
    # keep the second row out of the witnesses
    ((2 ** 27, 0), (1, 2 ** 27)),
])
def test_brute_force_exact_where_floats_fail(rows):
    basis = sa.Basis(rows)
    box = ((-1, 1), (-1, 1))
    res = sa.brute_force_svp(basis, box)
    assert res == box_svp_reference(basis, box)
    assert res.witnesses == ((-1, 0), (1, 0))


@pytest.mark.parametrize("basis, box", [
    (((1, 0), (0, 1)), ((-1, 1),)),
    (((1, 0), (0, 1)), ((1, -1), (-1, 1))),
    (((1, 0), (0, 1)), ((1, 3), (-1, 1))),
    (((1, 0), (0, 1)), ((0, 0), (0, 0))),
    (((1, 0), (0, 1)), ((-10 ** 5, 10 ** 5), (-10 ** 5, 10 ** 5))),
    (((2 * 10 ** 6, 0), (0, 1)), ((-10 ** 3, 10 ** 3), (-1, 1))),
])
def test_brute_force_refusals_match_reference(basis, box):
    basis = sa.Basis(basis)
    with pytest.raises((sa.LatticeError, sa.ResourceLimitError)) as want:
        box_svp_reference(basis, box)
    with pytest.raises(type(want.value), match=str(want.value)):
        sa.brute_force_svp(basis, box)


def test_brute_force_point_cap(monkeypatch):
    monkeypatch.setattr(lattice, "_DEFAULT_POINT_CAP", 100)
    with pytest.raises(sa.ResourceLimitError):
        sa.brute_force_svp(sa.Basis(((1, 0), (0, 1))), ((-10, 10), (-10, 10)))


def test_brute_force_zero_only_box_rejected():
    # the zero vector alone holds no candidate for a shortest vector
    with pytest.raises(sa.LatticeError, match="no nonzero vector"):
        sa.brute_force_svp(sa.Basis(((1, 0), (0, 1))), ((0, 0), (0, 0)))


def test_brute_force_asymmetric_box_contains_zero():
    with pytest.raises(sa.LatticeError):
        sa.brute_force_svp(sa.Basis(((1, 0), (0, 1))), ((1, 3), (-1, 1)))


def test_brute_force_matches_ball_enumeration():
    for seed in range(12):
        inst = sa.generate_instance(3, seed)
        h = sa.hnf(inst.bad)
        expect = shortest_by_ball(h.rows)
        got = sa.brute_force_svp(sa.Basis(h.rows), sa.auto_box(inst.bad))
        assert got.lambda1_sq == expect


def test_minkowski_containment_small_optimal_lattices():
    found = 0
    seed = 0
    while found < 10:
        n = 2 + seed % 4  # dimensions 2..5
        inst = sa.generate_instance(n, 1000 + seed)
        seed += 1
        h = sa.hnf(inst.bad)
        if not sa.is_optimal_hnf(h):
            continue
        found += 1
        d = h.covolume
        res = sa.brute_force_svp(sa.Basis(h.rows), sa.coefficient_box(n, d))
        assert res.lambda1_sq <= n * d ** (2.0 / n) + 1e-9


def test_coefficient_box_shape():
    box = sa.coefficient_box(4, 16)
    a = math.floor(math.sqrt(4) * 2)
    c = math.floor(4 ** 1.5 * 2)
    assert box == tuple([(-a, a)] * 3 + [(-c, c)])
