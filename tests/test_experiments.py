import csv
import itertools
import math
import time

import numpy as np
import pytest

import svpanneal as sa
from svpanneal import experiments
from svpanneal.experiments import FoMRow, InstanceRecord, basis_thresholds

from oracles import exhaustive_length_table, length_sq


def oracle_for(inst):
    h = sa.hnf(inst.bad)
    return sa.brute_force_svp(sa.Basis(h.rows), sa.auto_box(inst.bad))


def uniform_distribution(inst, enc):
    g = sa.gram(inst.bad)
    table = exhaustive_length_table(g, enc)
    levels, counts = np.unique(table, return_counts=True)
    return {int(l): int(c) / table.size for l, c in zip(levels, counts)}


class TestFiguresOfMerit:
    def test_all_zero_outcome(self):
        inst = sa.generate_instance(3, 0)
        probs = sa.figures_of_merit({0: 1.0}, inst.bad, oracle_for(inst))
        assert (probs.p_zero, probs.p_shortest,
                probs.p_shorter_min, probs.p_shorter_median) == (1, 0, 0, 0)

    def test_concentrated_on_witness(self):
        # first seed whose shortest vector beats every input basis vector
        for seed in range(50):
            inst = sa.generate_instance(3, seed)
            orc = oracle_for(inst)
            lo, _ = basis_thresholds(sa.gram(inst.bad))
            if orc.lambda1_sq < lo:
                break
        else:
            pytest.fail("no strict instance found")
        probs = sa.figures_of_merit(
            {orc.lambda1_sq: 1.0}, inst.bad, orc
        )
        assert (probs.p_zero, probs.p_shortest,
                probs.p_shorter_min, probs.p_shorter_median) == (0, 1, 1, 1)

    def test_threshold_nesting(self):
        for seed in range(8):
            inst = sa.generate_instance(3, seed)
            orc = oracle_for(inst)
            g = sa.gram(inst.bad)
            if orc.lambda1_sq >= basis_thresholds(g)[0]:
                continue
            enc = sa.QuditEncoding.binary(k=2)
            dist = uniform_distribution(inst, enc)
            probs = sa.figures_of_merit(dist, inst.bad, orc)
            assert probs.p_shortest <= probs.p_shorter_min <= probs.p_shorter_median

    def test_uniform_matches_baseline_exactly(self):
        inst = sa.generate_instance(2, 5)
        for enc in (sa.QuditEncoding.hamming(rng=(-2, 2)),
                    sa.QuditEncoding.binary(k=2)):
            dist = uniform_distribution(inst, enc)
            probs = sa.figures_of_merit(dist, inst.bad, oracle_for(inst))
            b_min, b_med = sa.baseline(inst.bad, enc)
            assert probs.p_shorter_min == b_min
            assert probs.p_shorter_median == b_med

    def test_sweep_result_outcome(self):
        inst = sa.generate_instance(2, 5)
        enc = sa.QuditEncoding.binary(k=1)
        diag = sa.ProblemDiagonal.from_model(
            sa.compile_ising(sa.gram(inst.bad), enc)
        )
        res = sa.evolve(diag, sa.DriverSpec(), sa.SweepSchedule(T=4.0))
        probs = sa.figures_of_merit(res.grouped, inst.bad, oracle_for(inst))
        assert probs.p_zero == pytest.approx(res.p_zero)

    def test_sample_set_outcome(self):
        inst = sa.generate_instance(2, 5)
        ss = sa.SampleSet(
            configs=np.ones((4, 4), dtype=np.int8),
            energies=np.array([0.0, 0.0, 2.0, 5.0]),
            lengths_sq=np.array([0, 0, 2, 5]),
            chain_break_fraction=np.zeros(4),
        )
        orc = oracle_for(inst)
        probs = sa.figures_of_merit(ss, inst.bad, orc)
        assert probs.p_zero == 0.5


class TestBaseline:
    def test_unit_lattice_nothing_shorter(self):
        b = sa.Basis(((1,),))
        enc = sa.QuditEncoding.binary(k=1)
        p_min, p_med = sa.baseline(b, enc)
        assert p_min == 0.0
        assert p_med == 0.0

    def test_matched_range_baselines_vs_double_count(self):
        # matched ranges [-4,4] / [-4,3]; independent pure-python double
        # count over the coefficient boxes with binomial redundancies
        inst = sa.generate_instance(3, 1)
        g = sa.gram(inst.bad)
        lo_thr, med_thr = basis_thresholds(g)

        def double_count(lo, hi, redund):
            total = hits_min = hits_med = 0
            for x0 in range(lo, hi + 1):
                for x1 in range(lo, hi + 1):
                    for x2 in range(lo, hi + 1):
                        w = redund(x0) * redund(x1) * redund(x2)
                        length = length_sq(g, (x0, x1, x2))
                        total += w
                        if 0 < length < lo_thr:
                            hits_min += w
                        if 0 < length < med_thr:
                            hits_med += w
            return hits_min / total, hits_med / total

        ham = sa.QuditEncoding.hamming(k=2)
        binr = sa.QuditEncoding.binary(k=2)
        bh = sa.baseline(inst.bad, ham)
        bb = sa.baseline(inst.bad, binr)
        assert bh == double_count(-4, 4, lambda v: math.comb(8, 4 + v))
        assert bb == double_count(-4, 3, lambda v: 1)
        assert bh != bb
        # the gap is bounded by the redundancy reweighting distance plus
        # the (small) coefficient-uniform difference of the two boxes
        bh_u = double_count(-4, 4, lambda v: 1)
        bb_u = double_count(-4, 3, lambda v: 1)
        tv = 0.5 * sum(
            abs(math.comb(8, 4 + v) / 2 ** 8 - 1 / 9) for v in range(-4, 5)
        )
        tv3 = 1 - (1 - tv) ** 3  # product-measure bound over 3 qudits
        for i in range(2):
            assert abs(bh[i] - bb[i]) <= tv3 + abs(bh_u[i] - bb_u[i]) + 1e-12

    def test_wide_hamming_box_vs_double_count(self):
        # 4D Hamming [-8,8]: the redundancy weights multiply to 2^64 in
        # all, past int64; the reference counts in Python ints
        inst = sa.generate_instance(4, 0)
        g = sa.gram(inst.bad)
        lo_thr, med_thr = basis_thresholds(g)
        total = hits_min = hits_med = 0
        for x in itertools.product(range(-8, 9), repeat=4):
            w = math.prod(math.comb(16, 8 + v) for v in x)
            length = length_sq(g, x)
            total += w
            hits_min += w if 0 < length < lo_thr else 0
            hits_med += w if 0 < length < med_thr else 0
        assert total == 2 ** 64
        got = sa.baseline(inst.bad, sa.QuditEncoding.hamming(rng=(-8, 8)))
        assert got == pytest.approx((hits_min / total, hits_med / total), rel=1e-12)

    def test_box_over_state_cap_refused(self):
        # 3D binary k=8: a 2^27-state sector, refused before allocating
        inst = sa.generate_instance(3, 0)
        t0 = time.perf_counter()
        with pytest.raises(sa.ResourceLimitError, match=str(2 ** 27)):
            sa.baseline(inst.bad, sa.QuditEncoding.binary(k=8))
        assert time.perf_counter() - t0 < 0.5


def cell(report, fom):
    """The report row of the 3D Hamming cell for one figure of merit."""
    (row,) = [r for r in report.rows if (r.dim, r.encoding, r.fom) == (3, "hamming", fom)]
    return row


class TestAggregate:
    def _rec(self, p, dim=3, enc="hamming", base=None):
        return InstanceRecord(
            dim=dim, encoding=enc,
            probs=experiments.FourProbs(*p), baselines=base,
        )

    def test_identical_reports_zero_stderr(self):
        recs = [self._rec((0.5, 0.2, 0.3, 0.4)) for _ in range(5)]
        report = sa.aggregate(recs)
        for name in experiments.FOM_NAMES:
            row = cell(report, name)
            assert row.stderr == 0.0

    def test_two_point_formula(self):
        recs = [self._rec((0.0, 0, 0, 0)), self._rec((1.0, 0, 0, 0))]
        row = cell(sa.aggregate(recs), "p_zero")
        assert row.mean == pytest.approx(0.5)
        assert row.stderr == pytest.approx(0.5)  # std(ddof=1)/sqrt(2)

    def test_means_inside_member_range(self):
        rng = np.random.default_rng(0)
        recs = [self._rec(tuple(rng.random(4))) for _ in range(7)]
        report = sa.aggregate(recs)
        for name in experiments.FOM_NAMES:
            vals = [getattr(r.probs, name) for r in recs]
            row = cell(report, name)
            assert min(vals) <= row.mean <= max(vals)

    def test_baselines_attached_to_last_two_foms(self):
        recs = [self._rec((0.1, 0.1, 0.1, 0.1), base=(0.02, 0.08))
                for _ in range(3)]
        report = sa.aggregate(recs)
        assert cell(report, "p_zero").baseline is None
        assert cell(report, "p_shorter_min").baseline == 0.02
        assert cell(report, "p_shorter_median").baseline == 0.08

    def test_single_instance_cell_rejected(self):
        with pytest.raises(ValueError):
            sa.aggregate([self._rec((0, 0, 0, 0))])

    def test_csv_layout(self, tmp_path):
        recs = [self._rec((0.5, 0.2, 0.3, 0.4), base=(0.1, 0.2))
                for _ in range(2)]
        path = tmp_path / "fom.csv"
        sa.aggregate(recs).to_csv(path)
        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["dim", "encoding", "fom", "mean", "stderr", "baseline"]
        assert len(rows) == 1 + 4


class TestHistogram:
    def test_concentrated_reads(self):
        inst = sa.generate_instance(3, 0)
        orc = oracle_for(inst)
        ss = sa.SampleSet(
            configs=np.ones((900, 9), dtype=np.int8),
            energies=np.full(900, float(orc.lambda1_sq)),
            lengths_sq=np.full(900, orc.lambda1_sq, dtype=np.int64),
            chain_break_fraction=np.zeros(900),
        )
        hist = sa.histogram(ss, inst.bad, orc)
        assert hist.bins == {orc.lambda1_sq: 900}
        assert hist.total() == 900

    def test_markers(self):
        inst = sa.generate_instance(3, 2)
        orc = oracle_for(inst)
        g = sa.gram(inst.bad)
        dist = uniform_distribution(inst, sa.QuditEncoding.binary(k=1))
        hist = sa.histogram(dist, inst.bad, orc)
        assert hist.lambda1_sq == orc.lambda1_sq
        assert hist.basis_lengths_sq == tuple(
            g.entries[i][i] for i in range(3)
        )

    def test_csv(self, tmp_path):
        inst = sa.generate_instance(3, 2)
        hist = sa.histogram({0: 0.25, 1: 0.75}, inst.bad, oracle_for(inst))
        path = tmp_path / "hist.csv"
        hist.to_csv(path)
        text = path.read_text()
        assert "len_sq" in text and "lambda1_sq" in text


class TestThresholds:
    def test_median_upper_middle_for_even_dim(self):
        g = sa.GramMatrix((
            (1, 0, 0, 0),
            (0, 4, 0, 0),
            (0, 0, 9, 0),
            (0, 0, 0, 16),
        ))
        lo, med = basis_thresholds(g)
        assert lo == 1
        assert med == 9  # ascending index n//2 = 2

    def test_median_odd_dim(self):
        g = sa.GramMatrix(((4, 0, 0), (0, 1, 0), (0, 0, 9)))
        assert basis_thresholds(g) == (1, 4)
