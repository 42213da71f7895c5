"""Tests of the benchmark itself: every correctness check rejects a planted
fault, and the self-time arithmetic is right on a small span tree.

    python3 -m pytest perfbench/tests -q
"""
import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import gates  # noqa: E402
import svpanneal as sa  # noqa: E402
from spans import Recorder, Span, layer_self_times, self_times  # noqa: E402
from workloads import WORKLOADS, Item  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text())


def _gram(inst):
    return [list(r) for r in sa.gram(inst.bad).entries]


@pytest.fixture(scope="module")
def sweep_case():
    """A small real sweep: 2D, binary [-2,1] (4 qubits), T=1 and T=2."""
    inst = sa.generate_instance(2, 3)
    enc = sa.QuditEncoding.binary(rng=(-2, 1))
    diag = sa.ProblemDiagonal.from_model(sa.compile_ising(sa.gram(inst.bad), enc))
    runs = []
    for T in (1.0, 2.0):
        res = sa.evolve(diag, sa.DriverSpec(), sa.SweepSchedule(T=T))
        runs.append({"T": T, "norm_drift": res.norm_drift,
                     "grouped": {str(k): v for k, v in res.grouped.items()}})
    runs = json.loads(json.dumps(runs))
    return runs, gates.gram_values(_gram(inst), enc.lo, enc.hi)


def test_sweep_check_accepts_real_output(sweep_case):
    runs, allowed = sweep_case
    assert gates.check_sweep_runs(runs, 1e-9, allowed) == []


def test_sweep_check_rejects_moved_probability(sweep_case):
    runs, allowed = sweep_case
    bad = copy.deepcopy(runs)
    key = next(iter(bad[1]["grouped"]))
    bad[1]["grouped"][key] += 1e-6
    fails = gates.check_sweep_runs(bad, 1e-9, allowed)
    assert [layer for layer, _ in fails] == ["dynamics"]
    assert "sum to" in fails[0][1]


def test_sweep_check_rejects_stray_length_and_drift(sweep_case):
    runs, allowed = sweep_case
    bad = copy.deepcopy(runs)
    stray = max(allowed) + 1
    bad[0]["grouped"][str(stray)] = bad[0]["grouped"].pop(next(iter(bad[0]["grouped"])))
    bad[1]["norm_drift"] = 2e-9
    fails = gates.check_sweep_runs(bad, 1e-9, allowed)
    assert any("not Gram values" in m for _, m in fails)
    assert any("norm drift" in m for _, m in fails)


def test_fom_check_rejects_moved_probability():
    ref = [{"p_zero": 0.25, "p_shortest": 0.5, "p_shorter_min": 0.0, "p_shorter_median": 0.5}]
    assert gates.check_foms(copy.deepcopy(ref), ref) == []
    bad = copy.deepcopy(ref)
    bad[0]["p_shortest"] += 1e-6
    fails = gates.check_foms(bad, ref)
    assert len(fails) == 1 and fails[0][0] == "experiments" and "p_shortest" in fails[0][1]


def test_gap_check_rejects_perturbed_gap():
    ref = [2.0, 0.5, 1e-3, 40.0]
    assert gates.check_gaps([2.0, 0.5, 1e-3 + 1e-9, 40.0 * (1 + 1e-9)], ref) == []
    assert gates.check_gaps([2.0, 0.5, 1e-3 + 1e-7, 40.0], ref)[0][0] == "spectrum"
    assert gates.check_gaps([2.0, 0.5, 1e-3, 40.0 * (1 + 1e-7)], ref)[0][0] == "spectrum"


@pytest.mark.parametrize("family", ["hamming", "binary"])
def test_sample_check_matches_package_decoding_and_rejects_wrong_length(family):
    inst = sa.generate_instance(3, 5)
    enc = (sa.QuditEncoding.hamming(rng=(-2, 2)) if family == "hamming"
           else sa.QuditEncoding.binary(rng=(-4, 3)))
    model = sa.compile_ising(sa.gram(inst.bad), enc)
    rng = np.random.default_rng(1)
    samples = []
    for _ in range(40):
        spins = [int(s) for s in rng.choice([-1, 1], size=model.n_qubits)]
        cfg = sa.SpinConfig(tuple(spins))
        assert gates.decode_spins(spins, model.layout.qudits, family) == model.decode(cfg)
        samples.append({"logical_config": spins, "length_sq": int(model.energy(cfg))})
    g = _gram(inst)
    qudits = [list(q) for q in model.layout.qudits]
    assert gates.check_samples(samples, g, qudits, family) == []
    samples[17]["length_sq"] += 1
    fails = gates.check_samples(samples, g, qudits, family)
    assert len(fails) == 1 and fails[0][0] == "emulator" and "sample 17" in fails[0][1]


def test_oracle_job_matches_reference_and_rejects_wrong_witness():
    wl = WORKLOADS["oracle-7d"]
    item = Item(0)
    out = wl.run_job(item, Recorder(), (0, 0))
    assert wl.check_job(item, out, REFERENCE["oracle-7d"]) == []
    bad = copy.deepcopy(out)
    bad["witnesses"][0] = [v + 1 if i == 0 else v for i, v in enumerate(bad["witnesses"][0])]
    fails = wl.check_job(item, bad, REFERENCE["oracle-7d"])
    assert any("witness set" in m for _, m in fails)
    assert any("has length^2" in m for _, m in fails)
    worse = dict(out, lambda1_sq=out["lambda1_sq"] + 1)
    assert any("lambda1^2" in m for _, m in wl.check_job(item, worse, REFERENCE["oracle-7d"]))


def test_ensemble_z_separates_bias_from_noise():
    ref_p = [0.3, 0.1]
    reads = [32, 32] * 4
    rng = np.random.default_rng(7)
    hits = [int(rng.binomial(32, p)) for p in ref_p * 4]
    assert gates.ensemble_z(hits, reads, ref_p * 4, 512) < gates.ENSEMBLE_Z_MAX
    biased = [int(32 * (p + 0.25)) for p in ref_p * 4]
    assert gates.ensemble_z(biased, reads, ref_p * 4, 512) > gates.ENSEMBLE_Z_MAX
    # a level the reference never saw may appear a little without failing
    assert gates.ensemble_z([1, 0], [32, 32], [0.0, 0.0], 512) < gates.ENSEMBLE_Z_MAX


def test_anneal_ensemble_check_rejects_biased_sampler():
    wl = WORKLOADS["anneal"]
    ref = REFERENCE["anneal"]
    items = [Item(int(seed)) for seed in ref["instances"]] * 2

    def jobs(foms_of):
        return [(it, {name: {"foms": foms_of(it, name)} for name in ("ham", "bin")})
                for it in items]

    # the reference's own probabilities, rounded to whole reads, pass
    def faithful(it, name):
        return {f: round(p * wl.reads) / wl.reads
                for f, p in ref["instances"][str(it.seed)][name].items()}

    assert wl.ensemble_failures(jobs(faithful), ref) == []

    # a sampler that always returns the zero vector fails
    def stuck(it, name):
        return {"p_zero": 1.0, "p_shortest": 0.0, "p_shorter_min": 0.0, "p_shorter_median": 0.0}

    fails = wl.ensemble_failures(jobs(stuck), ref)
    assert fails and {layer for layer, _ in fails} == {"emulator"}


def test_self_times_on_span_tree():
    spans = [
        Span(0, "job", 0.0, 10.0, None, "job0"),
        Span(1, "stage.simulate", 1.0, 9.0, 0, "job0"),
        Span(2, "dynamics.evolve", 2.0, 4.0, 1, "job0"),
        Span(3, "dynamics.evolve", 3.0, 5.0, 1, "job0"),  # overlaps span 2
        Span(4, "spectrum.sector_scan", 6.0, 8.0, 1, "job0"),
        Span(5, "cli.json", 9.5, 10.5, 0, "job0"),  # runs past its parent
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 10 - 8 - 0.5, 1: 8 - 3 - 2, 2: 2, 3: 2, 4: 2, 5: 1})
    assert layer_self_times(spans) == pytest.approx(
        {"job": 1.5, "stage": 3, "dynamics": 4, "spectrum": 2, "cli": 1})


def test_recorder_charges_failure_to_innermost_call():
    rec = Recorder(tracing=True)
    rec.start_job("job0", True)
    with pytest.raises(sa.IntegratorError):
        with rec.span("job"), rec.span("stage.simulate"), rec.span("dynamics.evolve"):
            raise sa.IntegratorError("planted")
    assert rec.failed_in == "dynamics.evolve"
    assert [s.name for s in rec.spans] == ["dynamics.evolve", "stage.simulate", "job"]
    assert rec.spans[0].parent == rec.spans[1].id and rec.spans[1].parent == rec.spans[2].id
    untraced = Recorder(tracing=False)
    with untraced.span("job"):
        untraced.count("dynamics.windows", 5)
    assert untraced.spans == [] and not untraced.counts
