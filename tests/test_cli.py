import csv
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import svpanneal as sa
from svpanneal import cli
from svpanneal.cli import main


def run(args):
    return main([str(a) for a in args])


@pytest.fixture()
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    run(["gen", "--dim", 3, "--seed", 7, "--out", path])
    return path


@pytest.fixture()
def model_file(tmp_path, instance_file):
    path = tmp_path / "model.json"
    run(["encode", "--in", instance_file, "--encoding", "bin",
         "--range=-2:1", "--out", path])
    return path


def test_gen_writes_instance(instance_file):
    inst = sa.Instance.load(instance_file)
    assert inst.dim == 3
    assert inst == sa.generate_instance(3, 7)


def test_hnf_prints_pivots(instance_file, capsys):
    run(["hnf", "--in", instance_file])
    out = capsys.readouterr().out
    assert "pivots" in out and "covolume" in out


def test_bound_output(capsys):
    run(["bound", "--dim", 4, "--det", 16, "--encoding", "bin"])
    out = capsys.readouterr().out
    assert "qubits per qudit: 5" in out
    assert "total qubits: 20" in out


def test_oracle_auto_box(instance_file, capsys):
    run(["oracle", "--in", instance_file, "--box", "auto"])
    payload = json.loads(capsys.readouterr().out)
    inst = sa.Instance.load(instance_file)
    h = sa.hnf(inst.bad)
    expect = sa.brute_force_svp(sa.Basis(h.rows), sa.auto_box(inst.bad))
    assert payload["lambda1_sq"] == expect.lambda1_sq
    assert payload["coefficient_frame"] == "hnf"


def test_oracle_auto_box_computes_hnf_once(instance_file, monkeypatch, capsys):
    # count every hnf the command can reach: auto_box's and the CLI's own
    calls = []
    real = sa.lattice.hnf

    def counted(basis):
        calls.append(basis)
        return real(basis)

    monkeypatch.setattr(sa.lattice, "hnf", counted)
    monkeypatch.setattr(cli, "hnf", counted)
    run(["oracle", "--in", instance_file, "--box", "auto"])
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["coefficient_frame"] == "hnf"


def test_oracle_radius_box(instance_file, capsys):
    run(["oracle", "--in", instance_file, "--box", "3"])
    payload = json.loads(capsys.readouterr().out)
    inst = sa.Instance.load(instance_file)
    expect = sa.brute_force_svp(inst.bad, ((-3, 3),) * 3)
    assert payload["lambda1_sq"] == expect.lambda1_sq


def test_oracle_zero_box_rejected(instance_file):
    with pytest.raises(sa.LatticeError, match="no nonzero vector"):
        run(["oracle", "--in", instance_file, "--box", 0])


@pytest.mark.parametrize("flags", [[], ["--k", 1, "--range=-2:2"]])
def test_encode_needs_exactly_one_range_flag(tmp_path, instance_file, capsys, flags):
    with pytest.raises(SystemExit) as exc:
        run(["encode", "--in", instance_file, "--encoding", "ham",
             "--out", tmp_path / "m.json"] + flags)
    assert exc.value.code == 2
    assert "--range" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_encode_round_trip(model_file):
    model = sa.IsingModel.load(model_file)
    assert model.n_qubits == 6
    assert model.layout.encoding.family == "binary"


def test_gap_scan_csv(tmp_path, model_file, capsys):
    out = tmp_path / "profile.csv"
    run(["gap-scan", "--model", model_file, "--grid", 9, "--out", out])
    with open(out) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["s", "E0", "E1", "gap"]
    assert len(rows) == 10
    assert float(rows[1][0]) == 0.0 and float(rows[-1][0]) == 1.0


def test_gap_scan_sector(tmp_path, instance_file, capsys):
    model_path = tmp_path / "ham.json"
    run(["encode", "--in", instance_file, "--encoding", "ham",
         "--k", 0, "--out", model_path])
    out = tmp_path / "sector.csv"
    run(["gap-scan", "--model", model_path, "--grid", 9, "--out", out])
    with open(out) as f:
        rows = list(csv.reader(f))
    assert len(rows) == 10
    inst = sa.Instance.load(instance_file)
    prof = sa.sector_gap_scan(sa.gram(inst.bad), sa.QuditEncoding.hamming(k=0),
                              sa.DriverSpec(), grid=9)
    assert min(float(r[3]) for r in rows[1:]) == pytest.approx(
        prof.min_gap[1], abs=1e-9)


def test_gap_scan_reports_solver_diagnostics(tmp_path, instance_file, capsys):
    # binary [-4,3]: 512 sector states, the block solver
    model_path = tmp_path / "bin4.json"
    run(["encode", "--in", instance_file, "--encoding", "bin",
         "--range=-4:3", "--out", model_path])
    capsys.readouterr()
    run(["gap-scan", "--model", model_path, "--grid", 9, "--out", tmp_path / "p.csv"])
    line = capsys.readouterr().out
    prof = sa.gap_scan(sa.ProblemDiagonal.from_model(sa.IsingModel.load(model_path)),
                       sa.DriverSpec(), grid=9)
    assert prof.iterations.sum() > 0
    assert f"; {prof.iterations.sum()} solver iterations, " in line
    assert f"largest residual {prof.residual.max():.3g}" in line


def test_gap_scan_6d_hamming(tmp_path, capsys):
    # 6D Hamming [-2,2]: 15,625 sector states, over the old 8192-state cap
    inst_path = tmp_path / "inst6.json"
    run(["gen", "--dim", 6, "--seed", 0, "--out", inst_path])
    model_path = tmp_path / "ham6.json"
    run(["encode", "--in", inst_path, "--encoding", "ham", "--range=-2:2",
         "--out", model_path])
    out = tmp_path / "ham6.csv"
    run(["gap-scan", "--model", model_path, "--grid", 5, "--out", out])
    with open(out) as f:
        rows = list(csv.reader(f))
    assert len(rows) == 6
    # 2 h0 at s = 0, the smallest nonzero squared length at s = 1
    diag = sa.ProblemDiagonal.from_model(sa.IsingModel.load(model_path))
    assert [float(r[3]) for r in rows[1::4]] == [2.0, float(np.unique(diag.values)[1])]


def test_gap_scan_refuses_oversized_sector(tmp_path, instance_file):
    model_path = tmp_path / "bin16.json"
    run(["encode", "--in", instance_file, "--encoding", "bin",
         "--range=-16:15", "--out", model_path])
    t0 = time.perf_counter()
    with pytest.raises(sa.ResourceLimitError, match="32768"):
        run(["gap-scan", "--model", model_path, "--out", tmp_path / "x.csv"])
    assert time.perf_counter() - t0 < 0.5


def test_simulate_results(tmp_path, model_file, instance_file, capsys):
    out = tmp_path / "results.json"
    run(["simulate", "--model", model_file, "--T", "2^0..2^2",
         "--instance", instance_file, "--out", out])
    with open(out) as f:
        payload = json.load(f)
    assert payload["kind"] == "sweep-results"
    assert len(payload["runs"]) == 3
    for r in payload["runs"]:
        total = sum(float(v) for v in r["grouped"].values())
        assert abs(total - 1.0) < 1e-6


def test_simulate_keeps_finished_T_when_one_fails(tmp_path, model_file, monkeypatch, capsys):
    evolve = cli.evolve

    def fail_at_2(diag, driver, schedule):
        if schedule.T == 2:
            raise sa.IntegratorError("norm drift 1e-3 exceeds 1e-09")
        return evolve(diag, driver, schedule)

    monkeypatch.setattr(cli, "evolve", fail_at_2)
    out = tmp_path / "results.json"
    assert run(["simulate", "--model", model_file, "--T", "1,2,4", "--out", out]) == 1
    assert "T=2" in capsys.readouterr().err
    payload = json.loads(out.read_text())
    assert [r["T"] for r in payload["runs"]] == [1, 4]
    assert payload["failed"] == [{"T": 2, "error": "norm drift 1e-3 exceeds 1e-09"}]


@pytest.mark.parametrize("T", ["1,4,-1", "1,inf", "2^1023..2^1024"])
def test_simulate_refuses_bad_T_before_any_sweep(tmp_path, model_file, monkeypatch, T):
    calls = []
    monkeypatch.setattr(cli, "evolve", lambda *a: calls.append(a))
    out = tmp_path / "results.json"
    with pytest.raises(SystemExit, match="not positive and finite"):
        run(["simulate", "--model", model_file, "--T", T, "--out", out])
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "emulate"])
def test_missing_instance_fails_before_the_run(tmp_path, model_file, monkeypatch, command):
    # a bad --instance path fails before any sweep or read is spent
    calls = []

    def counted(real):
        return lambda *a, **k: calls.append(a) or real(*a, **k)

    monkeypatch.setattr(cli, "evolve", counted(cli.evolve))
    monkeypatch.setattr(sa.emulator, "sample", counted(sa.emulator.sample))
    out = tmp_path / "results.json"
    args = [command, "--model", model_file, "--instance", tmp_path / "missing.json",
            "--out", out]
    with pytest.raises(FileNotFoundError, match="missing.json"):
        run(args + (["--T", 1] if command == "simulate"
                    else ["--reads", 5, "--sweeps", 10]))
    assert calls == []
    assert not out.exists()


def test_module_entry_point_runs_without_warnings():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "svpanneal.cli", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_hamming_30_qubits_run_in_the_sector(tmp_path):
    # 3D Hamming [-5,5]: 30 qubits, an 11^3 = 1331-state sector; the 2^30
    # diagonal (8 GiB) is never built
    inst_path = tmp_path / "inst.json"
    run(["gen", "--dim", 3, "--seed", 0, "--out", inst_path])
    model_path = tmp_path / "ham5.json"
    run(["encode", "--in", inst_path, "--encoding", "ham", "--range=-5:5",
         "--out", model_path])
    res_path = tmp_path / "res.json"
    run(["simulate", "--model", model_path, "--T", 1, "--out", res_path])
    grouped = json.loads(res_path.read_text())["runs"][0]["grouped"]
    assert sum(grouped.values()) == pytest.approx(1.0, abs=1e-9)
    g = sa.gram(sa.Instance.load(inst_path).bad)
    enc = sa.QuditEncoding.hamming(rng=(-5, 5))
    x = np.array(list(itertools.product(range(-5, 6), repeat=3)))
    lengths = np.einsum("ij,jk,ik->i", x, np.array(g.entries), x)
    assert {int(k) for k in grouped} <= set(lengths.tolist())
    csv_path = tmp_path / "gap.csv"
    run(["gap-scan", "--model", model_path, "--grid", 9, "--out", csv_path])
    with open(csv_path) as f:
        rows = list(csv.reader(f))
    prof = sa.sector_gap_scan(g, enc, sa.DriverSpec(), grid=9)
    assert min(float(r[3]) for r in rows[1:]) == float(f"{prof.min_gap[1]:.12g}")


def test_simulate_refuses_oversized_sector(tmp_path, instance_file):
    # 3D binary k=8: 27 qubits, a 2^27-state sector
    model_path = tmp_path / "bin8.json"
    run(["encode", "--in", instance_file, "--encoding", "bin", "--k", 8,
         "--out", model_path])
    t0 = time.perf_counter()
    with pytest.raises(sa.ResourceLimitError, match=str(2 ** 27)):
        run(["simulate", "--model", model_path, "--T", 1, "--out", tmp_path / "x.json"])
    assert time.perf_counter() - t0 < 0.5


def test_emulate_and_histogram(tmp_path, instance_file, capsys):
    model_path = tmp_path / "ham.json"
    run(["encode", "--in", instance_file, "--encoding", "ham",
         "--range=-1:1", "--out", model_path])
    samples = tmp_path / "samples.json"
    run(["emulate", "--model", model_path, "--reads", 50, "--seed", 3,
         "--sweeps", 200, "--instance", instance_file, "--out", samples])
    with open(samples) as f:
        payload = json.load(f)
    assert payload["kind"] == "sample-results"
    assert payload["reads"] == 50
    hist = tmp_path / "hist.csv"
    run(["histogram", "--in", samples, "--instance", instance_file,
         "--out", hist])
    assert "lambda1_sq" in hist.read_text()


def test_histogram_of_sweep_file(tmp_path, model_file, instance_file, capsys):
    res_path = tmp_path / "res.json"
    run(["simulate", "--model", model_file, "--T", "1,4", "--out", res_path])
    hist = tmp_path / "hist.csv"
    run(["histogram", "--in", res_path, "--instance", instance_file, "--out", hist])
    with open(hist) as f:
        rows = list(csv.reader(f))
    # the last T of the sweep file, as analyze scores it
    grouped = json.loads(res_path.read_text())["runs"][-1]["grouped"]
    bins = {int(r[0]): float(r[1]) for r in rows[1:rows.index([])]}
    assert bins == pytest.approx({int(k): v for k, v in grouped.items()}, abs=1e-9)
    with pytest.raises(SystemExit, match="model.json"):
        run(["histogram", "--in", model_file, "--instance", instance_file,
             "--out", hist])


def test_emulate_refuses_zero_sweeps(tmp_path, model_file):
    # zero sweeps used to write the unannealed random start states
    with pytest.raises(ValueError, match="sweep"):
        run(["emulate", "--model", model_file, "--reads", 5, "--sweeps", 0,
             "--out", tmp_path / "samples.json"])
    assert not (tmp_path / "samples.json").exists()


def test_analyze_directory(tmp_path, instance_file, capsys):
    for seed in (7, 8):
        inst_path = tmp_path / f"inst{seed}.json"
        run(["gen", "--dim", 3, "--seed", seed, "--out", inst_path])
        model_path = tmp_path / f"model{seed}.json"
        run(["encode", "--in", inst_path, "--encoding", "bin",
             "--range=-2:1", "--out", model_path])
        run(["simulate", "--model", model_path, "--T", "4",
             "--instance", inst_path, "--out", tmp_path / f"res{seed}.json"])
    out = tmp_path / "fom.csv"
    run(["analyze", "--in", tmp_path, "--out", out])
    with open(out) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["dim", "encoding", "fom", "mean", "stderr", "baseline"]
    assert len(rows) == 1 + 4  # one (dim, encoding) cell, four FoM


def test_analyze_wide_hamming_sweeps(tmp_path):
    # 4D Hamming [-8,8]: 64 qubits, an 83521-state sector whose
    # configuration count, 2^64, is past int64
    for seed in (0, 1):
        inst_path = tmp_path / f"inst{seed}.json"
        run(["gen", "--dim", 4, "--seed", seed, "--out", inst_path])
        model_path = tmp_path / f"model{seed}.model"
        run(["encode", "--in", inst_path, "--encoding", "ham", "--range=-8:8",
             "--out", model_path])
        run(["simulate", "--model", model_path, "--T", 0.01,
             "--instance", inst_path, "--out", tmp_path / f"res{seed}.json"])
    out = tmp_path / "fom.csv"
    run(["analyze", "--in", tmp_path, "--out", out])
    with open(out) as f:
        rows = list(csv.reader(f))
    fom_names = list(sa.experiments.FOM_NAMES)
    assert [r[:3] for r in rows[1:]] == [["4", "hamming", fom] for fom in fom_names]
    assert 0 < float(rows[-1][5]) < 1


def test_analyze_rejects_sweep_file_without_runs(tmp_path, model_file, instance_file):
    res_path = tmp_path / "res_a.json"
    run(["simulate", "--model", model_file, "--T", 1, "--instance", instance_file,
         "--out", res_path])
    payload = json.loads(res_path.read_text())
    payload["runs"] = []
    for name in ("res_a.json", "res_b.json"):
        (tmp_path / name).write_text(json.dumps(payload))
    with pytest.raises(SystemExit, match="res_a.json"):
        run(["analyze", "--in", tmp_path, "--out", tmp_path / "an.csv"])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        run(["frobnicate"])
