"""The benchmark's workloads: fixed pools of seeded lattices, each job taken
through the same public svpanneal calls, in the same stage order, as the
CLI's ``gen -> encode -> simulate | emulate -> analyze``.

Every stage output goes through the package's own JSON round trip in
memory, as the CLI does on disk.  Pools are consecutive lattice seeds with
no screening; they are fixed because the correctness gate compares every job
with reference outputs committed for exactly these lattices.  The workload
seed sets where in the pool a run starts and seeds the annealer's random
streams.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

import gates
import svpanneal as sa
from svpanneal import emulator
from svpanneal.dynamics import NORM_DRIFT_BOUND

ENCODINGS = {
    "ham": sa.QuditEncoding.hamming(rng=(-2, 2)),  # 12 qubits at 3D
    "bin": sa.QuditEncoding.binary(rng=(-4, 3)),  # 9 qubits at 3D
}
SWEEP_T = tuple(2.0 ** e for e in range(6))
H0 = 1.0
GAP_GRID = 33
ANNEAL_READS = 32
ANNEAL_SWEEPS = 1000
NOISE_SIGMA = 0.05


@dataclass
class Item:
    """One pool lattice, with what set-up prepared for it."""

    seed: int
    instance: sa.Instance | None = None
    gram: sa.GramMatrix | None = None
    hnf_basis: sa.Basis | None = None
    box: tuple | None = None


def _roundtrip(rec, obj: dict, indent: int | None = 1) -> dict:
    text = json.dumps(obj, indent=indent)
    rec.count("cli.json_bytes", len(text))
    return json.loads(text)


def _grouped(run: dict) -> dict[int, float]:
    return {int(k): float(v) for k, v in run["grouped"].items()}


class Workload:
    name: str
    dim = 3
    pool: tuple[int, ...]

    def params(self) -> dict:
        return {"dim": self.dim, "pool": list(self.pool)}

    def prepare(self, rec) -> list[Item]:
        """Set-up: generate the pool's instances (the CLI's ``gen``) and
        the oracle frame that analysis uses."""
        items = []
        for seed in self.pool:
            with rec.span("lattice.generate"):
                inst = sa.generate_instance(self.dim, seed)
            with rec.span("cli.json"):
                inst = sa.Instance.from_json(_roundtrip(rec, inst.to_json()))
            with rec.span("lattice.hnf"):
                hnf_basis = sa.Basis(sa.hnf(inst.bad).rows)
                box = sa.auto_box(inst.bad)
            with rec.span("lattice.gram"):
                g = sa.gram(inst.bad)
            items.append(Item(seed, inst, g, hnf_basis, box))
        return items

    def run_job(self, item: Item, rec, job_seed: tuple[int, ...]) -> dict:
        """One job; job_seed seeds whatever randomness the job draws."""
        raise NotImplementedError

    def check_job(self, item: Item, out: dict, ref: dict) -> gates.Failures:
        raise NotImplementedError

    def finish(self, jobs: list[tuple[Item, dict]], rec, ref: dict) -> gates.Failures:
        """End-of-run work over every completed job."""
        return []

    def _oracle(self, item: Item, rec) -> sa.OracleResult:
        with rec.span("lattice.oracle"):
            res = sa.brute_force_svp(item.hnf_basis, item.box)
        rec.count("lattice.oracle_points", math.prod(hi - lo + 1 for lo, hi in item.box))
        return res

    def _encode(self, item: Item, enc: sa.QuditEncoding, rec) -> sa.IsingModel:
        with rec.span("stage.encode"):
            with rec.span("encoding.compile"):
                model = sa.compile_ising(item.gram, enc)
            rec.count("encoding.couplings", len(model.couplings))
            with rec.span("cli.json"):
                model = sa.IsingModel.from_json(_roundtrip(rec, model.to_json()))
        return model

    def _aggregate(self, records, rec) -> None:
        with rec.span("experiments.aggregate"):
            sa.aggregate(records)


class SweepWorkload(Workload):
    """compile_ising -> ProblemDiagonal -> evolve over SWEEP_T ->
    sector_gap_scan -> oracle, figures_of_merit and baseline."""

    pool = tuple(range(6))

    def __init__(self, name: str, encoding: str):
        self.name = name
        self.encoding = encoding

    def params(self) -> dict:
        enc = ENCODINGS[self.encoding]
        return {
            **super().params(),
            "encoding": enc.family, "range": [enc.lo, enc.hi],
            "T": list(SWEEP_T), "h0": H0, "gap_grid": GAP_GRID,
        }

    def run_job(self, item: Item, rec, job_seed) -> dict:
        enc = ENCODINGS[self.encoding]
        driver = sa.DriverSpec(h0=H0)
        model = self._encode(item, enc, rec)
        with rec.span("stage.simulate"):
            with rec.span("encoding.diagonal"):
                diag = sa.ProblemDiagonal.from_model(model)
            rec.count("encoding.diagonal_bytes", 8 * diag.dim)
            runs = []
            for T in SWEEP_T:
                with rec.span("dynamics.evolve"):
                    res = sa.evolve(diag, driver, sa.SweepSchedule(T=T))
                rec.count("dynamics.windows", res.windows)
                rec.count("dynamics.state_dim", diag.dim)
                rec.count("dynamics.amp_updates",
                          res.windows * 3 * (2 * diag.n_qubits + 1) * diag.dim)
                rec.count("dynamics.norm_drift", res.norm_drift)
                runs.append({
                    "T": T,
                    "windows": res.windows,
                    "norm_drift": res.norm_drift,
                    "p_zero": res.p_zero,
                    "p_lambda1": res.p_lambda1,
                    "p_second": res.p_second,
                    "grouped": {str(k): v for k, v in res.grouped.items()},
                })
            with rec.span("cli.json"):
                payload = _roundtrip(rec, {
                    "kind": "sweep-results",
                    "encoding": model.to_json()["layout"],
                    "runs": runs,
                    "instance": item.instance.to_json(),
                })
        with rec.span("stage.gap_scan"):
            with rec.span("spectrum.sector_scan"):
                prof = sa.sector_gap_scan(item.gram, enc, driver, grid=GAP_GRID)
            m = enc.qubits_per_qudit
            rec.count("spectrum.sector_dim",
                      (m + 1) ** self.dim if enc.family == "hamming" else 2 ** (m * self.dim))
            rec.count("spectrum.points", len(prof.s_grid))
        with rec.span("stage.analyze"):
            oracle = self._oracle(item, rec)
            with rec.span("experiments.fom"):
                foms = [
                    sa.figures_of_merit(_grouped(run), item.instance.bad, oracle)
                    for run in payload["runs"]
                ]
                base = sa.baseline(item.instance.bad, enc)
        return {
            "runs": payload["runs"],
            "gaps": [float(g) for g in prof.gaps],
            "oracle": {"lambda1_sq": oracle.lambda1_sq,
                       "witnesses": [list(w) for w in oracle.witnesses]},
            "foms": [f.as_dict() for f in foms],
            # the CLI's analyze scores the last sweep of a results file
            "record": sa.InstanceRecord(self.dim, enc.family, foms[-1], base),
        }

    def check_job(self, item: Item, out: dict, ref: dict) -> gates.Failures:
        enc = ENCODINGS[self.encoding]
        lengths = gates.gram_values([list(r) for r in item.gram.entries], enc.lo, enc.hi)
        r = ref[str(item.seed)]
        hg = gates.gram_rows(item.hnf_basis.rows)
        return (
            gates.check_sweep_runs(out["runs"], NORM_DRIFT_BOUND, lengths)
            + gates.check_foms(out["foms"], r["foms"])
            + gates.check_gaps(out["gaps"], r["gaps"])
            + gates.check_oracle(out["oracle"]["lambda1_sq"], out["oracle"]["witnesses"],
                                 r["oracle"], hg)
        )

    def finish(self, jobs, rec, ref) -> gates.Failures:
        self._aggregate([out["record"] for _, out in jobs], rec)
        return []

    @staticmethod
    def reference_entry(out: dict) -> dict:
        return {"foms": out["foms"], "gaps": out["gaps"], "oracle": out["oracle"]}


class AnnealWorkload(Workload):
    """Per encoding: compile_ising -> build_chimera -> embed_clique ->
    lower_to_physical (noisy) -> sample -> decode_majority -> oracle and
    figures_of_merit."""

    name = "anneal"
    pool = (0, 1)

    def __init__(self, reads: int = ANNEAL_READS):
        self.reads = reads

    def params(self) -> dict:
        return {
            **super().params(),
            "encodings": {k: [e.lo, e.hi] for k, e in ENCODINGS.items()},
            "reads": self.reads, "sweeps": ANNEAL_SWEEPS,
            "sigma_j": NOISE_SIGMA, "sigma_h": NOISE_SIGMA,
            "chain_strength": "auto", "noise_seed": "lattice seed",
        }

    def run_job(self, item: Item, rec, job_seed) -> dict:
        stream = np.random.SeedSequence(job_seed).generate_state(2 * len(ENCODINGS))
        out = {}
        for k, (name, enc) in enumerate(ENCODINGS.items()):
            model = self._encode(item, enc, rec)
            with rec.span("stage.emulate"):
                with rec.span("emulator.lower"):
                    cs = emulator.auto_chain_strength(model)
                    graph = sa.build_chimera(emulator.min_grid_for_clique(model.n_qubits))
                    emb = sa.embed_clique(model.n_qubits, graph, cs)
                    # the noise realisation belongs to the lattice, so the
                    # reference probabilities describe the same model
                    noise = sa.NoiseSpec(sigma_j=NOISE_SIGMA, sigma_h=NOISE_SIGMA,
                                         seed=item.seed)
                    phys = sa.lower_to_physical(model, emb, graph, noise)
                rec.count("emulator.physical_qubits", phys.n_qubits)
                with rec.span("emulator.sample"):
                    raw = sa.sample(phys, reads=self.reads, seed=int(stream[2 * k]),
                                    params=sa.AnnealParams(sweeps=ANNEAL_SWEEPS))
                rec.count("emulator.spin_updates", self.reads * ANNEAL_SWEEPS * phys.n_qubits)
                with rec.span("emulator.decode"):
                    ss = sa.decode_majority(raw, emb, phys, model, seed=int(stream[2 * k + 1]))
                with rec.span("cli.json"):
                    payload = ss.to_json()
                    payload.update({
                        "kind": "sample-results",
                        "encoding": model.to_json()["layout"],
                        "scale": phys.scale,
                        "chain_strength": cs,
                        "physical_qubits": phys.n_qubits,
                        "instance": item.instance.to_json(),
                    })
                    payload = _roundtrip(rec, payload, indent=None)
                    ss = sa.SampleSet.from_json(payload)
                for f in ss.chain_break_fraction:
                    rec.count("emulator.chain_break_frac", float(f))
            with rec.span("stage.analyze"):
                oracle = self._oracle(item, rec)
                with rec.span("experiments.fom"):
                    probs = sa.figures_of_merit(ss, item.instance.bad, oracle)
                    base = sa.baseline(item.instance.bad, enc)
            out[name] = {
                "samples": payload["samples"],
                "layout": payload["encoding"],
                "foms": probs.as_dict(),
                "oracle": {"lambda1_sq": oracle.lambda1_sq,
                           "witnesses": [list(w) for w in oracle.witnesses]},
                "record": sa.InstanceRecord(self.dim, enc.family, probs, base),
            }
        return out

    def check_job(self, item: Item, out: dict, ref: dict) -> gates.Failures:
        g = [list(r) for r in item.gram.entries]
        hg = gates.gram_rows(item.hnf_basis.rows)
        r = ref["instances"][str(item.seed)]
        bad: gates.Failures = []
        for name in ENCODINGS:
            o = out[name]
            lay = o["layout"]
            bad += gates.check_samples(o["samples"], g, lay["qudits"], lay["family"])
            bad += gates.check_oracle(o["oracle"]["lambda1_sq"], o["oracle"]["witnesses"],
                                      r["oracle"], hg)
        return bad

    def finish(self, jobs, rec, ref) -> gates.Failures:
        self._aggregate([o[name]["record"] for _, o in jobs for name in ENCODINGS], rec)
        return self.ensemble_failures(jobs, ref)

    def ensemble_failures(self, jobs, ref) -> gates.Failures:
        """Pooled figures of merit per encoding against the reference
        probabilities of the same lattices (statistical: a correct sampler
        with another random stream passes)."""
        bad: gates.Failures = []
        if not jobs:
            return bad
        for name in ENCODINGS:
            for fom in sa.experiments.FOM_NAMES:
                hits = [round(o[name]["foms"][fom] * self.reads) for _, o in jobs]
                ref_p = [ref["instances"][str(it.seed)][name][fom] for it, _ in jobs]
                z = gates.ensemble_z(hits, [self.reads] * len(jobs), ref_p, ref["reads"])
                if z > gates.ENSEMBLE_Z_MAX:
                    bad.append(("emulator", f"{name} {fom}: {z:.2f} standard errors "
                                            "from the reference"))
        return bad

    @staticmethod
    def reference_entry(out: dict) -> dict:
        entry = {name: out[name]["foms"] for name in ENCODINGS}
        entry["oracle"] = out[next(iter(ENCODINGS))]["oracle"]
        return entry


class OracleWorkload(Workload):
    """generate_instance -> hnf -> auto_box -> brute_force_svp at 7D."""

    name = "oracle-7d"
    dim = 7
    pool = tuple(range(40))

    def prepare(self, rec) -> list[Item]:
        return [Item(seed) for seed in self.pool]

    def run_job(self, item: Item, rec, job_seed) -> dict:
        with rec.span("stage.gen"):
            with rec.span("lattice.generate"):
                inst = sa.generate_instance(self.dim, item.seed)
            with rec.span("cli.json"):
                inst = sa.Instance.from_json(_roundtrip(rec, inst.to_json()))
        with rec.span("stage.oracle"):
            with rec.span("lattice.hnf"):
                hnf_basis = sa.Basis(sa.hnf(inst.bad).rows)
                box = sa.auto_box(inst.bad)
            res = self._oracle(Item(item.seed, inst, None, hnf_basis, box), rec)
            with rec.span("cli.json"):
                out = _roundtrip(rec, {
                    "lambda1_sq": res.lambda1_sq,
                    "witnesses": [list(w) for w in res.witnesses],
                    "coefficient_frame": "hnf",
                    "search_box": [list(b) for b in res.search_box],
                })
        out["hnf_rows"] = [list(r) for r in hnf_basis.rows]
        return out

    def check_job(self, item: Item, out: dict, ref: dict) -> gates.Failures:
        return gates.check_oracle(out["lambda1_sq"], out["witnesses"], ref[str(item.seed)],
                                  gates.gram_rows(out["hnf_rows"]))

    @staticmethod
    def reference_entry(out: dict) -> dict:
        return {"lambda1_sq": out["lambda1_sq"], "witnesses": out["witnesses"]}


WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload("sweep-ham", "ham"),
        SweepWorkload("sweep-bin", "bin"),
        AnnealWorkload(),
        OracleWorkload(),
    )
}
