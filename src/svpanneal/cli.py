"""Command line interface.

Subcommands cover the full pipeline: instance generation, HNF/bound
inspection, the exact box-bounded oracle, Ising compilation, gap scans,
ideal sweep simulation, noisy Chimera emulation, and figure-of-merit
analysis.  All outputs are JSON or plain CSV.
"""
from __future__ import annotations

import argparse
import csv
import glob
import json
import os
import sys

import numpy as np

from . import emulator, experiments
from .dynamics import DriverSpec, IntegratorError, SweepSchedule, evolve, parse_T_list
from .encoding import IsingModel, compile_ising, parse_encoding
from .lattice import (
    Basis,
    Instance,
    auto_box,
    brute_force_svp,
    generate_instance,
    gram,
    hnf,
    is_optimal_hnf,
    minkowski_bound,
    qubit_budget,
)
from .spectrum import ProblemDiagonal, gap_scan


def _cmd_gen(args):
    inst = generate_instance(args.dim, args.seed)
    inst.save(args.out)
    print(f"wrote {args.out} (dim {inst.dim}, seed {inst.seed})")


def _cmd_hnf(args):
    inst = Instance.load(getattr(args, "in"))
    h = hnf(inst.bad)
    print("hnf rows:")
    for row in h.rows:
        print("  ", list(row))
    print(f"pivots: {list(h.pivots)}")
    print(f"covolume: {h.covolume}")
    print(f"optimal: {is_optimal_hnf(h)}")


def _cmd_bound(args):
    budget = qubit_budget(args.dim, args.det, args.encoding)
    print(f"minkowski bound: {minkowski_bound(args.dim, args.det):.6f}")
    print(f"qubits per qudit: {budget.per_qudit}")
    print(f"total qubits: {budget.total}")


def _hnf_oracle(inst):
    """Shortest vector of the instance, enumerated in its HNF frame over the
    auto box (sufficiency intervals on the HNF)."""
    h = hnf(inst.bad)
    return brute_force_svp(Basis(h.rows), auto_box(h))


def _cmd_oracle(args):
    inst = Instance.load(getattr(args, "in"))
    if args.box == "auto":
        res, frame = _hnf_oracle(inst), "hnf"
    else:
        r = int(args.box)
        res = brute_force_svp(inst.bad, tuple((-r, r) for _ in range(inst.dim)))
        frame = "bad"
    out = {
        "lambda1_sq": res.lambda1_sq,
        "witnesses": [list(w) for w in res.witnesses],
        "coefficient_frame": frame,
        "search_box": [list(b) for b in res.search_box],
    }
    print(json.dumps(out, indent=1))


def _parse_range(text: str) -> tuple[int, int]:
    lo, hi = text.split(":")
    return int(lo), int(hi)


def _cmd_encode(args):
    inst = Instance.load(getattr(args, "in"))
    if args.range:
        enc = parse_encoding(args.encoding, rng=_parse_range(args.range))
    else:
        enc = parse_encoding(args.encoding, k=args.k)
    model = compile_ising(gram(inst.bad), enc)
    model.save(args.out)
    print(
        f"wrote {args.out}: {model.n_qubits} qubits, "
        f"{len(model.couplings)} couplings, range [{enc.lo}, {enc.hi}]"
    )


def _cmd_gap_scan(args):
    model = IsingModel.load(args.model)
    driver = DriverSpec(h0=args.h0)
    prof = gap_scan(ProblemDiagonal.from_model(model), driver, grid=args.grid)
    with open(args.out, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["s", "E0", "E1", "gap"])
        for s, e0, e1 in zip(prof.s_grid, prof.e0, prof.e1):
            w.writerow([f"{s:.8f}", f"{e0:.12g}", f"{e1:.12g}", f"{e1 - e0:.12g}"])
    s_star, g_star = prof.min_gap
    print(f"wrote {args.out}; min gap {g_star:.6g} at s={s_star:.4f}; "
          f"{prof.iterations.sum()} solver iterations, "
          f"largest residual {prof.residual.max():.3g}")


def _cmd_simulate(args):
    """Sweep every T of the list; a T whose integration fails is recorded
    under "failed" and the rest still run, the file is written, and the
    command exits 1.  A bad --T list fails before any sweep."""
    try:
        T_list = parse_T_list(args.T)
    except ValueError as exc:
        raise SystemExit(f"--T: {exc}") from None
    model = IsingModel.load(args.model)
    instance = Instance.load(args.instance) if args.instance else None
    diag = ProblemDiagonal.from_model(model)
    driver = DriverSpec(h0=args.h0)
    runs = []
    failed = []
    for T in T_list:
        try:
            res = evolve(diag, driver, SweepSchedule(T=T))
        except IntegratorError as exc:
            failed.append({"T": T, "error": str(exc)})
            print(f"T={T:10.3f}  failed: {exc}", file=sys.stderr)
            continue
        runs.append(
            {
                "T": T,
                "windows": res.windows,
                "norm_drift": res.norm_drift,
                "p_zero": res.p_zero,
                "p_lambda1": res.p_lambda1,
                "p_second": res.p_second,
                "grouped": {str(k): v for k, v in res.grouped.items()},
            }
        )
        print(f"T={T:10.3f}  p_zero={res.p_zero:.4f}  p_lambda1={res.p_lambda1:.4f}")
    payload = {
        "kind": "sweep-results",
        "encoding": model.to_json()["layout"],
        "runs": runs,
    }
    if failed:
        payload["failed"] = failed
    if instance:
        payload["instance"] = instance.to_json()
    with open(args.out, "w") as f:
        json.dump(payload, f, indent=1)
    print(f"wrote {args.out}")
    if failed:
        bad = ", ".join(f"{fail['T']:g}" for fail in failed)
        print(f"sweep failed at T={bad}", file=sys.stderr)
        return 1
    return 0


def _cmd_emulate(args):
    model = IsingModel.load(args.model)
    instance = Instance.load(args.instance) if args.instance else None
    if args.chain_strength == "auto":
        cs = emulator.auto_chain_strength(model)
    else:
        cs = float(args.chain_strength)
    graph = emulator.build_chimera(emulator.min_grid_for_clique(model.n_qubits))
    emb = emulator.embed_clique(model.n_qubits, graph, cs)
    noise = emulator.NoiseSpec(sigma_j=args.sigma_j, sigma_h=args.sigma_h,
                               seed=args.seed)
    phys = emulator.lower_to_physical(model, emb, graph, noise)
    raw = emulator.sample(
        phys, reads=args.reads, seed=args.seed + 1,
        params=emulator.AnnealParams(sweeps=args.sweeps),
    )
    ss = emulator.decode_majority(raw, emb, phys, model, seed=args.seed + 2)
    payload = ss.to_json()
    payload["kind"] = "sample-results"
    payload["encoding"] = model.to_json()["layout"]
    payload["scale"] = phys.scale
    payload["chain_strength"] = cs
    payload["physical_qubits"] = phys.n_qubits
    if instance:
        payload["instance"] = instance.to_json()
    with open(args.out, "w") as f:
        json.dump(payload, f)
    gs = int(ss.lengths_sq.min())
    print(
        f"wrote {args.out}: {args.reads} reads on {phys.n_qubits} physical "
        f"qubits (scale {phys.scale:.4g}), best length^2 {gs}"
    )


def _load_outcome(payload, path):
    """The sample set, or the grouped distribution of a sweep file's last
    run, the last T of its sweep list."""
    kind = payload.get("kind")
    if kind == "sample-results":
        return emulator.SampleSet.from_json(payload)
    if kind != "sweep-results":
        raise SystemExit(f"{path}: not a sweep or sample results file")
    if not payload["runs"]:
        raise SystemExit(f"{path}: sweep file has no runs to score")
    return {int(k): float(v) for k, v in payload["runs"][-1]["grouped"].items()}


def _cmd_analyze(args):
    records = []
    for path in sorted(glob.glob(os.path.join(getattr(args, "in"), "*.json"))):
        with open(path) as f:
            payload = json.load(f)
        kind = payload.get("kind")
        if kind not in ("sweep-results", "sample-results"):
            continue
        if "instance" not in payload:
            print(f"skipping {path}: no embedded instance", file=sys.stderr)
            continue
        inst = Instance.from_json(payload["instance"])
        lay = payload["encoding"]
        enc = parse_encoding(lay["family"], rng=(lay["lo"], lay["hi"]))
        outcome = _load_outcome(payload, path)
        probs = experiments.figures_of_merit(outcome, inst.bad, _hnf_oracle(inst))
        records.append(
            experiments.InstanceRecord(
                dim=inst.dim,
                encoding=lay["family"],
                probs=probs,
                baselines=experiments.baseline(inst.bad, enc),
            )
        )
    if not records:
        raise SystemExit("no result files with embedded instances found")
    report = experiments.aggregate(records)
    report.to_csv(args.out)
    print(f"wrote {args.out} ({len(records)} runs)")


def _cmd_histogram(args):
    path = getattr(args, "in")
    with open(path) as f:
        payload = json.load(f)
    outcome = _load_outcome(payload, path)
    inst = Instance.load(args.instance)
    hist = experiments.histogram(outcome, inst.bad, _hnf_oracle(inst))
    hist.to_csv(args.out)
    print(f"wrote {args.out} ({len(hist.bins)} bins, total {hist.total():g})")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="svpanneal",
        description="Shortest-vector lattice instances on an Ising annealer",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a seeded instance")
    g.add_argument("--dim", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_gen)

    g = sub.add_parser("hnf", help="Hermite Normal Form of an instance")
    g.add_argument("--in", required=True)
    g.set_defaults(func=_cmd_hnf)

    g = sub.add_parser("bound", help="qubit budget for a dimension/covolume")
    g.add_argument("--dim", type=int, required=True)
    g.add_argument("--det", type=int, required=True)
    g.add_argument("--encoding", choices=["ham", "bin"], required=True)
    g.set_defaults(func=_cmd_bound)

    g = sub.add_parser(
        "oracle",
        help="shortest vector by enumeration bounded by a coefficient box",
    )
    g.add_argument("--in", required=True)
    g.add_argument("--box", default="auto",
                   help="'auto' (sufficiency intervals on the HNF) or a radius")
    g.set_defaults(func=_cmd_oracle)

    g = sub.add_parser("encode", help="compile an instance to Ising coefficients")
    g.add_argument("--in", required=True)
    g.add_argument("--encoding", choices=["ham", "bin"], required=True)
    rng = g.add_mutually_exclusive_group(required=True)
    rng.add_argument("--range", help="qudit range lo:hi (use --range=-4:4)")
    rng.add_argument("--k", type=int, help="range exponent")
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_encode)

    g = sub.add_parser(
        "gap-scan",
        help="spectral gap along the sweep in the model's qudit sector "
             "(symmetric ladders for Hamming, the full space for binary)",
    )
    g.add_argument("--model", required=True)
    g.add_argument("--grid", type=int, default=101)
    g.add_argument("--h0", type=float, default=1.0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_gap_scan)

    g = sub.add_parser("simulate", help="ideal closed-system sweeps")
    g.add_argument("--model", required=True)
    g.add_argument("--T", required=True, help="e.g. 2^0..2^10 or 1,4,16")
    g.add_argument("--h0", type=float, default=1.0)
    g.add_argument("--instance", help="embed the instance for later analysis")
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_simulate)

    g = sub.add_parser("emulate", help="noisy Chimera annealer emulation")
    g.add_argument("--model", required=True)
    g.add_argument("--reads", type=int, default=900)
    g.add_argument("--sigma-j", type=float, default=0.0, dest="sigma_j")
    g.add_argument("--sigma-h", type=float, default=0.0, dest="sigma_h")
    g.add_argument("--chain-strength", default="auto", dest="chain_strength")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--sweeps", type=int, default=1000)
    g.add_argument("--instance", help="embed the instance for later analysis")
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_emulate)

    g = sub.add_parser(
        "analyze",
        help="figures of merit over a results directory; a sweep file is "
             "scored on its last T",
    )
    g.add_argument("--in", required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_analyze)

    g = sub.add_parser(
        "histogram",
        help="length histogram of a sample set, or of a sweep file's last T",
    )
    g.add_argument("--in", required=True)
    g.add_argument("--instance", required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_histogram)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args) or 0


if __name__ == "__main__":
    sys.exit(main())
