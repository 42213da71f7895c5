"""Run every workload, untraced and traced, each in a fresh process, and
print one table.

    python3 perfbench/suite.py --seed 0 [--out perfbench/out/suite.json]

For each workload it prints the end-to-end metrics with their units, the
failed fraction, which percentile job_s_tail is, and the traced self-time
shares checked against the workload's predicted dominant layer.  When
``perfbench/baseline.json`` exists, each metric is also shown against it,
and a warning is printed if the two were made on different kernel paths.
The exit code is non-zero if any run fails its correctness gate.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"
WORKLOADS = ("sweep-ham", "sweep-bin", "anneal", "oracle-7d")
# provenance fields that decide which code path ran; results that differ in
# any of them are not comparable
PATH_KEYS = ("have_numba", "blas", "python", "numpy", "scipy")


def _share(metrics: dict, name: str) -> float:
    """Share of traced job time spent in one call, or a layer's self share."""
    if name.endswith("_share"):
        return metrics[name]["value"]
    return metrics[name]["value"] * metrics["trace.jobs_per_s_traced"]["value"]


# (metric, predicate, description) per workload: the design's claims about
# where each workload spends its time
PREDICTIONS = {
    "sweep-ham": [("dynamics.self_share", lambda x: x > 0.5, "dynamics is most of the job"),
                  ("spectrum.self_share", lambda x: x < 0.05, "spectrum under 5%")],
    "sweep-bin": [("dynamics.self_share", lambda x: x > 0.5, "dynamics is most of the job"),
                  ("spectrum.self_share", lambda x: x >= 0.05, "spectrum a visible share")],
    "anneal": [("emulator.sample_s", lambda x: x > 0.5, "sample is most of the job")],
    "oracle-7d": [("lattice.oracle_s", lambda x: x > 0.5, "oracle is most of the job")],
}


def run_one(workload: str, seed: int, seconds: float, trace: int) -> tuple[int, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} printed no result (exit {proc.returncode})")
    record = HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return proc.returncode, json.loads(record.read_text())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    base = json.loads(BASELINE.read_text()) if BASELINE.is_file() else None
    summary = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    status = 0
    for wl in WORKLOADS:
        code0, plain = run_one(wl, args.seed, args.seconds, 0)
        code1, traced = run_one(wl, args.seed, args.seconds, 1)
        status |= code0 | code1
        res = plain["result"]
        layers = traced["result"]["metrics"]
        checks = [{"metric": m, "share": _share(layers, m), "claim": what,
                   "met": bool(ok(_share(layers, m)))}
                  for m, ok, what in PREDICTIONS[wl]]
        summary["workloads"][wl] = {
            "correct": res["correct"] and traced["result"]["correct"],
            "metrics": res["metrics"],
            "failed_frac": plain["failed_frac"],
            "job_s_tail": plain["job_s_tail"],
            "layers": layers,
            "predictions": checks,
            "provenance": plain["provenance"],
        }
        print(f"\n{wl}: {res['attempted']} jobs, correct={res['correct']}, "
              f"traced correct={traced['result']['correct']}")
        old = base["workloads"].get(wl) if base else None
        for name, m in res["metrics"].items():
            vs = ""
            if old and name in old["metrics"]:
                vs = f"  ({m['value'] / old['metrics'][name]['value']:.3f} x baseline)"
            print(f"  {name:14s} {m['value']:12.6g} {m['unit']}{vs}")
        print(f"  {'failed_frac':14s} {plain['failed_frac']:12.6g} ratio"
              + (f"  (baseline {old['failed_frac']:g})" if old else ""))
        print(f"  job_s_tail is the {plain['job_s_tail']['note']}")
        for c in checks:
            print(f"  {'met' if c['met'] else 'MISSED':6s} {c['claim']}: "
                  f"{c['metric']} share {c['share']:.3f}")
        shares = {k[: -len(".self_share")]: v["value"] for k, v in layers.items()
                  if k.endswith(".self_share") and v["value"] > 0}
        print("  self-time shares: " + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))
        if old:
            now, then = plain["provenance"], old["provenance"]
            diff = [k for k in PATH_KEYS if now.get(k) != then.get(k)]
            if diff:
                print(f"  WARNING: baseline made on another code path ({', '.join(diff)} "
                      "differ); the comparison above is not like for like")
    out = args.out or HERE / "out" / f"suite-seed{args.seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"\nwrote {out}")
    return 1 if status else 0


if __name__ == "__main__":
    sys.exit(main())
