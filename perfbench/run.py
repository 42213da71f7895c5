"""svpanneal benchmark: one workload, one process, a closed loop of jobs.

    python3 perfbench/run.py --workload sweep-ham --seed 0 --seconds 15 --trace 0

Jobs run back to back, one at a time, in whole passes over the workload's
lattice pool until the timed job wall time reaches ``--seconds``.  Every job
passes the correctness gate or counts as failed.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs every job twice, traced and untraced,
and prints the per-layer metrics from the traced copies.  The last line of
standard output is one JSON object; the full record, with provenance and (if
traced) every span, is written to ``perfbench/out/``.  The exit code is
non-zero when any job fails.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 9
LAYERS = ("lattice", "encoding", "dynamics", "spectrum", "emulator", "experiments", "cli")
# spans that are the benchmark's own structure rather than a package call
BENCH_LAYERS = ("job", "stage")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a fresh process that only performs set-up, used to time it
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _blas() -> dict:
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(str(lib)), sym)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            threads = fn()
            break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def provenance(wl, args) -> dict:
    import platform

    import numpy
    import scipy

    import svpanneal
    from svpanneal import _kernels

    digest = hashlib.sha256()
    for path in sorted((SRC / "svpanneal").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": _git_commit(ROOT),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "svpanneal": svpanneal.__version__,
        "have_numba": _kernels.HAVE_NUMBA,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": wl.params(),
    }


def time_setup(args) -> list[float]:
    """Set-up time of fresh processes: from spawning the interpreter to the
    moment its imports and instance generation are done."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as p:
            line = p.stdout.readline()
            t1 = time.perf_counter()
            p.stdout.read()
            p.wait(timeout=120)
        if line.strip() != "ready" or p.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {p.returncode})")
        out.append(t1 - t0)
    return out


def tail(times: list[float]) -> tuple[float, float, str]:
    """(value, percentile, note): the highest percentile with at least ten
    jobs beyond it, or the median below 20 jobs."""
    n = len(times)
    if n < 20:
        return statistics.median(times), 50.0, f"median: only {n} jobs, fewer than 20"
    k = n - 10
    return sorted(times)[k - 1], 100.0 * k / n, f"{k}th of {n} jobs"


def layer_metrics(rec, pairs: list[tuple[float, float]], layer_failed: dict[str, int]) -> dict:
    """Per-layer metrics from the traced copies; pairs holds (traced,
    untraced) wall times of each job."""
    from spans import layer_self_times

    dur: dict[str, float] = defaultdict(float)
    for s in rec.spans:
        dur[s.name] += s.end - s.start
    c = rec.counts
    n_traced = len(pairs)

    def per_job(x):
        return x / n_traced

    def total(name):
        return float(sum(c.get(name, ())))

    def rate(count, name):
        return total(count) / dur[name] if dur[name] > 0 else 0.0

    breaks = c.get("emulator.chain_break_frac", [])
    traced_s = sum(t for t, _ in pairs)
    untraced_s = sum(u for _, u in pairs)
    job_spans = [s for s in rec.spans if s.job.startswith("job")]
    shares = layer_self_times(job_spans)
    job_total = sum(s.end - s.start for s in job_spans if s.name == "job")
    m = {
        "lattice.generate_s": (per_job(dur["lattice.generate"]), "s"),
        "lattice.hnf_s": (per_job(dur["lattice.hnf"]), "s"),
        "lattice.oracle_s": (per_job(dur["lattice.oracle"]), "s"),
        "lattice.oracle_points": (per_job(total("lattice.oracle_points")), "count"),
        "lattice.oracle_points_per_s": (rate("lattice.oracle_points", "lattice.oracle"), "1/s"),
        "encoding.compile_s": (per_job(dur["encoding.compile"]), "s"),
        "encoding.couplings": (per_job(total("encoding.couplings")), "count"),
        "encoding.diagonal_s": (per_job(dur["encoding.diagonal"]), "s"),
        "encoding.diagonal_bytes": (per_job(total("encoding.diagonal_bytes")), "B"),
        "dynamics.evolve_s": (per_job(dur["dynamics.evolve"]), "s"),
        "dynamics.windows": (per_job(total("dynamics.windows")), "count"),
        "dynamics.state_dim": (float(max(c.get("dynamics.state_dim", [0]))), "count"),
        "dynamics.amp_updates": (per_job(total("dynamics.amp_updates")), "count"),
        "dynamics.amp_updates_per_s": (rate("dynamics.amp_updates", "dynamics.evolve"), "1/s"),
        "dynamics.computed_bytes": (per_job(32 * total("dynamics.amp_updates")), "B"),
        "dynamics.norm_drift_max": (float(max(c.get("dynamics.norm_drift", [0.0]))), "ratio"),
        "spectrum.sector_scan_s": (per_job(dur["spectrum.sector_scan"]), "s"),
        "spectrum.sector_dim": (float(max(c.get("spectrum.sector_dim", [0]))), "count"),
        "spectrum.points": (per_job(total("spectrum.points")), "count"),
        "emulator.lower_s": (per_job(dur["emulator.lower"]), "s"),
        "emulator.physical_qubits": (per_job(total("emulator.physical_qubits")), "count"),
        "emulator.sample_s": (per_job(dur["emulator.sample"]), "s"),
        "emulator.spin_updates": (per_job(total("emulator.spin_updates")), "count"),
        "emulator.spin_updates_per_s": (rate("emulator.spin_updates", "emulator.sample"), "1/s"),
        "emulator.decode_s": (per_job(dur["emulator.decode"]), "s"),
        "emulator.chain_break_frac": (statistics.fmean(breaks) if breaks else 0.0, "ratio"),
        "emulator.intact_read_frac": (
            sum(1 for b in breaks if b == 0) / len(breaks) if breaks else 0.0, "ratio"),
        "experiments.fom_s": (per_job(dur["experiments.fom"]), "s"),
        "experiments.aggregate_s": (per_job(dur["experiments.aggregate"]), "s"),
        "cli.json_s": (per_job(dur["cli.json"]), "s"),
        "cli.json_bytes": (per_job(total("cli.json_bytes")), "B"),
    }
    for layer in LAYERS:
        m[f"{layer}.failed"] = (float(layer_failed.get(layer, 0)), "count")
    for layer in LAYERS + ("bench",):
        own = (sum(shares.get(b, 0.0) for b in BENCH_LAYERS) if layer == "bench"
               else shares.get(layer, 0.0))
        m[f"{layer}.self_share"] = (own / job_total, "ratio")
    m.update({
        "trace.jobs": (float(n_traced), "count"),
        "trace.jobs_per_s_traced": (len(pairs) / traced_s, "1/s"),
        "trace.jobs_per_s_untraced": (len(pairs) / untraced_s, "1/s"),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "ratio"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "svpanneal" / "__init__.py").is_file():
        print(f"svpanneal sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import resource

    import svpanneal as sa
    from spans import Recorder
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    traced = bool(args.trace)
    rec = Recorder(tracing=traced)
    items = wl.prepare(rec)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    ref = json.loads(REFERENCE.read_text())[wl.name]
    package_errors = (sa.IntegratorError, sa.SpectrumError, sa.ResourceLimitError,
                      sa.EncodingError, sa.EmbeddingError, sa.LatticeError)

    def execute(item, label, job_seed, tracing):
        rec.start_job(label, tracing)
        t0 = time.perf_counter()
        try:
            with rec.span("job"):
                out = wl.run_job(item, rec, job_seed)
        except package_errors as exc:
            layer = (rec.failed_in or "job").split(".", 1)[0]
            return time.perf_counter() - t0, None, [(layer, f"{type(exc).__name__}: {exc}")]
        dt = time.perf_counter() - t0
        return dt, out, wl.check_job(item, out, ref)

    start = args.seed % len(items)
    order = items[start:] + items[:start]
    times, pairs, done = [], [], []
    job_layers: list[set[str]] = []
    failures: list[str] = []
    elapsed, passes, job_index = 0.0, 0, 0
    while elapsed < args.seconds:
        for item in order:
            job_seed = (args.seed, job_index)
            # traced runs time every job both ways, alternating which goes
            # first, so the tracing overhead is a paired comparison
            modes = [False, True] if job_index % 2 == 0 else [True, False]
            walls = {}
            for tracing in modes if traced else [False]:
                label = f"job{job_index}" + ("" if tracing or not traced else "-untraced")
                dt, out, bad = execute(item, label, job_seed, tracing)
                elapsed += dt
                walls[tracing] = dt
                times.append(dt)
                job_layers.append({layer for layer, _ in bad})
                failures += [f"{label} lattice {item.seed}: {layer}: {msg}"
                             for layer, msg in bad]
                if not bad and (tracing or not traced):
                    done.append((item, out))
            if traced:
                pairs.append((walls[True], walls[False]))
            job_index += 1
        passes += 1

    rec.start_job("finish", traced)
    run_bad = wl.finish(done, rec, ref)
    for layer, msg in run_bad:
        failures.append(f"run: {layer}: {msg}")
        # an ensemble check judges the joint output of every job
        for layers in job_layers:
            layers.add(layer)
    attempted = len(job_layers)
    failed = sum(1 for layers in job_layers if layers)
    layer_failed = {layer: sum(1 for ls in job_layers if layer in ls) for layer in LAYERS}

    setup_runs = time_setup(args)
    tail_s, tail_pct, tail_note = tail(times)
    if traced:
        metrics = layer_metrics(rec, pairs, layer_failed)
    else:
        metrics = {
            "jobs_per_s": {"value": (attempted - failed) / elapsed, "unit": "1/s"},
            "job_s_p50": {"value": statistics.median(times), "unit": "s"},
            "job_s_tail": {"value": tail_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_runs), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {
        "result": result,
        "failed_frac": failed / attempted,
        "failures": failures,
        "passes": passes,
        "timed_s": elapsed,
        "job_s": times,
        "job_s_tail": {"value": tail_s, "percentile": tail_pct, "jobs": len(times),
                       "note": tail_note},
        "setup_probe_s": setup_runs,
        "provenance": provenance(wl, args),
    }
    if traced:
        record["spans"] = rec.spans_json()
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    print(f"{wl.name} seed {args.seed}: {attempted} jobs in {passes} passes, "
          f"{elapsed:.2f} s timed; record in {path.relative_to(ROOT)}")
    for msg in failures[:20]:
        print(f"FAILED {msg}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':32s} {failed / attempted:.6g} ratio ({failed} of {attempted})")
    if not traced:
        print(f"  job_s_tail is the {tail_note} (p{tail_pct:.4g})")
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
