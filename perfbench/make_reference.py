"""Record the reference outputs that the benchmark's correctness gate
compares against.

    python3 perfbench/make_reference.py

Runs every pool lattice of every workload once through the same job code
the benchmark times and writes ``perfbench/reference.json``.  The annealer
reference draws REFERENCE_READS reads per lattice and encoding from a
random stream no benchmark run uses.  Run it only at a commit whose outputs
are trusted; the committed file was made at the seed commit recorded in its
provenance.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from spans import Recorder  # noqa: E402
from workloads import WORKLOADS, AnnealWorkload  # noqa: E402

REFERENCE_READS = 512


def main() -> int:
    rec = Recorder()
    out = {}
    for name, wl in WORKLOADS.items():
        if isinstance(wl, AnnealWorkload):
            wl = AnnealWorkload(reads=REFERENCE_READS)
        entries = {}
        for item in wl.prepare(rec):
            # three entropy words: never equal to a run's (seed, job index)
            job = wl.run_job(item, rec, (item.seed, 0, 1))
            entries[str(item.seed)] = wl.reference_entry(job)
            print(f"{name} lattice {item.seed}", flush=True)
        out[name] = ({"reads": REFERENCE_READS, "instances": entries}
                     if isinstance(wl, AnnealWorkload) else entries)
    out["provenance"] = {
        "git_commit": run._git_commit(run.ROOT),
        "reference_reads": REFERENCE_READS,
    }
    run.REFERENCE.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
