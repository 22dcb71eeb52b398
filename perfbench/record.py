"""Record a baseline: repeated untraced runs plus one traced run per workload.

    python3 perfbench/record.py

Run from the root of a source checkout.  For each workload of
``BENCHMARK.json`` it runs ``run.py`` for seeds 1 to 10 with tracing off and
``run_seconds`` from that file, reports each end-to-end metric's
median, quartiles and spread (the distance between the quartiles as a share
of the median), then makes one traced run for the per-layer metrics.  The
machine facts go in the same file, ``perfbench/baseline.json``, which each
run rewrites whole.
"""

from __future__ import annotations

import json
import platform
import statistics
import subprocess
import sys
import time

import run

SEEDS = list(range(1, 11))
OUT = run.HERE / "baseline.json"


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - start
    print(f"{workload} seed {seed} trace {trace}: correct {result['correct']} "
          f"failed {result['failed']}/{result['attempted']} in {result['wall_s']:.1f} s",
          file=sys.stderr, flush=True)
    return result


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": values}


def machine() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": run.NPROC,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "processor": platform.processor() or None,
        "ref_sample_s": run.REF_SAMPLE_S,
    }


def main() -> int:
    spec = run.load_spec()
    seconds = spec["run_seconds"]
    record = {"machine": machine(), "seeds": SEEDS, "seconds": seconds, "workloads": {}}
    for name in [w["name"] for w in spec["workloads"]]:
        results = [one_run(name, seed, seconds, 0) for seed in SEEDS]
        traced = one_run(name, SEEDS[0], seconds, 1)
        record["workloads"][name] = {
            "correct": all(r["correct"] for r in results + [traced]),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "run_wall_s": [r["wall_s"] for r in results],
            "traced_run_wall_s": traced["wall_s"],
            "end_to_end": {
                m["name"]: dict(summarize([r["metrics"][m["name"]]["value"] for r in results]),
                                unit=m["unit"], bound=m["bound"])
                for m in spec["end_to_end"]
            },
            "per_layer": traced["metrics"],
        }
        for metric, s in record["workloads"][name]["end_to_end"].items():
            print(f"  {name} {metric:18s} median {s['median']:.6g} {s['unit']} "
                  f"spread {s['spread']:.3f} (bound {s['bound']})", file=sys.stderr)
    OUT.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
