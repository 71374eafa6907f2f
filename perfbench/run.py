"""Run the semrank benchmark.

    python3 perfbench/run.py --workload grpo-desk --seed 1 --seconds 30 --trace 0

runs one workload in this process and prints, as its last line, one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics of a separate traced run with
--trace 1. The line before it records the environment and run details.
Without --workload it runs every workload, untraced and traced, each in its
own process, and prints every metric with its unit. --write-manifest writes
BENCHMARK.json from perfbench/spec.py.

BLAS and OpenMP are pinned to one thread before numpy is imported. Run
from the root of a checkout; scratch files go to .perfbench_out/.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spec  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int, seconds: float) -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS",
                                                    "OMP_NUM_THREADS",
                                                    "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
    }


def pin_to_one_cpu() -> int | None:
    """Pin this process, and so the stub processes it starts, to its lowest
    allowed CPU. Request and reply then never cross CPUs, so a slow second
    CPU cannot inflate the wire workload's reward calls."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    cpu = pin_to_one_cpu()
    sys.path.insert(0, str(SRC))
    import layers
    import spans
    import workloads

    wl = workloads.WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{name}-{seed}-{os.getpid()}"
    recorder = spans.Recorder() if trace else None
    span_cost = spans.wrapper_cost_s() if trace else 0.0
    run = workloads.Run(wl, seed, seconds, recorder, workdir, SRC)
    correct = True
    t0 = time.perf_counter()
    try:
        run.execute()
    except workloads.CheckFailed as exc:
        correct = False
        print(f"check failed: {exc}", file=sys.stderr)
    except Exception:  # noqa: BLE001 - any program error fails the run
        correct = False
        traceback.print_exc()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wall = time.perf_counter() - t0
    failed = 0 if correct else 1
    attempted = max(run.attempted, 1)

    if trace:
        values = dict(layers.layer_metrics(recorder, run.window_s, span_cost))
        values.update(getattr(run, "rollout_stats", {}))
        values["ops.failed_frac"] = failed / attempted
        units = {n: u for n, (u, _) in spec.PER_LAYER.items()}
        recorder.dump(OUT / f"spans-{name}-seed{seed}.jsonl")
    else:
        values = run.metrics
        units = {n: u for n, (u, _, _) in spec.END_TO_END.items()}
    missing = sorted(set(units) - set(values))
    if correct and missing:
        correct, failed = False, 1
        print(f"metrics not produced: {missing}", file=sys.stderr)

    info = {"environment": dict(environment(name, seed, seconds), pinned_cpu=cpu),
            "details": run.details, "end_to_end": run.metrics,
            "wall_s": wall}
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(info, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(info))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u}
                    for n, u in units.items() if n in values}}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in its own process."""
    status = 0
    for name in spec.WORKLOADS:
        results = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} trace={trace}: FAILED (exit {proc.returncode})\n"
                      f"{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            results[trace] = (json.loads(lines[-2]), json.loads(lines[-1]))
        for trace, (info, result) in sorted(results.items()):
            print(f"== {name} ({'traced' if trace else 'untraced'}): correct="
                  f"{result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for metric, entry in result["metrics"].items():
                print(f"  {metric:42s} {entry['value']:>14.6g} {entry['unit']}")
            if not trace:
                steps = info["details"].get("grpo_steps", {})
                print(f"  (grpo_step_ms_tail is p{steps.get('tail_percentile')} "
                      f"of {steps.get('samples')} steps)")
        if len(results) == 2:
            plain = results[0][1]["metrics"]["grpo_step_ms_p50"]["value"]
            traced = results[1][0]["end_to_end"]["grpo_step_ms_p50"]
            print(f"  traced vs untraced grpo_step_ms_p50 (one pair of runs, "
                  f"machine drift included): {traced / plain - 1.0:+.2%}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(spec.manifest_text(), encoding="utf-8")
        return 0
    if not (SRC / "semrank" / "__init__.py").is_file():
        print(f"error: no semrank sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
