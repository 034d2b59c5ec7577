"""Seeded benchmark for prosynth: training and synthesis, end to end and per layer.

    python3 bench/run.py --workload train_aug --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35

--trace 0 measures the end-to-end metrics of BENCHMARK.json; --trace 1 is a
separate traced run that reports the per-layer metrics. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. The run's full report, with machine information and the span
summary of a traced run, is written to bench/out/. "all" runs every
workload in turn, each in its own process, and prints every metric.

The program is imported from src/ next to this directory, never from an
installed copy; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("train_aug", "train_plain", "synth_long")
# one BLAS/OpenMP thread: the machine has two cores and the timings must not
# depend on what else runs on them
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def import_program():
    """Put the checkout's src/ first on the path and check prosynth comes
    from there."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import prosynth

    where = Path(prosynth.__file__).resolve().parent
    if where != src / "prosynth":
        raise ImportError(f"prosynth imported from {where}, not from {src}")


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def fmt(value):
    return "absent" if value is None else f"{value:.6g}"


def print_report(args, machine, metrics, gate, report):
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in machine.items()))
    width = max(len(n) for n in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {fmt(value):>12} {unit}")
    if "quality" in report:
        q = report["quality"]
        print(f"quality (deterministic per seed): val_loss {q['val_loss']:.6g}, val_entropy {q['val_entropy']:.6g} nats")
    print("samples: " + ", ".join(f"{k} {v}" for k, v in report.get("samples", {}).items()))
    if "attribution" in report:
        wall, rows = report["attribution"]
        print(f"traced wall {wall:.3f} s, by self time:")
        for name, secs, share in rows:
            print(f"  {name:<40} {secs:9.3f} s {100 * share:6.2f} %")
    print(f"gate: {gate.attempted} attempted, {gate.failed} failed")
    for problem in gate.problems:
        print(f"  FAILED {problem}")


def run_one(args):
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        import_program()
    except ImportError as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    run = workloads.WORKLOADS[args.workload]
    metrics, gate, report = run(args.seed, args.seconds, bool(args.trace), OUT_DIR)
    names = declared_metrics(args.trace)
    if sorted(names) != sorted(metrics):
        print(f"bench: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}", file=sys.stderr)
        return 3
    machine = workloads.machine_info()
    print_report(args, machine, metrics, gate, report)
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "machine": machine, "problems": gate.problems, "report": report, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            print(f"bench: {name} exited with status {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
        print()
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
