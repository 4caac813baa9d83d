"""Benchmark of the relaysop command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Every workload runs in fresh
interpreters (bench_child.py) that import the program from src/:

* --trace 0: set the workload up SETUPS times (import, spec files, first
  row) and take the median as setup_s; then run whole passes of the
  workload, each in its own process, for about S seconds, checking every
  row, and report the median pass as wall_s.
* --trace 1: run one untraced and one traced pass, each in its own process,
  and report the per-layer metrics of the traced pass; trace.overhead_s is
  the traced minus the untraced wall time.

Prints every metric by name with its unit, then one JSON line with
correct/attempted/failed/metrics. Metric names and units come from
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "bench_child.py")
SETUPS = 3
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def _child(args, deadline: float) -> str:
    """Run bench_child.py to completion within the deadline; return its stdout."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time")
    try:
        proc = subprocess.run([sys.executable, CHILD, *map(str, args)],
                              stdout=subprocess.PIPE, text=True, timeout=remaining,
                              cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[0]} child timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} child exited with {proc.returncode}")
    return proc.stdout


def _setup_seconds(workload, seed, out_dir, deadline) -> float:
    start = time.monotonic()
    done = float(_child(["setup", workload, seed, out_dir], deadline).split()[-1])
    return done - start


def _pass(workload, seed, out_dir, trace, deadline) -> dict:
    result_path = os.path.join(out_dir, "result.json")
    _child(["pass", workload, seed, out_dir, int(trace), result_path], deadline)
    with open(result_path) as fh:
        return json.load(fh)


def _run(args, out_root: str, deadline: float):
    """Returns (metrics by name, attempted, failed, problems, notes)."""
    notes = []
    if args.trace:
        plain = _pass(args.workload, args.seed, os.path.join(out_root, "untraced"),
                      False, deadline)
        traced = _pass(args.workload, args.seed, os.path.join(out_root, "traced"),
                       True, deadline)
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = traced["wall"] - plain["wall"]
        notes.append(f"untraced wall {plain['wall']:.3f} s, traced wall "
                     f"{traced['wall']:.3f} s; spans in "
                     f"{os.path.relpath(os.path.join(out_root, 'traced', 'spans.jsonl'), ROOT)}")
        runs = [plain, traced]
    else:
        setups = [_setup_seconds(args.workload, args.seed,
                                 os.path.join(out_root, f"setup{i}"), deadline)
                  for i in range(SETUPS)]
        # as many passes as fit in --seconds, judged from the first pass
        runs = [_pass(args.workload, args.seed, os.path.join(out_root, "pass0"),
                      False, deadline)]
        target = max(1, round(args.seconds / runs[0]["wall"]))
        while len(runs) < target:
            runs.append(_pass(args.workload, args.seed,
                              os.path.join(out_root, f"pass{len(runs)}"), False, deadline))
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall"] for r in runs),
            "rows_per_s": statistics.median(
                (r["attempted"] - r["failed"]) / r["wall"] for r in runs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        }
        notes.append("setup runs (s): " + ", ".join(f"{s:.4f}" for s in setups))
        notes.append("passes (s): " + ", ".join(f"{r['wall']:.4f}" for r in runs))
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [p for r in runs for p in r["problems"]]
    notes.append(f"rows_failed_frac {failed / attempted if attempted else 1.0:g} "
                 f"({failed} of {attempted} rows)")
    return metrics, attempted, failed, problems, notes


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        p.error("--seed must be a 64-bit nonnegative integer")
    if not os.path.isfile(os.path.join(ROOT, "src", "relaysop", "cli.py")):
        print("error: no relaysop source under src/; run from a source checkout",
              file=sys.stderr)
        return 2

    out_root = os.path.join(ROOT, ".bench_out", args.workload)
    shutil.rmtree(out_root, ignore_errors=True)
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        measured, attempted, failed, problems, notes = _run(args, out_root, deadline)
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                   for m in wanted}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, m in metrics.items():
        extra = ""
        if name.endswith("_p90"):
            n = measured[name.split(".")[0] + ".calls"]
            extra = f"  (n={n}{', fewer than 100 calls' if n < 100 else ''})"
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}{extra}")
    for note in notes:
        print(f"  {note}")
    for problem in problems[:20]:
        print(f"  FAILED {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
