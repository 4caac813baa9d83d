"""The part of the benchmark that runs in a fresh interpreter.

    python3 perfbench/bench_child.py setup WORKLOAD SEED DIR
        Import relaysop.cli, write the workload's spec files and evaluate its
        first row through `relaysop sweep`; print the time.monotonic() reading
        taken when the row is done.
    python3 perfbench/bench_child.py pass WORKLOAD SEED DIR TRACE RESULT
        Run the workload once, traced (TRACE 1) or not (TRACE 0), check every
        row, and write the figures to RESULT as JSON. A traced pass also
        writes its spans to DIR/spans.jsonl.

run.py starts both; the program is imported from the checkout's src/.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from bench_workloads import WORKLOADS  # noqa: E402


def setup(workload: str, seed: int, out_dir: str) -> int:
    import relaysop.cli as cli
    wl = WORKLOADS[workload]
    wl.write_specs(out_dir, seed)
    spec = os.path.join(out_dir, "first_row.json")
    out = os.path.join(out_dir, "first_row.csv")
    with open(spec, "w") as fh:
        json.dump(wl.first_row(seed), fh)
    code = cli.main(["sweep", "--spec", spec, "--out", out,
                     "--workers", str(wl.workers)])
    done = time.monotonic()
    with open(out) as fh:
        lines = fh.read().splitlines()
    if code != 0 or len(lines) != 2 or not lines[1].endswith(",ok"):
        print(f"first row failed: exit {code}, {lines}", file=sys.stderr)
        return 1
    print(repr(done))
    return 0


def one_pass(workload: str, seed: int, out_dir: str, trace: bool,
             result_path: str) -> int:
    import relaysop.cli as cli
    from bench_check import check_rows, load_reference, reference_path
    from bench_trace import Tracer, layer_metrics, require_untraced

    wl = WORKLOADS[workload]
    jobs = wl.write_specs(out_dir, seed)
    reference = load_reference(reference_path(workload))
    problems = []

    def run() -> float:
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                codes = wl.run(cli.main, jobs, out_dir, seed)
        except Exception:  # a crash fails the pass's rows; keep reporting
            codes = [traceback.format_exc()]
        wall = time.perf_counter() - start
        if any(code != 0 for code in codes):
            problems.append(f"exit codes {codes}: {sink.getvalue()[-2000:]}")
        return wall

    result = {}
    if trace:
        with Tracer() as tracer:
            wall = run()
        tracer.write_spans(os.path.join(out_dir, "spans.jsonl"))
        result["layers"] = layer_metrics(tracer)
    else:
        # a timed pass runs the program as users do, unwrapped
        require_untraced()
        wall = run()
        require_untraced()
    attempted, failed, row_problems = check_rows(wl.read_rows(out_dir), reference, seed)
    result.update(wall=wall, attempted=attempted, failed=failed,
                  problems=problems + row_problems[:20],
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


def main(argv) -> int:
    mode, workload, seed, out_dir, *rest = argv
    os.makedirs(out_dir, exist_ok=True)
    if mode == "setup":
        return setup(workload, int(seed), out_dir)
    trace, result_path = rest
    return one_pass(workload, int(seed), out_dir, trace == "1", result_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
