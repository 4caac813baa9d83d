"""Record a workload's reference rows at the default seed.

    python3 perfbench/record_reference.py WORKLOAD [WORKLOAD ...]

Runs one untraced pass of each workload through the CLI and writes every
row to perfbench/reference/WORKLOAD.csv. The row checker compares Monte
Carlo rows byte for byte and analytic rows to 1e-9 relative against it, so
record only from a commit whose outputs are known to be right.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from bench_check import REFERENCE_DIR, reference_path, write_reference  # noqa: E402
from bench_workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def record(workload: str) -> int:
    import relaysop.cli as cli
    wl = WORKLOADS[workload]
    out_dir = os.path.join(os.path.dirname(HERE), ".bench_out", "reference", workload)
    jobs = wl.write_specs(out_dir, DEFAULT_SEED)
    with contextlib.redirect_stdout(io.StringIO()):
        codes = wl.run(cli.main, jobs, out_dir, DEFAULT_SEED)
    rows = wl.read_rows(out_dir)
    bad = [r for r in rows if r.status != "ok"]
    if any(codes) or bad:
        print(f"{workload}: exit codes {codes}, {len(bad)} rows not ok", file=sys.stderr)
        return 1
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    write_reference(reference_path(workload), rows)
    print(f"{workload}: {len(rows)} rows")
    return 0


if __name__ == "__main__":
    sys.exit(max(record(w) for w in sys.argv[1:]))
