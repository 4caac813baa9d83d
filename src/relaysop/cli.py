"""Command-line front end: eval, sweep, reproduce, slope.

`eval` configs and sweep specs go through the one link parser of `sweep`;
`reproduce` runs the figure presets as sweeps, writes a wide CSV per figure
and a report of the claims in `claims`. Exit codes: 0 success, 1 engine
error (no convergence, undefined slope, failed sweep rows; a failed claim
alone still exits 0), 2 input validation error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .analytic import diversity_slope, sop_analytic
from .claims import analytic_table, figure_report
from .errors import ConvergenceError, SlopeUndefinedError, UnsupportedSizeError
from .model import NetworkConfig, Scheme, SecrecyTarget, require_valid
from .montecarlo import McSettings, estimate_sop
from .presets import FIGURE_PRESETS, figure_sweep_specs
from .quadrature import QuadSettings, sop_quadrature
from .sweep import (CSV_HEADER, FIXED_POLICIES, SpecValidationError, _fmt,
                    _is_int, _is_number, config_at, config_from_links,
                    parse_links, parse_sweep_spec, run_sweep, write_rows)

_ENGINE_FLAGS = ("analytic", "mc", "quad")


class CliValidationError(ValueError):
    pass


def _load_json(path: str) -> dict:
    """A config or spec file; every one has a JSON object at its root."""
    if not os.path.exists(path):
        raise CliValidationError(f"file not found: {path}")
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CliValidationError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise CliValidationError(f"{path}: root must be an object, got {data!r}")
    return data


def load_network_config(path: str) -> NetworkConfig:
    """An eval config: n_relays and a `links` object, parsed as the links of
    a sweep spec. It has no SNR axis, so every group takes a fixed policy,
    for short {"mean_snr_db": ...} (fixed-db) or {"rate": ...} (fixed-rate)."""
    data = _load_json(path)
    n = data.get("n_relays")
    if not _is_int(n) or n < 1:
        raise CliValidationError(f"n_relays: must be a positive integer, got {n!r}")
    violations: list = []
    links = parse_links(data.get("links"), n, violations)
    violations += [f"links.{group}: an eval config has no SNR axis; give "
                   f"mean_snr_db or rate" for group, pol in links.items()
                   if pol.kind not in FIXED_POLICIES]
    if violations:
        raise SpecValidationError(violations)
    config = config_from_links(links, n, 0.0)  # no policy reads the axis
    require_valid(config)
    return config


def _cmd_eval(args) -> int:
    config = load_network_config(args.config)
    scheme = Scheme(args.scheme)
    target = SecrecyTarget(args.rs)
    if args.engine == "analytic":
        res = sop_analytic(config, scheme, target)
    elif args.engine == "quad":
        res = sop_quadrature(config, scheme, target,
                             QuadSettings(rel_tol=args.rel_tol, abs_tol=args.abs_tol))
    else:
        res = estimate_sop(config, scheme, target,
                           McSettings(args.trials, args.seed, args.chunk_size),
                           workers=args.workers)
    w = csv.writer(sys.stdout, lineterminator="\n")
    w.writerow(CSV_HEADER)
    w.writerow(["", scheme.value, _fmt(target.rs), args.engine, _fmt(res.value),
                _fmt(res.ci_halfwidth), _fmt(res.trials), _fmt(res.seed), "ok"])
    return 0


def _specs_by_count(data: dict, **defaults):
    """(n, SweepSpec) per relay count of a spec whose n_relays may be a list."""
    counts = data.get("n_relays")
    for n in counts if isinstance(counts, list) else [counts]:
        yield n, parse_sweep_spec({**defaults, **data, "n_relays": n})


def _cmd_sweep(args) -> int:
    data = _load_json(args.spec)
    multi = isinstance(data.get("n_relays"), list)
    status_ok = True
    for n, spec in _specs_by_count(data):
        rows = run_sweep(spec, workers=args.workers)
        out = args.out
        if multi:
            stem, ext = os.path.splitext(args.out)
            out = f"{stem}_n{n}{ext or '.csv'}"
        write_rows(out, rows)
        bad = [r for r in rows if r.status != "ok"]
        if bad:
            status_ok = False
            print(f"{out}: {len(bad)} of {len(rows)} rows failed "
                  f"({bad[0].status}, ...)", file=sys.stderr)
    return 0 if status_ok else 1


_WIDE_HEADER = ("figure", "variant", "n_relays", "snr_db", "scheme", "rs",
                "sop_analytic", "sop_mc", "mc_ci_halfwidth", "mc_trials",
                "mc_seed", "status")


def _write_wide_csv(path, figure, labeled_rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(_WIDE_HEADER)
        for label, n, rows in labeled_rows:
            cells = {}
            for r in rows:
                key = (r.snr_db, r.scheme, r.rs)
                cells.setdefault(key, {})[r.engine] = r
            for key in sorted(cells, key=lambda k: (k[0], k[1].value, k[2])):
                snr, scheme, rs = key
                a = cells[key].get("analytic")
                m = cells[key].get("mc")
                status = "ok"
                for r in (a, m):
                    if r is not None and r.status != "ok":
                        status = r.status
                w.writerow([
                    figure, label, n, _fmt(snr), scheme.value, _fmt(rs),
                    _fmt(a.sop if a else None), _fmt(m.sop if m else None),
                    _fmt(m.ci_halfwidth if m else None),
                    _fmt(m.trials if m else None),
                    _fmt(m.seed if m else None), status])


def _cmd_reproduce(args) -> int:
    figures = list(FIGURE_PRESETS) if args.figure == "all" else [args.figure]
    os.makedirs(args.out_dir, exist_ok=True)
    engines = ("analytic",) if args.skip_mc else ("analytic", "mc")
    engines_ok = True
    for figure in figures:
        specs = figure_sweep_specs(figure, trials=args.trials, seed=args.seed,
                                   engines=engines)
        labeled_rows = []
        tables = []
        for label, spec in specs:
            rows = run_sweep(spec, workers=args.workers)
            engines_ok &= all(r.status == "ok" for r in rows)
            labeled_rows.append((label, spec.n_relays, rows))
            tables.append(analytic_table(rows))
        _write_wide_csv(os.path.join(args.out_dir, f"{figure}.csv"),
                        figure, labeled_rows)
        text = "\n".join(figure_report(figure, specs, tables)) + "\n"
        with open(os.path.join(args.out_dir, f"{figure}_report.txt"), "w") as fh:
            fh.write(text)
        print(text, end="")
    return 0 if engines_ok else 1


def _cmd_slope(args) -> int:
    data = _load_json(args.spec)
    slope_cfg = data.get("slope", {})
    if not isinstance(slope_cfg, dict):
        raise CliValidationError(f"slope: expected an object, got {slope_cfg!r}")
    lo = slope_cfg.get("snr_lo_db", 30.0)
    hi = slope_cfg.get("snr_hi_db", 40.0)
    for key, val in (("snr_lo_db", lo), ("snr_hi_db", hi)):
        if not _is_number(val):
            raise CliValidationError(f"slope.{key}: must be a finite number, got {val!r}")
    w = csv.writer(sys.stdout, lineterminator="\n")
    w.writerow(["scheme", "n_relays", "rs", "slope"])
    for n, spec in _specs_by_count(data, engines=["analytic"]):
        for scheme in spec.schemes:
            for rs in spec.rs_values:
                slope = diversity_slope(
                    scheme, lambda s, sp=spec: config_at(sp, s),
                    SecrecyTarget(rs), lo, hi)
                w.writerow([scheme.value, n, _fmt(rs), f"{slope:.6g}"])
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="relaysop",
        description="Secrecy outage probability of cooperative DF relay "
                    "networks under four eavesdropping/selection schemes.")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("eval", help="evaluate one configuration")
    q.add_argument("--config", required=True, help="network config JSON")
    q.add_argument("--scheme", required=True,
                   choices=[s.value for s in Scheme])
    q.add_argument("--rs", type=float, required=True,
                   help="threshold secrecy rate, bits per channel use")
    q.add_argument("--engine", default="analytic", choices=_ENGINE_FLAGS)
    q.add_argument("--trials", type=int, default=1_000_000)
    q.add_argument("--seed", type=int, default=12345)
    q.add_argument("--chunk-size", type=int, default=1 << 16)
    q.add_argument("--workers", type=int, default=1)
    q.add_argument("--rel-tol", type=float, default=1e-9)
    q.add_argument("--abs-tol", type=float, default=1e-12)
    q.set_defaults(fn=_cmd_eval)

    s = sub.add_parser("sweep", help="run an SNR sweep spec to CSV")
    s.add_argument("--spec", required=True, help="sweep spec JSON")
    s.add_argument("--out", required=True, help="output CSV path")
    s.add_argument("--workers", type=int, default=1)
    s.set_defaults(fn=_cmd_sweep)

    r = sub.add_parser("reproduce", help="regenerate the reference figures' data")
    r.add_argument("--figure", required=True,
                   choices=[*FIGURE_PRESETS, "all"])
    r.add_argument("--out-dir", required=True)
    r.add_argument("--trials", type=int, default=1_000_000)
    r.add_argument("--seed", type=int, default=12345)
    r.add_argument("--workers", type=int, default=1)
    r.add_argument("--skip-mc", action="store_true",
                   help="emit analytic columns only")
    r.set_defaults(fn=_cmd_reproduce)

    d = sub.add_parser("slope", help="diversity slopes for a sweep spec")
    d.add_argument("--spec", required=True)
    d.set_defaults(fn=_cmd_slope)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CliValidationError, SpecValidationError, UnsupportedSizeError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, SlopeUndefinedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
