"""Command-line front end: eval, sweep, reproduce, slope.

Exit codes: 0 success, 1 engine error (no convergence, undefined slope,
failed sweep rows), 2 input validation error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

from .analytic import diversity_slope, sop_analytic
from .errors import ConvergenceError, SlopeUndefinedError, UnsupportedSizeError
from .model import NetworkConfig, Scheme, SecrecyTarget, db_to_rate, validate_config
from .montecarlo import McSettings, estimate_sop
from .presets import FIGURE_PRESETS, figure_sweep_specs
from .quadrature import QuadSettings, sop_quadrature
from .sweep import (CSV_HEADER, LINK_GROUPS, SpecValidationError, _fmt,
                    _is_int, _is_number, config_at, parse_sweep_spec,
                    run_sweep, snr_grid, write_rows)

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


def _link_values(data, group: str, n: int, violations):
    """One link group from a config file: mean_snr_db or rate, scalar or list."""
    where = f"links.{group}"
    if not isinstance(data, dict):
        violations.append(f"{where}: expected an object")
        return None
    keys = [k for k in ("mean_snr_db", "rate") if k in data]
    if len(keys) != 1:
        violations.append(f"{where}: give exactly one of mean_snr_db or rate")
        return None
    key = keys[0]
    raw = data[key]
    vals = raw if isinstance(raw, (list, tuple)) else [raw]
    expected = n if group in ("s_relays", "relays_d", "relays_e") else 1
    if len(vals) == 1:
        vals = list(vals) * expected
    if len(vals) != expected:
        violations.append(f"{where}.{key}: length mismatch, expected {expected} "
                          f"entries, got {len(vals)}")
        return None
    rates = []
    for i, v in enumerate(vals):
        if not _is_number(v):
            violations.append(f"{where}.{key}[{i}]: must be a finite number, got {v!r}")
            return None
        if key == "rate":
            if v <= 0:
                violations.append(f"{where}.{key}[{i}]: rate must be strictly "
                                  f"positive, got {v!r}")
                return None
            rates.append(float(v))
        else:
            rates.append(db_to_rate(v))
    return tuple(rates)


def load_network_config(path: str) -> NetworkConfig:
    data = _load_json(path)
    violations: list = []
    n = data.get("n_relays")
    if not _is_int(n) or n < 1:
        violations.append(f"n_relays: must be a positive integer, got {n!r}")
        raise CliValidationError("; ".join(violations))
    links = data.get("links")
    if not isinstance(links, dict):
        raise CliValidationError("links: required object with one entry per link group")
    groups = {}
    for group in LINK_GROUPS:
        if group not in links:
            violations.append(f"links.{group}: missing")
            continue
        vals = _link_values(links[group], group, n, violations)
        if vals is not None:
            groups[group] = vals
    if violations:
        raise CliValidationError("; ".join(violations))
    config = NetworkConfig(
        n_relays=n, beta_sk=groups["s_relays"], beta_kd=groups["relays_d"],
        beta_sd=groups["s_d"][0], alpha_ke=groups["relays_e"],
        alpha_se=groups["s_e"][0])
    problems = validate_config(config)
    if problems:
        raise CliValidationError("; ".join(problems))
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


def _cmd_sweep(args) -> int:
    data = _load_json(args.spec)
    n_values = data.get("n_relays")
    multi = isinstance(n_values, list)
    status_ok = True
    for n in (n_values if multi else [n_values]):
        payload = dict(data)
        payload["n_relays"] = n
        spec = parse_sweep_spec(payload)
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


def _check(report, ok: bool, text: str):
    report.append(f"{'PASS' if ok else 'FAIL'}: {text}")
    return ok


def _fig2_claims(tables, specs, report):
    grid = snr_grid(specs[0][1])
    schemes = specs[0][1].schemes
    rs_values = specs[0][1].rs_values
    ns = [spec.n_relays for _, spec in specs]
    ok = True
    for scheme, direction in ((Scheme.MAX_E, 1), (Scheme.MIN_E, -1)):
        mono = all(
            direction * (tables[i + 1][(s, scheme, rs)] - tables[i][(s, scheme, rs)]) > 0
            for i in range(len(ns) - 1)
            for s in grid if s >= 5.0 for rs in rs_values)
        word = "increases" if direction > 0 else "decreases"
        ok &= _check(report, mono,
                     f"{scheme.value} SOP strictly {word} with relay count at "
                     f"every axis point >= 5 dB")
    rs_mono = all(
        tables[i][(s, scheme, 1.0)] > tables[i][(s, scheme, 0.0)]
        for i in range(len(ns)) for s in grid for scheme in schemes)
    ok &= _check(report, rs_mono, "SOP at rs=1 exceeds SOP at rs=0 everywhere")
    gaps = all(
        abs(tables[i + 2][(s, scheme, rs)] - tables[i + 1][(s, scheme, rs)])
        < abs(tables[i + 1][(s, scheme, rs)] - tables[i][(s, scheme, rs)])
        for i in range(len(ns) - 2)
        for s in grid if s >= 5.0 for scheme in schemes for rs in rs_values)
    ok &= _check(report, gaps, "curve-to-curve gaps shrink as the relay count grows")
    return ok


def _fig3_claims(tables_by_label, specs, report):
    """Unbalanced: the SOP approaches a positive floor F, the SOP with the
    swept relay-destination hop gone (taken at 100 dB), and its gap above F
    at the top of the sweep is the dual-hop rate ratio lambda_RD/lambda_SR
    to first order (within 10%). Balanced: no floor, still falling > 10%
    over the last step."""
    ok = True
    for label, spec in specs:
        table = tables_by_label[label]
        grid = snr_grid(spec)
        lo_db, hi_db = grid[-2], grid[-1]
        for scheme in spec.schemes:
            for rs in spec.rs_values:
                hi = table[(hi_db, scheme, rs)]
                if label == "balanced":
                    change = abs(table[(lo_db, scheme, rs)] - hi) / hi
                    ok &= _check(report, change > 0.10,
                                 f"{label} {scheme.value} rs={rs:g} keeps falling: "
                                 f"relative change {change:.4f} > 0.10")
                    continue
                top = config_at(spec, hi_db)
                predicted = top.beta_kd[0] / top.beta_sk[0]
                floor = sop_analytic(config_at(spec, 100.0), scheme,
                                     SecrecyTarget(rs)).value
                gap = (hi - floor) / floor if floor > 0 else math.inf
                ok &= _check(report, abs(gap - predicted) <= 0.10 * predicted,
                             f"{label} {scheme.value} rs={rs:g} approaches a floor: "
                             f"F = {floor:.6g}, (SOP({hi_db:g})-F)/F = {gap:.4f} "
                             f"~ lambda_RD/lambda_SR = {predicted:.4f}")
    return ok


def _fig4_claims(tables, specs, report):
    """mrc-mrc >= max-mrc at every point; max-e >= mrc-mrc and
    min-e >= max-mrc cross once: they hold at the top of the sweep and never
    revert once they hold as SNR rises."""
    ok = True
    orderings = ((Scheme.MRC_MRC, Scheme.MAX_MRC, True),
                 (Scheme.MAX_E, Scheme.MRC_MRC, False),
                 (Scheme.MIN_E, Scheme.MAX_MRC, False))
    for (label, spec), table in zip(specs, tables):
        grid = snr_grid(spec)
        for rs in spec.rs_values:
            for upper, lower, sure in orderings:
                holds = [table[(s, upper, rs)] >= table[(s, lower, rs)] - 1e-12
                         for s in grid]
                name = f"{label} rs={rs:g} {upper.value} >= {lower.value}"
                if sure:
                    ok &= _check(report, all(holds), f"{name} at every grid point")
                    continue
                since = holds.index(True) if True in holds else len(holds)
                single = holds[-1] and all(holds[since:])
                where = (f"from {grid[since]:g} dB up" if since < len(grid)
                         else "nowhere")
                ok &= _check(report, single,
                             f"{name} crosses once and holds {where}")
    return ok


def _slope_lines(figure, specs, report):
    report.append("")
    report.append("diversity slopes over [30, 40] dB:")
    for label, spec in specs:
        for scheme in spec.schemes:
            for rs in spec.rs_values:
                try:
                    slope = diversity_slope(
                        scheme, lambda s, sp=spec: config_at(sp, s),
                        SecrecyTarget(rs), 30.0, 40.0)
                    report.append(f"  {figure} {label} {scheme.value} rs={rs:g}: "
                                  f"slope={slope:.4f}")
                except SlopeUndefinedError:
                    report.append(f"  {figure} {label} {scheme.value} rs={rs:g}: "
                                  f"slope undefined (SOP underflow)")


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
        tables_by_label = {}
        for label, spec in specs:
            rows = run_sweep(spec, workers=args.workers)
            engines_ok &= all(r.status == "ok" for r in rows)
            labeled_rows.append((label, spec.n_relays, rows))
            table = {(r.snr_db, r.scheme, r.rs): r.sop
                     for r in rows if r.status == "ok" and r.engine == "analytic"}
            tables.append(table)
            tables_by_label[label] = table
        _write_wide_csv(os.path.join(args.out_dir, f"{figure}.csv"),
                        figure, labeled_rows)
        report = [f"{figure} qualitative checks"]
        if figure == "fig2":
            _fig2_claims(tables, specs, report)
        elif figure == "fig3":
            _fig3_claims(tables_by_label, specs, report)
        else:
            _fig4_claims(tables, specs, report)
        _slope_lines(figure, specs, report)
        text = "\n".join(report) + "\n"
        with open(os.path.join(args.out_dir, f"{figure}_report.txt"), "w") as fh:
            fh.write(text)
        print(text, end="")
    return 0 if engines_ok else 1


def _cmd_slope(args) -> int:
    data = _load_json(args.spec)
    n_values = data.get("n_relays")
    if not isinstance(n_values, list):
        n_values = [n_values]
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
    for n in n_values:
        payload = dict(data)
        payload["n_relays"] = n
        payload.setdefault("engines", ["analytic"])
        spec = parse_sweep_spec(payload)
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
