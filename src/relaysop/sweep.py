"""SNR/rate sweeps across engines with deterministic CSV emission.

A sweep spec fixes the axis grid, the threshold rates, the schemes, the
engines, and one policy per link group describing how that group's mean SNRs
derive from the axis SNR. All Monte Carlo rows of a sweep evaluate together
in one grid estimate, so every axis point shares each chunk's draws (worker
threads take blocks of trials); rows are emitted in a fixed order (snr
major, then scheme, rs, engine) so output files are byte-identical across
runs and worker counts for a fixed seed.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Optional

from .analytic import sop_analytic
from .errors import ConvergenceError, UnsupportedSizeError
from .model import (NetworkConfig, Scheme, SecrecyTarget, db_to_rate,
                    require_valid)
from .montecarlo import McSettings, estimate_sop_grid
from .quadrature import QuadSettings, sop_quadrature

LINK_GROUPS = ("s_relays", "relays_d", "s_d", "relays_e", "s_e")
_RELAY_GROUPS = frozenset({"s_relays", "relays_d", "relays_e"})
_HOP_GROUPS = frozenset({"s_relays", "relays_d"})
ENGINE_NAMES = ("analytic", "mc", "quad")
#: each policy with its value key; equal-split takes no values
POLICY_KEYS = {"fixed-db": "mean_snr_db", "fixed-rate": "rate",
               "fraction-of-axis": "fraction", "equal-split": None}
#: the policies that do not depend on the axis SNR
FIXED_POLICIES = ("fixed-db", "fixed-rate")

CSV_HEADER = ("snr_db", "scheme", "rs", "engine", "sop", "ci_halfwidth",
              "trials", "seed", "status")


class SpecValidationError(ValueError):
    """Sweep/config spec problems, with one message per violation."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class LinkPolicy:
    """How one link group's mean SNRs derive from the axis SNR.

    fixed-db: values are mean SNRs in dB, constant across the axis.
    fixed-rate: values are exponential rates (linear scale), constant
    across the axis.
    fraction-of-axis: values are linear-scale fractions of the axis mean SNR.
    equal-split: the axis mean SNR is divided equally between the two relay
    hops (mean = axis/2 in linear scale); hop groups only, no values.
    """

    kind: str
    values: Optional[tuple] = None

    def rates(self, group: str, n_relays: int, snr_db: float):
        """Per-link exponential rates of this group at one axis point."""
        count = n_relays if group in _RELAY_GROUPS else 1
        if self.kind == "equal-split":
            rate = 2.0 * db_to_rate(snr_db)
            return (rate,) * count
        vals = self.values
        if len(vals) == 1:
            vals = vals * count
        if self.kind == "fixed-db":
            return tuple(db_to_rate(v) for v in vals)
        if self.kind == "fixed-rate":
            return vals
        return tuple(db_to_rate(snr_db) / f for f in vals)  # fraction-of-axis


def _parse_policy(group: str, data, n_relays: int, violations) -> Optional[LinkPolicy]:
    """One link object: a named policy, or the fixed shorthand without one,
    {"mean_snr_db": ...} (fixed-db) or {"rate": ...} (fixed-rate)."""
    where = f"links.{group}"
    if not isinstance(data, dict):
        violations.append(f"{where}: expected an object")
        return None
    kind = data.get("policy")
    if kind is None:
        kinds = [k for k in FIXED_POLICIES if POLICY_KEYS[k] in data]
        if len(kinds) != 1:
            violations.append(f"{where}: give a policy, or exactly one of "
                              f"mean_snr_db or rate")
            return None
        kind = kinds[0]
    if not isinstance(kind, str) or kind not in POLICY_KEYS:
        violations.append(f"{where}.policy: expected one of {tuple(POLICY_KEYS)}, "
                          f"got {kind!r}")
        return None
    if kind == "equal-split":
        if group not in _HOP_GROUPS:
            violations.append(f"{where}: equal-split applies only to relay hop groups")
            return None
        return LinkPolicy(kind)
    key = POLICY_KEYS[kind]
    raw = data.get(key)
    if raw is None:
        violations.append(f"{where}.{key}: required for policy {kind}")
        return None
    vals = raw if isinstance(raw, (list, tuple)) else [raw]
    ok = True
    for v in vals:
        if not _is_number(v):
            violations.append(f"{where}.{key}: entries must be finite numbers, got {v!r}")
            ok = False
        elif kind != "fixed-db" and v <= 0:
            violations.append(f"{where}.{key}: entries must be positive, got {v!r}")
            ok = False
    if len(vals) != 1 and group not in _RELAY_GROUPS:
        violations.append(f"{where}: expected a single value")
        ok = False
    elif len(vals) not in (1, n_relays):
        violations.append(f"{where}: length mismatch, expected {n_relays} entries "
                          f"(or one to broadcast), got {len(vals)}")
        ok = False
    return LinkPolicy(kind, tuple(float(v) for v in vals)) if ok else None


def parse_links(data, n_relays: int, violations) -> dict:
    """The `links` object of a sweep spec or an eval config: one LinkPolicy
    per link group, with every problem appended to `violations`."""
    if not isinstance(data, dict):
        violations.append("links: required object with one policy per link group")
        return {}
    links = {}
    for group in LINK_GROUPS:
        if group not in data:
            violations.append(f"links.{group}: missing")
            continue
        pol = _parse_policy(group, data[group], n_relays, violations)
        if pol is not None:
            links[group] = pol
    return links


@dataclass(frozen=True)
class SweepSpec:
    """Grid description for one network family (a single relay count)."""

    n_relays: int
    snr_start_db: float
    snr_stop_db: float
    snr_step_db: float
    rs_values: tuple
    schemes: tuple
    engines: tuple
    links: dict
    trials: int = 1_000_000
    seed: int = 12345
    chunk_size: int = 1 << 16
    quad_rel_tol: float = 1e-9
    quad_abs_tol: float = 1e-12


def _is_int(x) -> bool:
    """A JSON integer; bool is an int subclass in Python but not a count."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    """A finite JSON number; bool is an int subclass in Python but not a number."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _section(data: dict, key: str, violations) -> dict:
    """An optional sub-object of the spec; {} when absent or not an object."""
    sub = data.get(key, {})
    if isinstance(sub, dict):
        return sub
    violations.append(f"{key}: expected an object, got {sub!r}")
    return {}


def _nonempty_list(data: dict, key: str, violations) -> list:
    items = data.get(key)
    if isinstance(items, (list, tuple)) and items:
        return items
    violations.append(f"{key}: must be a nonempty list")
    return []


def parse_sweep_spec(data: dict) -> SweepSpec:
    """Build and validate a SweepSpec from parsed JSON; collects every problem."""
    v: list = []
    if not isinstance(data, dict):
        raise SpecValidationError(["spec root must be an object"])

    n = data.get("n_relays")
    if not _is_int(n) or n < 1:
        v.append(f"n_relays: must be a positive integer, got {n!r}")
        n = 1

    grid = _section(data, "snr_db", v)
    start = grid.get("start", 0.0)
    stop = grid.get("stop", start)
    step = grid.get("step", 1.0)
    for name, val in (("start", start), ("stop", stop), ("step", step)):
        if not _is_number(val):
            v.append(f"snr_db.{name}: must be a finite number, got {val!r}")
    if _is_number(step) and not step > 0:
        v.append(f"snr_db.step: must be > 0, got {step!r}")
    if _is_number(start) and _is_number(stop) and stop < start:
        v.append("snr_db: stop must be >= start")

    rs_values = _nonempty_list(data, "rs_values", v)
    for r in rs_values:
        if not _is_number(r) or r < 0:
            v.append(f"rs_values: entries must be finite and >= 0, got {r!r}")

    schemes = []
    for s in _nonempty_list(data, "schemes", v):
        try:
            schemes.append(Scheme(s))
        except ValueError:
            v.append(f"schemes: unknown scheme {s!r}")

    engines = tuple(_nonempty_list(data, "engines", v))
    for e in engines:
        if e not in ENGINE_NAMES:
            v.append(f"engines: expected one of {ENGINE_NAMES}, got {e!r}")

    links = parse_links(data.get("links"), n, v)

    mc = _section(data, "mc", v)
    trials = mc.get("trials", 1_000_000)
    seed = mc.get("seed", 12345)
    chunk = mc.get("chunk_size", 1 << 16)
    if not _is_int(trials) or trials < 1:
        v.append(f"mc.trials: must be a positive integer, got {trials!r}")
    if not _is_int(seed) or not 0 <= seed < 2 ** 64:
        v.append(f"mc.seed: must be a 64-bit nonnegative integer, got {seed!r}")
    if not _is_int(chunk) or chunk < 1:
        v.append(f"mc.chunk_size: must be a positive integer, got {chunk!r}")

    quad = _section(data, "quad", v)
    rel_tol = quad.get("rel_tol", 1e-9)
    abs_tol = quad.get("abs_tol", 1e-12)
    if not _is_number(rel_tol) or rel_tol <= 0:
        v.append(f"quad.rel_tol: must be a positive number, got {rel_tol!r}")
    if not _is_number(abs_tol) or abs_tol <= 0:
        v.append(f"quad.abs_tol: must be a positive number, got {abs_tol!r}")

    if v:
        raise SpecValidationError(v)
    return SweepSpec(
        n_relays=n, snr_start_db=float(start), snr_stop_db=float(stop),
        snr_step_db=float(step), rs_values=tuple(float(r) for r in rs_values),
        schemes=tuple(schemes), engines=engines, links=links,
        trials=trials, seed=seed, chunk_size=chunk,
        quad_rel_tol=float(rel_tol), quad_abs_tol=float(abs_tol))


def snr_grid(spec: SweepSpec):
    """Axis values start, start+step, ..., including stop (within float slack)."""
    count = int(math.floor((spec.snr_stop_db - spec.snr_start_db)
                           / spec.snr_step_db + 1e-9)) + 1
    return [spec.snr_start_db + i * spec.snr_step_db for i in range(count)]


def config_from_links(links: dict, n_relays: int, snr_db: float) -> NetworkConfig:
    """Resolve every link policy at one axis point into a NetworkConfig."""
    rates = {g: links[g].rates(g, n_relays, snr_db) for g in LINK_GROUPS}
    return NetworkConfig(
        n_relays=n_relays,
        beta_sk=rates["s_relays"],
        beta_kd=rates["relays_d"],
        beta_sd=rates["s_d"][0],
        alpha_ke=rates["relays_e"],
        alpha_se=rates["s_e"][0])


def config_at(spec: SweepSpec, snr_db: float) -> NetworkConfig:
    return config_from_links(spec.links, spec.n_relays, snr_db)


@dataclass(frozen=True)
class SweepRow:
    """One evaluated grid point; optional fields are empty unless mc."""

    snr_db: float
    scheme: Scheme
    rs: float
    engine: str
    sop: Optional[float] = None
    ci_halfwidth: Optional[float] = None
    trials: Optional[int] = None
    seed: Optional[int] = None
    status: str = "ok"


def _status(exc: Exception) -> str:
    """The row status of an engine or input error."""
    if isinstance(exc, UnsupportedSizeError):
        return "unsupported-size"
    if isinstance(exc, ConvergenceError):
        return "convergence-failure"
    return "invalid-input"


_ROW_ERRORS = (UnsupportedSizeError, ConvergenceError, ValueError)


def _row(snr_db, scheme, rs, engine, res=None, status="ok") -> SweepRow:
    if res is None:
        return SweepRow(snr_db, scheme, rs, engine, status=status)
    return SweepRow(snr_db, scheme, rs, engine, sop=res.value,
                    ci_halfwidth=res.ci_halfwidth, trials=res.trials, seed=res.seed)


def _eval_point(spec: SweepSpec, snr_db: float, scheme: Scheme, rs: float,
                engine: str) -> SweepRow:
    """One analytic or quad row."""
    try:
        config = config_at(spec, snr_db)
        target = SecrecyTarget(rs)
        if engine == "analytic":
            res = sop_analytic(config, scheme, target)
        else:
            res = sop_quadrature(config, scheme, target,
                                 QuadSettings(rel_tol=spec.quad_rel_tol,
                                              abs_tol=spec.quad_abs_tol))
    except _ROW_ERRORS as exc:
        return _row(snr_db, scheme, rs, engine, status=_status(exc))
    return _row(snr_db, scheme, rs, engine, res)


def _mc_rows(spec: SweepSpec, workers: int) -> dict:
    """Every mc row of the sweep, keyed by (snr, scheme, rs), from one grid
    estimate: the axis points share each chunk's draws. A point whose config
    fails, or a threshold that fails, gets its own row status."""
    grid = snr_grid(spec)
    failed = {}
    cells = []
    for scheme in spec.schemes:
        for rs in spec.rs_values:
            try:
                cells.append((scheme, rs, SecrecyTarget(rs)))
            except ValueError as exc:
                failed.update({(snr, scheme, rs): _status(exc) for snr in grid})
    points = []
    for snr in grid:
        try:
            config = config_at(spec, snr)
            require_valid(config)
        except _ROW_ERRORS as exc:
            failed.update({(snr, scheme, rs): _status(exc) for scheme, rs, _ in cells})
        else:
            points.append((snr, config))
    results = []
    if points and cells:
        try:
            results = estimate_sop_grid(
                [config for _, config in points],
                [(scheme, target) for scheme, _, target in cells],
                McSettings(spec.trials, spec.seed, spec.chunk_size), workers)
        except _ROW_ERRORS as exc:
            failed.update({(snr, scheme, rs): _status(exc)
                           for snr, _ in points for scheme, rs, _ in cells})
    rows = {key: _row(*key, "mc", status=status) for key, status in failed.items()}
    for (snr, _), row in zip(points, results):
        for (scheme, rs, _), res in zip(cells, row):
            rows[(snr, scheme, rs)] = _row(snr, scheme, rs, "mc", res)
    return rows


def sweep_points(spec: SweepSpec):
    """The grid in emission order: snr major, then scheme, rs, engine."""
    return [(snr, scheme, rs, engine)
            for snr in snr_grid(spec)
            for scheme in spec.schemes
            for rs in spec.rs_values
            for engine in spec.engines]


def run_sweep(spec: SweepSpec, workers: int = 1):
    """Evaluate the whole grid; row order is independent of the worker count.

    Only the mc rows use `workers`: its threads take blocks of the one grid
    estimate. Analytic and quad rows run serially in the calling thread: the
    analytic engine sets mpmath's process-wide working precision, which
    threads would clobber.
    """
    mc = _mc_rows(spec, workers) if "mc" in spec.engines else {}
    return [mc[p[:3]] if p[3] == "mc" else _eval_point(spec, *p)
            for p in sweep_points(spec)]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_rows(out, rows) -> None:
    """Write the fixed-schema CSV; `out` is a path or a text file object."""
    if isinstance(out, (str, bytes)) or hasattr(out, "__fspath__"):
        with open(out, "w", newline="") as fh:
            write_rows(fh, rows)
        return
    w = csv.writer(out, lineterminator="\n")
    w.writerow(CSV_HEADER)
    for r in rows:
        w.writerow([
            _fmt(r.snr_db), r.scheme.value, _fmt(r.rs), r.engine,
            _fmt(r.sop), _fmt(r.ci_halfwidth), _fmt(r.trials), _fmt(r.seed),
            r.status])


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    write_rows(buf, rows)
    return buf.getvalue()
