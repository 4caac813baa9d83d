"""The benchmark's workloads: their inputs, the CLI calls that run them, and
the rows they produce.

Every workload drives the program only through `relaysop.cli.main`, the
function behind the `relaysop` command. The sweep workloads write their own
spec files from the link-policy data below, so they do not depend on how the
program stores its presets. `--seed` reaches only the Monte Carlo seeds.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple

#: the CLI's default Monte Carlo seed; reference outputs are recorded at it
DEFAULT_SEED = 12345
SCHEMES = ("max-e", "min-e", "max-mrc", "mrc-mrc")

_FIGURES_TRIALS = 131072  # two chunks of the default 65536
_MC_WIDE_TRIALS = 1 << 17
_EVE_LADDER_DB = (0.0, 3.0, 6.0, 9.0)
_FIG4_FRACTIONS = {1: [0.5], 2: [0.2, 0.3], 3: [0.10, 0.15, 0.25],
                   4: [0.05, 0.10, 0.15, 0.20]}


class Row(NamedTuple):
    """One evaluated grid point, as the CSV strings the program wrote.

    `key` names the grid point (file, variant, snr_db, scheme, rs); rows of
    different engines at the same point share it.
    """

    key: tuple
    engine: str
    sop: str
    ci_halfwidth: str
    trials: str
    seed: str
    status: str


def _equal_split_links(relays_e_db) -> dict:
    return {"s_relays": {"policy": "equal-split"},
            "relays_d": {"policy": "equal-split"},
            "s_d": {"policy": "fixed-db", "mean_snr_db": 3.0},
            "relays_e": {"policy": "fixed-db", "mean_snr_db": relays_e_db},
            "s_e": {"policy": "fixed-db", "mean_snr_db": 0.0}}


def family_links(family: str, n: int) -> dict:
    """Link policies of the four reference families (fig2, fig3 balanced and
    unbalanced, fig4) at relay count n <= 4."""
    ladder = list(_EVE_LADDER_DB[:n])
    if family == "fig2":
        return _equal_split_links(3.0)
    if family == "fig3-balanced":
        return _equal_split_links(ladder)
    if family == "fig3-unbalanced":
        return {"s_relays": {"policy": "fixed-db", "mean_snr_db": 30.0},
                "relays_d": {"policy": "fraction-of-axis", "fraction": 1.0},
                "s_d": {"policy": "fixed-db", "mean_snr_db": 3.0},
                "relays_e": {"policy": "fixed-db", "mean_snr_db": ladder},
                "s_e": {"policy": "fixed-db", "mean_snr_db": 0.0}}
    if family == "fig4":
        fr = _FIG4_FRACTIONS[n]
        return {"s_relays": {"policy": "fraction-of-axis", "fraction": fr},
                "relays_d": {"policy": "fraction-of-axis", "fraction": fr},
                "s_d": {"policy": "fixed-db", "mean_snr_db": 3.0},
                "relays_e": {"policy": "fixed-db",
                             "mean_snr_db": list(_EVE_LADDER_DB[-n:])},
                "s_e": {"policy": "fixed-db", "mean_snr_db": -3.0}}
    raise ValueError(f"unknown family {family!r}")


def _spec(n_relays, start, stop, step, rs_values, schemes, engines, links,
          mc=None) -> dict:
    spec = {"n_relays": n_relays,
            "snr_db": {"start": start, "stop": stop, "step": step},
            "rs_values": list(rs_values), "schemes": list(schemes),
            "engines": list(engines), "links": links}
    if mc is not None:
        spec["mc"] = mc
    return spec


def _closed_form_specs(seed: int):
    """Reference families at N 1-4 on a 20 dB grid, plus N 5-8 with identical
    taps (fig2 policy) and with taps laddered 1 dB apart at 0 and 80 dB.

    A pass is kept short (7-9 s) so that a 30 s run holds several passes:
    this workload's interpreter-bound time swings most with the host's
    speed, and the median of more passes is steadier."""
    del seed  # no Monte Carlo rows
    out = []
    for family in ("fig2", "fig3-balanced", "fig3-unbalanced", "fig4"):
        for n in (1, 2, 3, 4):
            out.append((f"{family}_n{n}",
                        _spec(n, 0.0, 80.0, 20.0, (0.0, 1.0), SCHEMES,
                              ("analytic", "quad"), family_links(family, n))))
    for n in (5, 6, 7, 8):
        out.append((f"identical_n{n}",
                    _spec(n, 0.0, 80.0, 80.0, (0.0, 1.0), SCHEMES,
                          ("analytic", "quad"), _equal_split_links(3.0))))
    for n in (5, 6, 7, 8):
        out.append((f"laddered_n{n}",
                    _spec(n, 0.0, 80.0, 80.0, (0.0, 1.0), SCHEMES,
                          ("analytic", "quad"),
                          _equal_split_links([float(k) for k in range(n)]))))
    return out


def _mc_wide_specs(seed: int):
    """One spec per scheme at N 16 and 32; each spec has its own seed, so no
    two rows draw the same (seed, chunk) stream for the same network."""
    return [(scheme,
             _spec([16, 32], 0.0, 48.0, 4.0, (1.0,), (scheme,), ("mc",),
                   _equal_split_links(3.0),
                   mc={"trials": _MC_WIDE_TRIALS,
                       "seed": (seed + i) % 2 ** 64}))
            for i, scheme in enumerate(SCHEMES)]


@dataclass(frozen=True)
class Workload:
    """Inputs and CLI calls of one workload; the rationale is in BENCHMARK.json."""

    name: str
    #: seed -> [(file stem, sweep spec)]; empty for `reproduce`
    specs: Callable
    workers: int
    #: the sweep spec of the workload's first evaluated row
    first_row: Callable

    def write_specs(self, out_dir: str, seed: int) -> list:
        """Write the spec files; returns (spec path, output CSV path) pairs."""
        os.makedirs(out_dir, exist_ok=True)
        jobs = []
        for stem, spec in self.specs(seed):
            path = os.path.join(out_dir, f"{stem}.json")
            with open(path, "w") as fh:
                json.dump(spec, fh)
            jobs.append((path, os.path.join(out_dir, f"{stem}.csv")))
        return jobs

    def run(self, main, jobs, out_dir: str, seed: int) -> list:
        """One pass through the CLI; returns the exit codes."""
        if self.name == "figures":
            return [main(["reproduce", "--figure", "all", "--out-dir", out_dir,
                          "--trials", str(_FIGURES_TRIALS), "--workers",
                          str(self.workers), "--seed", str(seed)])]
        return [main(["sweep", "--spec", spec, "--out", out, "--workers",
                      str(self.workers)]) for spec, out in jobs]

    def read_rows(self, out_dir: str) -> list:
        """Every row of every CSV the pass wrote."""
        rows = []
        for name in sorted(os.listdir(out_dir)):
            if not name.endswith(".csv"):
                continue
            with open(os.path.join(out_dir, name), newline="") as fh:
                reader = csv.DictReader(fh)
                for r in reader:
                    if self.name == "figures":
                        rows.extend(_wide_rows(name, r))
                    else:
                        rows.append(Row((name, "", r["snr_db"], r["scheme"], r["rs"]),
                                        r["engine"], r["sop"], r["ci_halfwidth"],
                                        r["trials"], r["seed"], r["status"]))
        return rows


def _wide_rows(name: str, r: dict):
    """A `reproduce` CSV line holds one analytic and one Monte Carlo row."""
    key = (name, r["variant"], r["snr_db"], r["scheme"], r["rs"])
    yield Row(key, "analytic", r["sop_analytic"], "", "", "", r["status"])
    yield Row(key, "mc", r["sop_mc"], r["mc_ci_halfwidth"], r["mc_trials"],
              r["mc_seed"], r["status"])


def _first_of(specs) -> Callable:
    def first_row(seed: int) -> dict:
        spec = dict(specs(seed)[0][1])
        n = spec["n_relays"]
        spec["n_relays"] = n[0] if isinstance(n, list) else n
        start = spec["snr_db"]["start"]
        spec["snr_db"] = {"start": start, "stop": start, "step": 1.0}
        for key in ("rs_values", "schemes", "engines"):
            spec[key] = spec[key][:1]
        return spec
    return first_row


def _figures_first_row(seed: int) -> dict:
    del seed  # the first row of `reproduce` is closed-form
    return _spec(1, 0.0, 0.0, 1.0, (0.0,), ("max-e",), ("analytic",),
                 family_links("fig2", 1))


WORKLOADS = {w.name: w for w in (
    Workload(
        "figures",
        specs=lambda seed: [], workers=1, first_row=_figures_first_row),
    Workload(
        "closed-form",
        specs=_closed_form_specs, workers=1,
        first_row=_first_of(_closed_form_specs)),
    Workload(
        "mc-wide",
        specs=_mc_wide_specs, workers=2, first_row=_first_of(_mc_wide_specs)),
)}
