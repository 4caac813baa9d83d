"""Tests of the benchmark's row checker and tracer (no workload is run)."""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy.random  # noqa: E402
import pytest  # noqa: E402

import relaysop.analytic  # noqa: E402
import relaysop.cli  # noqa: E402
import relaysop.sweep  # noqa: E402
from bench_check import check_rows, load_reference, reference_path  # noqa: E402
from bench_trace import (Span, Tracer, layer_metrics, require_untraced,  # noqa: E402
                         self_times, traced_attributes)
from bench_workloads import DEFAULT_SEED  # noqa: E402


def _reference(workload):
    return load_reference(reference_path(workload))


def _replace(rows, index, **fields):
    rows = list(rows)
    rows[index] = rows[index]._replace(**fields)
    return rows


@pytest.mark.parametrize("workload", ["figures", "closed-form", "mc-wide"])
def test_reference_passes_its_own_checks(workload):
    ref = _reference(workload)
    assert check_rows(ref, ref, DEFAULT_SEED) == (len(ref), 0, [])


def test_one_perturbed_mc_byte_fails_one_row():
    ref = _reference("figures")
    i = next(i for i, r in enumerate(ref) if r.engine == "mc" and float(r.sop) > 0.1)
    sop = ref[i].sop
    bumped = sop[:-1] + str((int(sop[-1]) + 1) % 10)
    _, failed, problems = check_rows(_replace(ref, i, sop=bumped), ref, DEFAULT_SEED)
    assert failed == 1, problems


def test_analytic_value_off_by_1e6_relative_fails_one_row():
    ref = _reference("closed-form")
    i = next(i for i, r in enumerate(ref)
             if r.engine == "analytic" and float(r.sop) > 1e-3)
    off = f"{float(ref[i].sop) * (1 + 1e-6):.12g}"
    _, failed, problems = check_rows(_replace(ref, i, sop=off), ref, DEFAULT_SEED)
    assert failed == 1, problems


def test_missing_row_and_bad_status_each_fail_one_row():
    ref = _reference("mc-wide")
    assert check_rows(ref[1:], ref, DEFAULT_SEED)[1] == 1
    assert check_rows(_replace(ref, 0, status="invalid-input"), ref, DEFAULT_SEED)[1] == 1


def test_analytic_quad_disagreement_fails_both_rows():
    ref = _reference("closed-form")
    i = next(i for i, r in enumerate(ref) if r.engine == "quad" and float(r.sop) > 0.1)
    moved = f"{float(ref[i].sop) - 2e-5:.12g}"
    assert check_rows(_replace(ref, i, sop=moved), ref, DEFAULT_SEED)[1] == 2


def test_other_seeds_get_statistical_checks_only():
    ref = _reference("mc-wide")
    shifted = [r._replace(seed=str(int(r.seed) + 5)) for r in ref]
    assert check_rows(shifted, ref, DEFAULT_SEED + 5)[1] == 0
    # at the default seed the same rows break byte identity
    assert check_rows(shifted, ref, DEFAULT_SEED)[1] == len(ref)
    # a half-width that does not match its estimate fails at any seed
    bad = _replace(shifted, 0, ci_halfwidth="0.5")
    assert check_rows(bad, ref, DEFAULT_SEED + 5)[1] == 1


def test_self_time_subtracts_the_union_of_children():
    parent = Span(1, "sweep", "run_sweep", None, 1, None, None, 0.0)
    parent.end = 10.0
    kids = []
    for sid, (a, b) in enumerate([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)], start=2):
        kid = Span(sid, "analytic", "sop_analytic", 1, 1, sid, None, a)
        kid.end = b
        kids.append(kid)
    assert self_times([parent, *kids])[1] == pytest.approx(5.0)


def test_tracer_counts_layers_and_restores_every_attribute(tmp_path):
    originals = (relaysop.sweep.sop_analytic, relaysop.analytic.sop_analytic,
                 relaysop.cli.run_sweep, numpy.random.default_rng)
    spec = {"n_relays": 2, "snr_db": {"start": 10.0, "stop": 10.0, "step": 1.0},
            "rs_values": [1.0], "schemes": ["max-e"],
            "engines": ["analytic", "mc", "quad"],
            "links": {"s_relays": {"policy": "equal-split"},
                      "relays_d": {"policy": "equal-split"},
                      "s_d": {"policy": "fixed-db", "mean_snr_db": 3.0},
                      "relays_e": {"policy": "fixed-db", "mean_snr_db": [3.0, 6.0]},
                      "s_e": {"policy": "fixed-db", "mean_snr_db": 0.0}},
            "mc": {"trials": 1000}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    require_untraced()
    with Tracer() as tracer:
        assert "relaysop.sweep.sop_analytic" in traced_attributes()
        with pytest.raises(RuntimeError):
            require_untraced()
        assert relaysop.cli.main(["sweep", "--spec", str(path),
                                  "--out", str(tmp_path / "out.csv")]) == 0
    require_untraced()
    assert (relaysop.sweep.sop_analytic, relaysop.analytic.sop_analytic,
            relaysop.cli.run_sweep, numpy.random.default_rng) == originals

    m = layer_metrics(tracer)
    assert (m["analytic.calls"], m["quadrature.calls"], m["montecarlo.calls"]) == (1, 1, 1)
    assert m["montecarlo.chunks_drawn"] == 1
    assert m["expdist.subset_terms"] == 2  # one rival subset per relay
    assert m["quadrature.integrals"] == 2 and m["quadrature.neval"] > 0
    assert m["analytic.mp_terms"] > 0 and m["analytic.max_dps"] >= 25
    assert m["analytic.max-e.s"] > 0 and m["analytic.min-e.s"] == 0
    assert 0 < m["sweep.concurrency"] <= 1.0
    assert m["cli.self_s"] > 0
