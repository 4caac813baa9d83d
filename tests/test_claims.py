"""The figure claims on hand-built tables.

The acceptance suite runs the claims on engine output. Here each claim gets
a table whose values make it hold, then one broken, missing or failing
cell, so each PASS and FAIL path is seen on its own and a missing cell is
shown to become a named FAIL line rather than an exception.
"""

from relaysop import claims
from relaysop.analytic import sop_analytic
from relaysop.claims import (FLOOR_SNR_DB, analytic_table, approaches_floor,
                             fig2_claims, fig4_claims, figure_report,
                             keeps_falling, settles)
from relaysop.errors import ConvergenceError
from relaysop.model import Engine, Scheme, SecrecyTarget
from relaysop.presets import figure_sweep_specs
from relaysop.sweep import SweepRow, config_at, snr_grid


def _specs(figure):
    return figure_sweep_specs(figure, engines=("analytic",))


def _table(spec, value):
    """value(snr, scheme, rs) at every cell of one spec."""
    return {(s, scheme, rs): value(s, scheme, rs)
            for s in snr_grid(spec) for scheme in spec.schemes
            for rs in spec.rs_values}


def _fig2_tables(specs):
    """max-e rises and min-e falls with the variant index by halving steps,
    rs=1 doubles the SOP, and every curve falls as SNR^-1/4."""
    def value(i):
        def sop(s, scheme, rs):
            base = 0.25 * (1.0 + rs) * 10.0 ** (-s / 40.0)
            step = 0.5 ** i
            return base * ((2.0 - step) if scheme is Scheme.MAX_E else (1.0 + step))
        return sop
    return [_table(spec, value(i)) for i, (_, spec) in enumerate(specs)]


def _fig4_tables(specs):
    """mrc-mrc = 2 max-mrc everywhere; max-e reaches mrc-mrc at 10 dB and
    min-e reaches max-mrc at 20 dB, each staying above from there up."""
    def sop(s, scheme, rs):
        mrc = 0.1 * 10.0 ** (-s / 10.0)
        return {Scheme.MRC_MRC: mrc, Scheme.MAX_MRC: 0.5 * mrc,
                Scheme.MAX_E: mrc * s / 10.0, Scheme.MIN_E: 0.5 * mrc * s / 20.0}[scheme]
    return [_table(spec, sop) for _, spec in specs]


def test_analytic_table_keeps_ok_analytic_rows():
    rows = [SweepRow(10.0, Scheme.MAX_E, 0.0, Engine.ANALYTIC, sop=0.3),
            SweepRow(10.0, Scheme.MAX_E, 0.0, Engine.MONTE_CARLO, sop=0.31),
            SweepRow(20.0, Scheme.MAX_E, 0.0, Engine.ANALYTIC,
                     status="convergence-failure"),
            SweepRow(20.0, Scheme.MIN_E, 1.0, Engine.ANALYTIC, sop=0.1)]
    assert analytic_table(rows) == {(10.0, Scheme.MAX_E, 0.0): 0.3,
                                    (20.0, Scheme.MIN_E, 1.0): 0.1}


def test_fig2_claims_hold_on_ordered_tables():
    specs = _specs("fig2")
    lines = []
    assert fig2_claims(specs, _fig2_tables(specs), lines)
    assert len(lines) == 4 and all(line.startswith("PASS: ") for line in lines)


def test_fig2_claims_reject_reversed_relay_order():
    specs = _specs("fig2")
    lines = []
    assert not fig2_claims(specs, _fig2_tables(specs)[::-1], lines)
    assert [line.split(":")[0] for line in lines] == ["FAIL", "FAIL", "PASS", "FAIL"]


def test_fig2_missing_cell_is_named():
    specs = _specs("fig2")
    tables = _fig2_tables(specs)
    del tables[2][(20.0, Scheme.MAX_E, 1.0)]
    lines = []
    assert not fig2_claims(specs, tables, lines)
    assert lines[0] == ("FAIL: max-e SOP strictly increases with relay count at "
                        "every axis point >= 5 dB; missing cells: n3 max-e rs=1 "
                        "at 20 dB")
    assert lines[1].startswith("PASS: min-e")
    assert all(line.endswith("missing cells: n3 max-e rs=1 at 20 dB")
               for line in lines[2:])


def test_keeps_falling_bound():
    (label, spec), _ = _specs("fig3")

    def run(fall):
        lines = []
        ok = keeps_falling(label, spec, _table(
            spec, lambda s, scheme, rs: 1e-3 * fall ** ((40.0 - s) / 2.0)), lines)
        return ok, [line.split(":")[0] for line in lines]

    # the last 2 dB step falls by 20%, then by only 5%
    assert run(1.2) == (True, ["PASS"] * 4)
    assert run(1.05) == (False, ["FAIL"] * 4)


def test_approaches_floor_holds_at_first_order_gap_and_names_missing_top():
    _, (label, spec) = _specs("fig3")
    top = config_at(spec, 40.0)
    predicted = top.beta_kd[0] / top.beta_sk[0]
    floor_config = config_at(spec, FLOOR_SNR_DB)
    table = {(40.0, scheme, rs): sop_analytic(floor_config, scheme,
                                              SecrecyTarget(rs)).value
             * (1.0 + predicted)
             for scheme in spec.schemes for rs in spec.rs_values}
    lines = []
    assert approaches_floor(label, spec, table, lines)
    assert len(lines) == 4 and all(line.startswith("PASS: ") for line in lines)

    del table[(40.0, Scheme.MIN_E, 1.0)]
    lines = []
    assert not approaches_floor(label, spec, table, lines)
    assert [line.split(":")[0] for line in lines] == ["PASS", "PASS", "PASS", "FAIL"]
    assert lines[3].endswith("missing cells: unbalanced min-e rs=1 at 40 dB")


def test_failing_floor_is_named_not_raised(monkeypatch):
    def failing(config, scheme, target):
        raise ConvergenceError("forced", estimate=0.0, error_bound=1.0)

    monkeypatch.setattr(claims, "sop_analytic", failing)
    _, (label, spec) = _specs("fig3")
    lines = []
    assert not approaches_floor(label, spec, _table(spec, lambda *_: 0.01), lines)
    assert len(lines) == 4
    assert lines[0].startswith("FAIL: unbalanced max-e rs=0 approaches a floor: F = nan")
    assert lines[0].endswith("missing cells: unbalanced max-e rs=0 at 100 dB (floor)")


def test_settles_edges():
    assert settles([True])
    assert settles([True, True])
    assert not settles([])
    assert not settles([True, False])


def test_fig4_claims_hold_and_name_the_crossing():
    specs = _specs("fig4")
    lines = []
    assert fig4_claims(specs, _fig4_tables(specs), lines)
    assert lines[:3] == [
        "PASS: n2 rs=1 mrc-mrc >= max-mrc at every grid point",
        "PASS: n2 rs=1 max-e >= mrc-mrc crosses once and holds from 10 dB up",
        "PASS: n2 rs=1 min-e >= max-mrc crosses once and holds from 20 dB up"]
    assert len(lines) == 6 and all(line.startswith("PASS: ") for line in lines)


def test_fig4_claims_reject_a_reverting_ordering():
    specs = _specs("fig4")
    tables = _fig4_tables(specs)
    tables[1][(30.0, Scheme.MAX_E, 1.0)] = 0.0
    lines = []
    assert not fig4_claims(specs, tables, lines)
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL: n4 rs=1 max-e >= mrc-mrc crosses once and holds from 10 dB up"]


def test_figure_report_slopes():
    specs = _specs("fig2")
    tables = _fig2_tables(specs)
    del tables[0][(40.0, Scheme.MIN_E, 0.0)]
    tables[1][(30.0, Scheme.MAX_E, 1.0)] = 0.0
    report = figure_report("fig2", specs, tables)
    assert report[0] == "fig2 qualitative checks"
    assert "  fig2 n1 max-e rs=0: slope=0.2500" in report
    assert "  fig2 n1 min-e rs=0: slope undefined (missing cells)" in report
    assert "  fig2 n2 max-e rs=1: slope undefined (SOP underflow)" in report
    slopes = report[report.index("diversity slopes over [30, 40] dB:") + 1:]
    assert len(slopes) == 4 * 2 * 2
