import csv
import io
import json
import warnings

import pytest

import relaysop.analytic as analytic
from relaysop.cli import load_network_config, main
from relaysop.errors import ConvergenceError
from relaysop.model import (NetworkConfig, Scheme, SecrecyTarget, db_to_rate,
                            validate_config)
from relaysop.montecarlo import estimate_sop_many
from relaysop.sweep import (SpecValidationError, config_at, parse_sweep_spec,
                            run_sweep, snr_grid, sweep_points)


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def symmetric_config():
    # legitimate rates {1, 2} match eavesdropper rates {1, 2}
    return {
        "n_relays": 1,
        "links": {
            "s_relays": {"rate": 0.6},
            "relays_d": {"rate": 1.4},
            "s_d": {"rate": 1.0},
            "relays_e": {"rate": 2.0},
            "s_e": {"rate": 1.0},
        },
    }


def small_sweep_spec(engines=("analytic", "mc"), trials=20_000):
    return {
        "n_relays": 2,
        "snr_db": {"start": 0.0, "stop": 10.0, "step": 5.0},
        "rs_values": [0.0, 1.0],
        "schemes": ["max-e", "mrc-mrc"],
        "engines": list(engines),
        "links": {
            "s_relays": {"policy": "equal-split"},
            "relays_d": {"policy": "equal-split"},
            "s_d": {"policy": "fixed-db", "mean_snr_db": 3.0},
            "relays_e": {"policy": "fixed-db", "mean_snr_db": [3.0, 6.0]},
            "s_e": {"policy": "fixed-db", "mean_snr_db": 0.0},
        },
        "mc": {"trials": trials, "seed": 1234},
    }


def test_console_entry_point(tmp_path):
    import subprocess
    import sys
    cfg = write_json(tmp_path / "cfg.json", symmetric_config())
    proc = subprocess.run(
        [sys.executable, "-m", "relaysop.cli", "eval", "--config", cfg,
         "--scheme", "mrc-mrc", "--rs", "0", "--engine", "analytic"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].split(",")[4] == "0.5"


class TestEval:
    def test_analytic_row(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", symmetric_config())
        code = main(["eval", "--config", cfg, "--scheme", "mrc-mrc",
                     "--rs", "0", "--engine", "analytic"])
        out = capsys.readouterr().out
        assert code == 0
        header, row = [line.split(",") for line in out.strip().splitlines()]
        assert header == ["snr_db", "scheme", "rs", "engine", "sop",
                          "ci_halfwidth", "trials", "seed", "status"]
        assert row[1] == "mrc-mrc" and row[3] == "analytic" and row[8] == "ok"
        assert 0.0 <= float(row[4]) <= 1.0

    def test_symmetric_value_is_half(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", symmetric_config())
        main(["eval", "--config", cfg, "--scheme", "mrc-mrc",
              "--rs", "0", "--engine", "analytic"])
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert abs(float(row[4]) - 0.5) <= 1e-9

    def test_zero_rate_names_field(self, tmp_path, capsys):
        data = symmetric_config()
        data["links"]["s_d"]["rate"] = 0.0
        cfg = write_json(tmp_path / "bad.json", data)
        code = main(["eval", "--config", cfg, "--scheme", "max-e",
                     "--rs", "0", "--engine", "analytic"])
        err = capsys.readouterr().err
        assert code == 2
        assert "links.s_d.rate" in err

    def test_missing_file(self, capsys):
        code = main(["eval", "--config", "/nonexistent.json", "--scheme",
                     "max-e", "--rs", "0"])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_mc_engine_reports_ci(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", symmetric_config())
        code = main(["eval", "--config", cfg, "--scheme", "mrc-mrc", "--rs", "0",
                     "--engine", "mc", "--trials", "20000", "--seed", "9"])
        assert code == 0
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert row[5] != "" and row[6] == "20000" and row[7] == "9"

    def test_convergence_failure_exit_code(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", symmetric_config())
        code = main(["eval", "--config", cfg, "--scheme", "max-e", "--rs", "1",
                     "--engine", "quad", "--rel-tol", "1e-15",
                     "--abs-tol", "1e-16"])
        assert code == 1
        assert "tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, field", [
        ("--rel-tol", "nan", "quad.rel_tol"), ("--abs-tol", "nan", "quad.abs_tol"),
        ("--rel-tol", "inf", "quad.rel_tol")])
    def test_non_finite_tolerance_exit_2(self, tmp_path, capsys, flag, value, field):
        # a NaN tolerance would make quad's convergence test always pass
        cfg = write_json(tmp_path / "cfg.json", symmetric_config())
        code = main(["eval", "--config", cfg, "--scheme", "max-e", "--rs", "1",
                     "--engine", "quad", flag, value])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error:") and field in err

    def test_oversized_network_exit_code(self, tmp_path, capsys):
        data = symmetric_config()
        data["n_relays"] = 9
        for grp in ("s_relays", "relays_d", "relays_e"):
            data["links"][grp] = {"rate": [1.0] * 9}
        cfg = write_json(tmp_path / "big.json", data)
        code = main(["eval", "--config", cfg, "--scheme", "max-e",
                     "--rs", "0", "--engine", "analytic"])
        assert code == 2
        assert "Monte Carlo" in capsys.readouterr().err


class TestLinkParser:
    """eval configs and sweep specs share one link parser: an eval link
    object is the fixed-db or fixed-rate policy without its name."""

    MEAN_SNR_DB = {"s_relays": [17.0, 14.0], "relays_d": 17, "s_d": 3.0,
                   "relays_e": [3.0, 6.0], "s_e": -1.5}
    RATE = {"s_relays": [0.02, 0.04], "relays_d": 0.02, "s_d": 0.5,
            "relays_e": [0.5, 0.25], "s_e": 1}

    @pytest.mark.parametrize("key, policy", [("mean_snr_db", "fixed-db"),
                                             ("rate", "fixed-rate")])
    def test_eval_config_equals_one_point_sweep(self, tmp_path, key, policy):
        values = self.MEAN_SNR_DB if key == "mean_snr_db" else self.RATE
        cfg = write_json(tmp_path / "cfg.json", {
            "n_relays": 2, "links": {g: {key: v} for g, v in values.items()}})
        spec = parse_sweep_spec({
            "n_relays": 2, "snr_db": {"start": 10.0, "stop": 10.0},
            "rs_values": [0.0], "schemes": ["max-e"], "engines": ["analytic"],
            "links": {g: {"policy": policy, key: v} for g, v in values.items()}})
        convert = db_to_rate if key == "mean_snr_db" else float
        direct = NetworkConfig(
            2, [convert(v) for v in values["s_relays"]],
            [convert(values["relays_d"])] * 2,
            convert(values["s_d"]), [convert(v) for v in values["relays_e"]],
            convert(values["s_e"]))
        assert load_network_config(cfg) == config_at(spec, 10.0) == direct

    @pytest.mark.parametrize("group", [{"mean_snr_db": 3.0, "rate": 0.5}, {},
                                       {"policy": "equal-split"}])
    def test_eval_group_needs_exactly_one_fixed_value(self, tmp_path, capsys, group):
        data = symmetric_config()
        data["links"]["s_relays"] = group
        cfg = write_json(tmp_path / "cfg.json", data)
        code = main(["eval", "--config", cfg, "--scheme", "max-e", "--rs", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "links.s_relays" in err


class TestSweepSpec:
    def test_parse_round_trip(self):
        spec = parse_sweep_spec(small_sweep_spec())
        assert spec.n_relays == 2
        assert snr_grid(spec) == [0.0, 5.0, 10.0]
        assert spec.schemes == (Scheme.MAX_E, Scheme.MRC_MRC)

    def test_empty_schemes_rejected(self):
        data = small_sweep_spec()
        data["schemes"] = []
        with pytest.raises(SpecValidationError, match="schemes"):
            parse_sweep_spec(data)

    def test_bad_engine_rejected(self):
        data = small_sweep_spec()
        data["engines"] = ["simulation"]
        with pytest.raises(SpecValidationError, match="engines"):
            parse_sweep_spec(data)

    def test_length_mismatch_rejected(self):
        data = small_sweep_spec()
        data["links"]["relays_e"]["mean_snr_db"] = [1.0, 2.0, 3.0]
        with pytest.raises(SpecValidationError, match="relays_e"):
            parse_sweep_spec(data)

    def test_equal_split_only_for_hops(self):
        data = small_sweep_spec()
        data["links"]["s_e"] = {"policy": "equal-split"}
        with pytest.raises(SpecValidationError, match="s_e"):
            parse_sweep_spec(data)

    def test_row_order_is_snr_major(self):
        spec = parse_sweep_spec(small_sweep_spec(engines=("analytic",)))
        pts = sweep_points(spec)
        snrs = [p[0] for p in pts]
        assert snrs == sorted(snrs)
        assert pts[0][:2] == (0.0, Scheme.MAX_E)
        assert pts[1][1] == Scheme.MAX_E and pts[1][2] == 1.0

    def test_fraction_policy_resolves_rates(self):
        spec = parse_sweep_spec({
            **small_sweep_spec(engines=("analytic",)),
            "links": {
                "s_relays": {"policy": "fraction-of-axis", "fraction": [0.2, 0.3]},
                "relays_d": {"policy": "fraction-of-axis", "fraction": [0.2, 0.3]},
                "s_d": {"policy": "fixed-db", "mean_snr_db": 3.0},
                "relays_e": {"policy": "fixed-db", "mean_snr_db": [6.0, 9.0]},
                "s_e": {"policy": "fixed-db", "mean_snr_db": -3.0},
            }})
        from relaysop.sweep import config_at
        cfg = config_at(spec, 10.0)  # axis mean 10 -> shares 2 and 3
        assert cfg.beta_sk[0] == pytest.approx(0.5)
        assert cfg.beta_sk[1] == pytest.approx(1.0 / 3.0)


class TestSweepCommand:
    def test_deterministic_output_across_runs_and_workers(self, tmp_path):
        spec = write_json(tmp_path / "s.json", small_sweep_spec())
        outs = []
        for i, workers in enumerate((1, 4, 16, 1)):
            out = tmp_path / f"o{i}.csv"
            code = main(["sweep", "--spec", spec, "--out", str(out),
                         "--workers", str(workers)])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2] == outs[3]

    def test_csv_schema(self, tmp_path):
        spec = write_json(tmp_path / "s.json",
                          small_sweep_spec(engines=("analytic",)))
        out = tmp_path / "o.csv"
        main(["sweep", "--spec", spec, "--out", str(out)])
        rows = list(csv.reader(io.StringIO(out.read_text())))
        assert rows[0] == list(("snr_db", "scheme", "rs", "engine", "sop",
                                "ci_halfwidth", "trials", "seed", "status"))
        assert len(rows) == 1 + 3 * 2 * 2  # grid x schemes x rs
        for row in rows[1:]:
            assert row[8] == "ok"
            assert 0.0 <= float(row[4]) <= 1.0
            assert row[5] == row[6] == row[7] == ""  # analytic rows

    def test_multi_n_spec_writes_one_file_per_count(self, tmp_path):
        data = small_sweep_spec(engines=("analytic",))
        data["n_relays"] = [1, 2]
        data["links"]["relays_e"] = {"policy": "fixed-db", "mean_snr_db": 3.0}
        spec = write_json(tmp_path / "s.json", data)
        out = tmp_path / "o.csv"
        code = main(["sweep", "--spec", spec, "--out", str(out)])
        assert code == 0
        assert (tmp_path / "o_n1.csv").exists()
        assert (tmp_path / "o_n2.csv").exists()

    @pytest.mark.parametrize("counts", [[], [2, 2], [1, 2, 1]])
    def test_empty_or_repeated_relay_counts_exit_2(self, tmp_path, capsys, counts):
        data = small_sweep_spec(engines=("analytic",))
        data["n_relays"] = counts
        data["links"]["relays_e"] = {"policy": "fixed-db", "mean_snr_db": 3.0}
        spec = write_json(tmp_path / "s.json", data)
        code = main(["sweep", "--spec", spec, "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: n_relays")
        assert not list(tmp_path.glob("o*.csv"))

    def test_invalid_spec_exit_code(self, tmp_path, capsys):
        data = small_sweep_spec()
        data["schemes"] = []
        spec = write_json(tmp_path / "s.json", data)
        assert main(["sweep", "--spec", spec, "--out", str(tmp_path / "o.csv")]) == 2

    def test_row_errors_reported_in_status_column(self, tmp_path, capsys):
        # nine relays: closed-form engines refuse, Monte Carlo still runs
        data = small_sweep_spec(engines=("analytic", "mc"), trials=2000)
        data["n_relays"] = 9
        data["links"]["relays_e"] = {"policy": "fixed-db", "mean_snr_db": 3.0}
        data["snr_db"] = {"start": 10.0, "stop": 10.0, "step": 1.0}
        spec = write_json(tmp_path / "s.json", data)
        out = tmp_path / "o.csv"
        code = main(["sweep", "--spec", spec, "--out", str(out)])
        assert code == 1  # some rows failed, sweep still completed
        rows = list(csv.reader(io.StringIO(out.read_text())))[1:]
        by_engine = {r[3]: r for r in rows}
        assert by_engine["analytic"][8] == "unsupported-size"
        assert by_engine["analytic"][4] == ""
        assert by_engine["mc"][8] == "ok"
        assert 0.0 <= float(by_engine["mc"][4]) <= 1.0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_points_past_rate_underflow_keep_their_own_status(self, workers):
        # the S->R hop's rate 10^(-snr/10) underflows to 0 above about 3240 dB;
        # below that it is subnormal and some S->R draws overflow to inf,
        # which the estimator handles without a numpy overflow warning
        data = small_sweep_spec(engines=("mc",), trials=3000)
        data["mc"]["chunk_size"] = 1000
        data["snr_db"] = {"start": 3000.0, "stop": 3400.0, "step": 100.0}
        data["links"]["s_relays"] = {"policy": "fraction-of-axis", "fraction": 1.0}
        data["links"]["relays_d"] = {"policy": "fixed-db", "mean_snr_db": 10.0}
        spec = parse_sweep_spec(data)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = run_sweep(spec, workers=workers)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        settings = spec.mc
        valid = []
        for snr in snr_grid(spec):
            mine = [r for r in rows if r.snr_db == snr]
            config = config_at(spec, snr)
            if validate_config(config):
                assert all(r.status == "invalid-input" and r.sop is None for r in mine)
                continue
            valid.append(snr)
            alone = estimate_sop_many(
                config, [(r.scheme, SecrecyTarget(r.rs)) for r in mine], settings)
            assert [(r.status, r.sop, r.ci_halfwidth) for r in mine] == \
                [("ok", a.value, a.ci_halfwidth) for a in alone]
        assert valid == [3000.0, 3100.0, 3200.0]

    def test_quad_engine_rows(self, tmp_path):
        data = small_sweep_spec(engines=("analytic", "quad"))
        spec = write_json(tmp_path / "s.json", data)
        out = tmp_path / "o.csv"
        assert main(["sweep", "--spec", spec, "--out", str(out)]) == 0
        rows = list(csv.reader(io.StringIO(out.read_text())))[1:]
        pairs = {}
        for r in rows:
            pairs.setdefault((r[0], r[1], r[2]), {})[r[3]] = float(r[4])
        for key, vals in pairs.items():
            assert abs(vals["analytic"] - vals["quad"]) <= 1e-5


class TestMalformedInput:
    """Malformed files exit 2 with an `error:` line instead of a traceback."""

    @staticmethod
    def run(tmp_path, capsys, command, data):
        path = write_json(tmp_path / "in.json", data)
        if command == "eval":
            argv = ["eval", "--config", path, "--scheme", "max-e", "--rs", "0"]
        elif command == "sweep":
            argv = ["sweep", "--spec", path, "--out", str(tmp_path / "o.csv")]
        else:
            argv = ["slope", "--spec", path]
        code = main(argv)
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "sweep", "slope"])
    def test_non_object_root(self, tmp_path, capsys, command):
        code, err = self.run(tmp_path, capsys, command, [1, 2])
        assert code == 2
        assert err.startswith("error:") and "root must be an object" in err

    @pytest.mark.parametrize("section", ["snr_db", "mc", "quad", "slope"])
    def test_non_object_section(self, tmp_path, capsys, section):
        data = small_sweep_spec(engines=("analytic",))
        data[section] = 5
        command = "slope" if section == "slope" else "sweep"
        code, err = self.run(tmp_path, capsys, command, data)
        assert code == 2
        assert err.startswith("error:") and f"{section}: expected an object" in err

    def test_non_numeric_slope_bound(self, tmp_path, capsys):
        data = small_sweep_spec(engines=("analytic",))
        data["slope"] = {"snr_lo_db": "30"}
        code, err = self.run(tmp_path, capsys, "slope", data)
        assert code == 2
        assert err.startswith("error:") and "slope.snr_lo_db" in err

    def test_non_list_rs_values(self, tmp_path, capsys):
        data = small_sweep_spec(engines=("analytic",))
        data["rs_values"] = 1.0
        code, err = self.run(tmp_path, capsys, "sweep", data)
        assert code == 2
        assert err.startswith("error:") and "rs_values: must be a nonempty list" in err

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_boolean_relay_count(self, tmp_path, capsys, command):
        data = symmetric_config() if command == "eval" else small_sweep_spec()
        data["n_relays"] = True
        code, err = self.run(tmp_path, capsys, command, data)
        assert code == 2
        assert err.startswith("error:") and "n_relays" in err

    def test_unhashable_policy_name(self, tmp_path, capsys):
        data = small_sweep_spec(engines=("analytic",))
        data["links"]["s_d"] = {"policy": ["fixed-db"], "mean_snr_db": 3.0}
        code, err = self.run(tmp_path, capsys, "sweep", data)
        assert code == 2
        assert err.startswith("error:") and "links.s_d.policy" in err

    def test_boolean_trial_count(self):
        data = small_sweep_spec()
        data["mc"]["trials"] = True
        with pytest.raises(SpecValidationError, match="mc.trials"):
            parse_sweep_spec(data)


class TestOverflowingInput:
    """Inputs whose rates overflow a float exit 2 or get a row status."""

    def test_eval_huge_threshold(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", symmetric_config())
        code = main(["eval", "--config", cfg, "--scheme", "max-e", "--rs", "600"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "too large" in err

    def test_eval_very_low_mean_snr(self, tmp_path, capsys):
        data = symmetric_config()
        data["links"]["s_d"] = {"mean_snr_db": -4000.0}
        cfg = write_json(tmp_path / "cfg.json", data)
        code = main(["eval", "--config", cfg, "--scheme", "max-e", "--rs", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "too low" in err

    def test_sweep_huge_threshold_rows(self, tmp_path, capsys):
        data = small_sweep_spec(engines=("analytic", "mc"), trials=2000)
        data["rs_values"] = [0.0, 600.0]
        spec = write_json(tmp_path / "s.json", data)
        out = tmp_path / "o.csv"
        assert main(["sweep", "--spec", spec, "--out", str(out)]) == 1
        rows = list(csv.reader(io.StringIO(out.read_text())))[1:]
        assert {r[8] for r in rows if r[2] == "600"} == {"invalid-input"}
        assert {r[8] for r in rows if r[2] == "0"} == {"ok"}

    def test_sweep_very_low_axis_rows(self, tmp_path, capsys):
        data = small_sweep_spec(engines=("analytic", "mc"), trials=2000)
        data["snr_db"] = {"start": -4000.0, "stop": 0.0, "step": 4000.0}
        spec = write_json(tmp_path / "s.json", data)
        out = tmp_path / "o.csv"
        assert main(["sweep", "--spec", spec, "--out", str(out)]) == 1
        rows = list(csv.reader(io.StringIO(out.read_text())))[1:]
        assert {r[8] for r in rows if r[0] == "-4000"} == {"invalid-input"}
        assert {r[8] for r in rows if r[0] == "0"} == {"ok"}


class TestBooleanNumbers:
    """JSON true/false are not numbers, although bool subclasses int."""

    @staticmethod
    def sweep_code(tmp_path, capsys, data):
        spec = write_json(tmp_path / "s.json", data)
        code = main(["sweep", "--spec", spec, "--out", str(tmp_path / "o.csv")])
        return code, capsys.readouterr().err

    def test_snr_axis(self, tmp_path, capsys):
        data = small_sweep_spec(engines=("analytic",))
        data["snr_db"] = {"start": True, "stop": True}
        data["rs_values"] = [True]
        code, err = self.sweep_code(tmp_path, capsys, data)
        assert code == 2
        assert "snr_db.start" in err and "snr_db.stop" in err and "rs_values" in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("key", ["start", "stop", "step"])
    def test_each_snr_bound(self, tmp_path, capsys, key):
        data = small_sweep_spec(engines=("analytic",))
        data["snr_db"][key] = True
        code, err = self.sweep_code(tmp_path, capsys, data)
        assert code == 2 and f"snr_db.{key}" in err

    def test_rs_value(self, tmp_path, capsys):
        data = small_sweep_spec(engines=("analytic",))
        data["rs_values"] = [0.0, False]
        code, err = self.sweep_code(tmp_path, capsys, data)
        assert code == 2 and "rs_values" in err

    def test_sweep_link_value(self, tmp_path, capsys):
        data = small_sweep_spec(engines=("analytic",))
        data["links"]["relays_e"] = {"policy": "fixed-db", "mean_snr_db": [3.0, True]}
        code, err = self.sweep_code(tmp_path, capsys, data)
        assert code == 2 and "links.relays_e.mean_snr_db" in err

    @pytest.mark.parametrize("key", ["rel_tol", "abs_tol"])
    def test_quad_tolerance(self, tmp_path, capsys, key):
        data = small_sweep_spec(engines=("quad",))
        data["quad"] = {key: True}
        code, err = self.sweep_code(tmp_path, capsys, data)
        assert code == 2 and f"quad.{key}" in err

    @pytest.mark.parametrize("key", ["rate", "mean_snr_db"])
    def test_config_link_value(self, tmp_path, capsys, key):
        data = symmetric_config()
        data["links"]["s_d"] = {key: True}
        cfg = write_json(tmp_path / "cfg.json", data)
        code = main(["eval", "--config", cfg, "--scheme", "max-e", "--rs", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and f"links.s_d.{key}" in err

    def test_slope_bound(self, tmp_path, capsys):
        data = small_sweep_spec(engines=("analytic",))
        data["slope"] = {"snr_hi_db": True}
        spec = write_json(tmp_path / "s.json", data)
        assert main(["slope", "--spec", spec]) == 2
        assert "slope.snr_hi_db" in capsys.readouterr().err


class TestSlopeCommand:
    def test_fig2_like_spec(self, tmp_path, capsys):
        data = {
            "n_relays": [1, 2, 4],
            "rs_values": [0.0],
            "schemes": ["max-e"],
            "engines": ["analytic"],
            "snr_db": {"start": 30.0, "stop": 40.0, "step": 10.0},
            "links": {
                "s_relays": {"policy": "equal-split"},
                "relays_d": {"policy": "equal-split"},
                "s_d": {"policy": "fixed-db", "mean_snr_db": 3.0},
                "relays_e": {"policy": "fixed-db", "mean_snr_db": 3.0},
                "s_e": {"policy": "fixed-db", "mean_snr_db": 0.0},
            },
            "slope": {"snr_lo_db": 30.0, "snr_hi_db": 40.0},
        }
        spec = write_json(tmp_path / "s.json", data)
        assert main(["slope", "--spec", spec]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "scheme,n_relays,rs,slope"
        slopes = [float(line.split(",")[3]) for line in lines[1:]]
        assert len(slopes) == 3
        assert max(slopes) - min(slopes) < 0.1


    @pytest.mark.parametrize("counts", [[], [2, 2]])
    def test_empty_or_repeated_relay_counts_exit_2(self, tmp_path, capsys, counts):
        data = small_sweep_spec(engines=("analytic",))
        data["n_relays"] = counts
        spec = write_json(tmp_path / "s.json", data)
        assert main(["slope", "--spec", spec]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: n_relays")


class TestReproduceCommand:
    def test_fig4_outputs_and_report(self, tmp_path, capsys):
        code = main(["reproduce", "--figure", "fig4", "--out-dir",
                     str(tmp_path), "--skip-mc"])
        assert code == 0
        data = (tmp_path / "fig4.csv").read_text().splitlines()
        assert data[0].startswith("figure,variant,n_relays,snr_db,scheme,rs,"
                                  "sop_analytic,sop_mc")
        assert len(data) == 1 + 2 * 9 * 4  # variants x grid x schemes
        report = (tmp_path / "fig4_report.txt").read_text()
        assert "qualitative checks" in report and "slope" in report
        assert "PASS" in report and "FAIL" not in report

    def test_fig2_report_passes(self, tmp_path):
        code = main(["reproduce", "--figure", "fig2", "--out-dir",
                     str(tmp_path), "--skip-mc"])
        assert code == 0
        report = (tmp_path / "fig2_report.txt").read_text()
        assert "FAIL" not in report

    def test_failed_analytic_cells_are_named_not_raised(self, tmp_path, capsys,
                                                         monkeypatch):
        max_mrc = analytic._DISPATCH[Scheme.MAX_MRC]

        def failing_at_n4(config, target):
            if config.n_relays == 4:
                raise ConvergenceError("forced", estimate=0.0, error_bound=1.0)
            return max_mrc(config, target)

        monkeypatch.setitem(analytic._DISPATCH, Scheme.MAX_MRC, failing_at_n4)
        code = main(["reproduce", "--figure", "fig4", "--out-dir",
                     str(tmp_path), "--skip-mc"])
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err
        with open(tmp_path / "fig4.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        failed = {(r["variant"], r["scheme"], r["status"])
                  for r in rows if r["status"] != "ok"}
        assert failed == {("n4", "max-mrc", "convergence-failure")}
        report = (tmp_path / "fig4_report.txt").read_text().splitlines()
        cells = "missing cells: n4 max-mrc rs=1 at " + ", ".join(
            f"{snr} dB" for snr in range(0, 45, 5))
        fails = [line for line in report if line.startswith("FAIL:")]
        assert fails == [
            f"FAIL: n4 rs=1 mrc-mrc >= max-mrc at every grid point; {cells}",
            f"FAIL: n4 rs=1 min-e >= max-mrc crosses once and holds nowhere; "
            f"{cells}"]
        assert "  fig4 n4 max-mrc rs=1: slope undefined (missing cells)" in report

    @pytest.mark.parametrize("flag, value, field", [
        ("--trials", "0", "mc.trials"), ("--seed", "-1", "mc.seed"),
        ("--seed", str(2 ** 64), "mc.seed")])
    def test_bad_mc_settings_exit_2(self, tmp_path, capsys, flag, value, field):
        code = main(["reproduce", "--figure", "fig2", "--out-dir",
                     str(tmp_path), flag, value])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and field in err
        assert not (tmp_path / "fig2.csv").exists()

    def test_mc_columns_written(self, tmp_path):
        code = main(["reproduce", "--figure", "fig4", "--out-dir",
                     str(tmp_path), "--trials", "5000", "--seed", "3",
                     "--workers", "4"])
        assert code == 0
        rows = list(csv.reader(io.StringIO((tmp_path / "fig4.csv").read_text())))
        idx = rows[0].index("sop_mc")
        assert all(r[idx] != "" for r in rows[1:])
