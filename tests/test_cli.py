import csv
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from fbmimo.bounds import ScalingPolicy
from fbmimo.cli import (CSV_COLUMNS, FIGURE_IDS, build_spec, curves_to_rows, main,
                        parse_bit_range, parse_snr_grid)
from fbmimo.errors import ConfigError, SingularMatrixError
from fbmimo.quantizer import expected_error, expected_neg_log2_error
from fbmimo.simulate import FAST_DECOMPOSITION, SimConfig, mu_throughput


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestParseSnrGrid:
    def test_inclusive_endpoints(self):
        assert parse_snr_grid("0:5:30") == (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
        assert parse_snr_grid("10:2.5:15") == (10.0, 12.5, 15.0)
        assert parse_snr_grid("7:1:7") == (7.0,)

    def test_malformed(self):
        for bad in ("0:5", "0:5:10:15", "a:b:c", "0:-5:10", "0:0:10", "10:5:0"):
            with pytest.raises(ConfigError):
                parse_snr_grid(bad)

    def test_decimal_step_without_float_drift(self):
        assert parse_snr_grid("0:0.1:1") == (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8,
                                             0.9, 1.0)
        assert len(parse_snr_grid("0:3:10")) == 4
        assert len(parse_snr_grid("-10:2.5:5")) == 7


class TestParseBitRange:
    def test_scalar_and_range(self):
        assert parse_bit_range(10) == [10]
        assert parse_bit_range("10") == [10]
        assert parse_bit_range("5..8") == [5, 6, 7, 8]
        assert parse_bit_range("3..3") == [3]

    def test_malformed(self):
        for bad in ("8..5", "a..b", "3.5", "five"):
            with pytest.raises(ConfigError):
                parse_bit_range(bad)


class TestConfigMerging:
    def test_parse_config_valid(self):
        spec = build_spec(json.loads('{"command": "sweep", "M": 3, "csit": "perfect", '
                                     '"trials": 50}'), {})
        assert (spec.command, spec.M, spec.csit, spec.trials) == ("sweep", 3, "perfect", 50)

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="antennas"):
            build_spec(json.loads('{"command": "sweep", "antennas": 4}'), {})

    def test_non_object_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        for text in (json.dumps(["sweep"]), "{not json"):
            p.write_text(text)
            assert main(["sweep", "--config", str(p)]) == 2

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            build_spec(json.loads('{"command": "sweep", "trials": 0}'), {})
        with pytest.raises(ConfigError):
            build_spec(json.loads('{"M": 4}'), {})  # no command
        with pytest.raises(ConfigError):
            build_spec(json.loads('{"command": "sweep", "path": "magic"}'), {})
        with pytest.raises(ConfigError):
            build_spec(json.loads('{"command": "sweep", "snr": "10:5:0"}'), {})

    def test_config_entry_means_the_flag(self):
        # "k": v in a file is --k v: parsed from str(v) by the flag's own type
        flags = {"command": "table", "table_kind": "quantizer", "M": 4, "B": "3"}
        assert build_spec({"command": "table", "table_kind": "quantizer", "M": "4", "B": 3},
                          {}) == build_spec({}, flags)
        assert build_spec({"command": "table", "M": None, "B": 3},
                          {"table_kind": "quantizer"}).M == 4  # null means unset

    @pytest.mark.parametrize("bad", [{"M": "x"}, {"M": 4.5}, {"b_gap": "x"}, {"snr": 5},
                                     {"trials": True}, {"engine": "magic"}])
    def test_ill_typed_value_is_exit_2(self, bad, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"command": "sweep", "csit": "perfect", "M": 2, "trials": 2,
                                 "snr": "0:5:0", "out": "-", **bad}))
        assert main(["sweep", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err

    def test_field_the_command_does_not_read_is_named(self, tmp_path, capsys):
        p = tmp_path / "fig.json"
        p.write_text(json.dumps({"command": "figure", "figure_id": "fixed5x5", "M": 8}))
        assert main(["figure", "fixed5x5", "--config", str(p), "--trials", "2"]) == 2
        assert "'M'" in capsys.readouterr().err

    def test_flags_override_file(self):
        spec = build_spec({"command": "sweep", "trials": 100, "seed": 9},
                          {"trials": 200, "seed": None})
        assert spec.trials == 200
        assert spec.seed == 9

    def test_figure_id_pairing(self):
        with pytest.raises(ConfigError):
            build_spec({"command": "figure"}, {})
        with pytest.raises(ConfigError):
            build_spec({"command": "figure", "figure_id": "nope"}, {})
        with pytest.raises(ConfigError):
            build_spec({"command": "sweep", "figure_id": "mux4x4"}, {})
        for fid in FIGURE_IDS:
            assert build_spec({"command": "figure", "figure_id": fid}, {}).figure_id == fid

    def test_table_and_validate_targets(self):
        with pytest.raises(ConfigError):
            build_spec({"command": "table", "table_kind": "mystery"}, {})
        with pytest.raises(ConfigError):
            build_spec({"command": "validate", "validate_target": "everything"}, {})


RUN_FLAGS = {"--config", "--trials", "--seed", "--out", "--snr", "--path"}


class TestCommandFlags:
    @pytest.mark.parametrize("argv, flags", [
        ("figure fixed5x5", RUN_FLAGS),
        ("sweep", RUN_FLAGS | {"--engine", "--M", "--K", "--csit", "--precoder", "--scaling",
                               "--B", "--b-gap", "--alpha"}),
        ("table quantizer", {"--config", "--out", "--M", "--B"}),
        ("validate bounds", {"--config", "--trials", "--seed"}),
    ])
    def test_help_lists_exactly_the_options_read(self, argv, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv.split() + ["--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"(--[A-Za-z][\w-]*)", capsys.readouterr().out)) - {"--help"}
        assert listed == flags

    @pytest.mark.parametrize("argv", [["table", "quantizer", "--M", "4", "--B", "3",
                                       "--trials", "5"],
                                      ["validate", "bounds", "--trials", "5", "--path", "brute"]])
    def test_flag_the_command_ignores_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestTableCommand:
    def test_values_match_library(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["table", "quantizer", "--M", "4", "--B", "2..4",
                     "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert header == ["B", "expected_error", "upper_bound", "optimal_lower_mean",
                          "neg_log2_mean"]
        assert [r[0] for r in rows] == ["2", "3", "4"]
        for r in rows:
            b = int(r[0])
            assert float(r[1]) == expected_error(4, b)
            assert float(r[4]) == expected_neg_log2_error(4, b)

    def test_stdout_target(self, capsys):
        assert main(["table", "quantizer", "--M", "4", "--B", "3", "--out", "-"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("B,expected_error")
        assert len(lines) == 2


class TestSweepCommand:
    def test_csv_matches_library_run(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--M", "2", "--csit", "quantized", "--scaling", "fixed",
                     "--B", "4", "--trials", "64", "--snr", "0:10:10", "--path", "fast",
                     "--out", str(out)])
        assert code == 0
        header, rows = _read_csv(out)
        assert header == CSV_COLUMNS
        cfg = SimConfig(M=2, K=2, snr_grid_db=(0.0, 10.0), policy=ScalingPolicy.fixed(4),
                        path=FAST_DECOMPOSITION, trials=64, seed=42)
        curve = mu_throughput(cfg)
        assert len(rows) == 2
        for j, r in enumerate(rows):
            assert r[0] == "sweep"
            assert r[1] == "zf_quantized"
            assert (r[2], r[3]) == ("2", "2")
            assert float(r[7]) == curve.snr_db[j]
            assert float(r[8]) == curve.mean_bps_hz[j]
            assert float(r[9]) == curve.std_err[j]
            assert r[10] == "64"
            assert r[11] == "42"

    def test_baseline_engines(self, tmp_path):
        out = tmp_path / "rbf.csv"
        code = main(["sweep", "--engine", "random_bf", "--M", "2", "--K", "4",
                     "--trials", "50", "--snr", "5:5:10", "--out", str(out)])
        assert code == 0
        _, rows = _read_csv(out)
        assert [r[1] for r in rows] == ["random_bf", "random_bf"]
        assert all(float(r[8]) > 0.0 for r in rows)

    @pytest.mark.parametrize("engine, flags", [
        ("tdma", ["--csit", "perfect"]), ("tdma", ["--scaling", "fixed", "--B", "10"]),
        ("tdma", ["--b-gap", "2"]), ("tdma", ["--alpha", "1"]), ("tdma", ["--precoder", "RZF"]),
        ("tdma", ["--path", "brute"]), ("random_bf", ["--csit", "quantized"]),
        ("random_bf", ["--precoder", "ZF"]), ("random_bf", ["--B", "4"]),
        ("miso", ["--precoder", "RZF", "--B", "3"]),
    ])
    def test_engine_rejects_feedback_flags_it_ignores(self, engine, flags, tmp_path, capsys):
        base = ["sweep", "--engine", engine, "--M", "2", "--K", "2", "--trials", "3",
                "--snr", "0:10:0", "--out", str(tmp_path / "x.csv")]
        assert main(base + flags) == 2
        assert f"engine {engine!r} does not read {flags[0]}" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_engine_rejects_ignored_config_field(self, tmp_path):
        p = tmp_path / "tdma.json"
        p.write_text(json.dumps({"command": "sweep", "engine": "tdma", "M": 2, "csit": "perfect"}))
        assert main(["sweep", "--config", str(p), "--trials", "3", "--snr", "0:10:0",
                     "--out", "-"]) == 2

    @pytest.mark.parametrize("engine", ["tdma", "random_bf"])
    def test_baseline_defaults_do_not_trip_the_check(self, engine, capsys):
        assert main(["sweep", "--engine", engine, "--M", "2", "--K", "2", "--trials", "3",
                     "--snr", "0:10:0", "--out", "-"]) == 0

    @pytest.mark.parametrize("flags", [["--scaling", "approx3", "--b-gap", "nan"],
                                       ["--scaling", "approx3", "--b-gap", "inf"],
                                       ["--scaling", "exact", "--b-gap=-inf"],
                                       ["--scaling", "alpha", "--alpha", "nan"],
                                       ["--scaling", "alpha", "--alpha", "inf"]])
    def test_non_finite_policy_parameter_is_exit_2(self, flags, capsys):
        assert main(["sweep", "--M", "2", "--trials", "3", "--snr", "0:10:10",
                     "--out", "-", *flags]) == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err and "finite" in captured.err
        assert captured.out == ""

    def test_missing_bits_is_config_error(self):
        assert main(["sweep", "--M", "2", "--trials", "10", "--snr", "0:5:5"]) == 2

    def test_bit_range_rejected_for_sweep(self):
        assert main(["sweep", "--M", "2", "--scaling", "fixed", "--B", "2..4",
                     "--trials", "10", "--snr", "0:5:5"]) == 2


class TestFigureCommand:
    def test_miso_preset_schema_and_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["figure", "miso4x1", "--trials", "48", "--snr", "0:15:30"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        header, rows = _read_csv(a)
        assert header == CSV_COLUMNS
        labels = {r[1] for r in rows}
        assert labels == {"miso_csit_reference", "miso_nocsit_reference",
                          "miso_fb_approx_reference", "miso_fb_quantized"}
        assert len(rows) == 4 * 3
        for r in rows:
            assert r[0] == "miso4x1"
            if r[1] == "miso_csit_reference":
                assert r[6] == ""  # bits not applicable
                assert r[9] == "0.0"  # analytic curve carries no error bar
            if r[1] == "miso_fb_quantized":
                assert float(r[6]) == 3.0

    def test_analytic_rows_decrease_with_lost_csit(self, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["figure", "miso4x1", "--trials", "16", "--snr", "10:10:10",
                     "--out", str(out)]) == 0
        _, rows = _read_csv(out)
        by_label = {r[1]: float(r[8]) for r in rows}
        assert by_label["miso_csit_reference"] > by_label["miso_fb_approx_reference"]
        assert by_label["miso_csit_reference"] > by_label["miso_nocsit_reference"]

    def test_default_output_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["figure", "compare44", "--trials", "32", "--snr", "0:10:10"]) == 0
        assert (tmp_path / "compare44.csv").exists()


PRESET_LABELS = {
    "miso4x1": ["miso_csit_reference", "miso_nocsit_reference", "miso_fb_approx_reference",
                "miso_fb_quantized"],
    "fixed5x5": ["zf_perfect", "zf_quantized_B10", "zf_quantized_B15", "zf_quantized_B20"],
    "scaled5x5": ["zf_perfect", "zf_quantized_scaled", "sum_capacity_offset_reference"],
    "scaled6x6": ["zf_perfect", "zf_quantized_b2", "zf_quantized_b4"],
    "mux4x4": ["zf_perfect", "zf_quantized_alpha1.5", "zf_quantized_alpha3.9"],
    "reg5x5": ["zf_perfect", "rzf_perfect", "zf_quantized_scaled", "rzf_quantized_scaled"],
    "compare44": ["rzf_quantized_scaled", "tdma", "random_bf"],
    "compare44b": ["rzf_quantized_B5", "rzf_quantized_B10", "rzf_quantized_B15",
                   "rzf_quantized_B20", "tdma", "random_bf"],
    "compare88": ["rzf_quantized_scaled", "rzf_quantized_B20", "tdma", "random_bf"],
}


@pytest.mark.parametrize("fid", FIGURE_IDS)
def test_preset_curves_and_rerun(fid, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["figure", fid, "--trials", "8", "--snr", "0:10:10"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    header, rows = _read_csv(a)
    assert header == CSV_COLUMNS
    assert [r[1] for r in rows] == [label for label in PRESET_LABELS[fid] for _ in range(2)]
    assert all(r[0] == fid for r in rows)


class TestValidateCommand:
    def test_prints_one_line_per_check(self, capsys):
        code = main(["validate", "bounds", "--trials", "150", "--seed", "42"])
        out = capsys.readouterr().out.strip().splitlines()
        names = ["rate_gap_dominance", "fixed_bits_ceiling", "scaled_bits_gap",
                 "multiplexing_gain"]
        assert len(out) == 4
        results = {}
        for line, name in zip(out, names):
            m = re.match(rf"^{name}: (PASS|FAIL) \(.*\)$", line)
            assert m, line
            results[name] = m.group(1)
        assert code == (0 if all(v == "PASS" for v in results.values()) else 1)

    def test_multiplexing_gain_passes_at_seed_7(self, capsys):
        assert main(["validate", "bounds", "--trials", "100", "--seed", "7"]) == 0
        assert "multiplexing_gain: PASS" in capsys.readouterr().out


class TestExitCodes:
    def test_config_file_missing(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "nope.json")]) == 3

    def test_config_file_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{broken")
        assert main(["sweep", "--config", str(p)]) == 2
        p.write_bytes(b"\xff\xfe{")  # not UTF-8
        assert main(["sweep", "--config", str(p)]) == 2

    def test_config_file_unknown_key(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"command": "sweep", "antennas": 4}))
        assert main(["sweep", "--config", str(p)]) == 2

    def test_unwritable_output(self, tmp_path):
        assert main(["table", "quantizer", "--M", "4", "--B", "3",
                     "--out", str(tmp_path / "missing" / "t.csv")]) == 3

    def test_resample_budget_exhausted(self, monkeypatch, capsys):
        def always_singular(rows):
            raise SingularMatrixError("forced")

        monkeypatch.setattr("fbmimo.simulate.zf_beamformers", always_singular)
        code = main(["sweep", "--engine", "mu", "--M", "2", "--csit", "perfect",
                     "--snr", "0:5:0", "--trials", "1", "--out", "-"])
        err = capsys.readouterr().err
        assert code == 4
        assert "resamples" in err and "Traceback" not in err

    def test_config_file_supplies_fields(self, tmp_path):
        p = tmp_path / "ok.json"
        p.write_text(json.dumps({"command": "table", "table_kind": "quantizer",
                                 "M": 4, "B": "2..3"}))
        out = tmp_path / "t.csv"
        assert main(["table", "quantizer", "--config", str(p), "--out", str(out)]) == 0
        _, rows = _read_csv(out)
        assert [r[0] for r in rows] == ["2", "3"]


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fbmimo.cli", "table", "quantizer",
             "--M", "3", "--B", "2", "--out", "-"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stdout.startswith("B,expected_error")


    def test_import_leaves_scipy_unloaded(self):
        # scipy is imported only by the functions that need it
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, fbmimo.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestCurvesToRows:
    def test_nan_bits_render_empty(self):
        from fbmimo.bounds import ThroughputCurve
        c = ThroughputCurve(label="x", snr_db=np.array([0.0]), mean_bps_hz=np.array([1.5]),
                            std_err=np.array([0.25]), trials=np.array([10]), M=2, K=2,
                            policy="p", precoder="ZF", seed=1)
        row = curves_to_rows("exp", [c])[0]
        assert row == ["exp", "x", "2", "2", "p", "ZF", "", "0.0", "1.5", "0.25",
                       "10", "1", "0"]
