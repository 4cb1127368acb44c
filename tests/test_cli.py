import csv
import json
import os
import re
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from fbmimo import simulate
from fbmimo.bounds import ScalingPolicy
from fbmimo.cli import (CSV_COLUMNS, FIGURE_IDS, build_spec, curves_to_rows, main,
                        parse_bit_range, parse_snr_grid)
from fbmimo.errors import ConfigError, DomainError, SingularMatrixError
from fbmimo.quantizer import expected_error, expected_neg_log2_error
from fbmimo.shares import run_in_shares
from fbmimo.simulate import BRUTE_FORCE, FAST_DECOMPOSITION, SimConfig, mu_throughput
from helpers import no_child_left


def _blas_env(**extra):
    """This process's environment without OPENBLAS_NUM_THREADS, which
    importing fbmimo set here, plus `extra`."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return {**env, **extra}


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

    def test_point_count_is_capped_before_the_grid_is_built(self):
        assert len(parse_snr_grid("0:0.01:999.99")) == 100_000
        for bad in ("0:0.01:1000", "0:1e-15:1", "-1e308:1e-300:0"):
            with pytest.raises(ConfigError, match="points"):
                parse_snr_grid(bad)

    def test_decimal_step_without_float_drift(self):
        assert parse_snr_grid("0:0.1:1") == (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8,
                                             0.9, 1.0)
        assert len(parse_snr_grid("0:3:10")) == 4
        assert len(parse_snr_grid("-10:2.5:5")) == 7

    @pytest.mark.parametrize("text", ["0:1e-13:1e-12", "-5e-13:1e-13:5e-13",
                                      "1000:1e-14:1000.0000000001"])
    def test_step_lost_to_rounding_is_rejected(self, text, capsys):
        # the grid is promised strictly increasing; a step the 12-decimal
        # rounding (or the float sum) collapses would repeat points
        with pytest.raises(ConfigError, match="distinct") as err:
            parse_snr_grid(text)
        assert repr(text) in str(err.value)
        assert main(["sweep", "--csit", "perfect", "--snr", text, "--trials", "2"]) == 2
        assert repr(text) in capsys.readouterr().err
        assert parse_snr_grid("0:1e-12:2e-12") == (0.0, 1e-12, 2e-12)


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

    def test_range_is_capped_before_it_is_built(self):
        assert len(parse_bit_range("0..99999")) == 100_000
        with pytest.raises(ConfigError, match="'0..100000'"):  # 100,001 values
            parse_bit_range("0..100000")


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

    @pytest.mark.parametrize("flags, message", [
        (["--scaling", "fixed", "--B", "4", "--b-gap", "3", "--alpha", "7"],
         "--scaling fixed does not read --b-gap, --alpha"),
        (["--csit", "perfect", "--B", "4", "--scaling", "alpha"],
         "--csit perfect does not read --scaling, --B"),
        (["--csit", "perfect", "--alpha", "1"], "--csit perfect does not read --alpha"),
        (["--B", "4", "--alpha", "1"], "--scaling fixed does not read --alpha"),
        (["--scaling", "exact", "--b-gap", "2", "--B", "4"], "--scaling exact does not read --B"),
        (["--scaling", "approx3", "--b-gap", "2", "--alpha", "1"],
         "--scaling approx3 does not read --alpha"),
        (["--scaling", "alpha", "--alpha", "1", "--b-gap", "2"],
         "--scaling alpha does not read --b-gap"),
        (["--engine", "miso", "--K", "1", "--csit", "perfect", "--B", "3"],
         "--csit perfect does not read --B"),
        (["--csit", "perfect", "--path", "brute"], "--csit perfect does not read --path"),
        (["--csit", "perfect", "--path", "fast", "--B", "4"],
         "--csit perfect does not read --B, --path"),
    ])
    def test_policy_rejects_parameters_it_ignores(self, flags, message, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["sweep", "--M", "2", "--trials", "3", "--snr", "0:10:0",
                     "--out", str(out), *flags]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_policy_rejects_ignored_config_field(self, tmp_path, capsys):
        p = tmp_path / "sweep.json"
        p.write_text(json.dumps({"command": "sweep", "M": 2, "scaling": "approx3", "b_gap": 2,
                                 "B": 6}))
        assert main(["sweep", "--config", str(p), "--trials", "3", "--snr", "0:10:0",
                     "--out", "-"]) == 2
        assert "--scaling approx3 does not read --B" in capsys.readouterr().err

    def test_perfect_csit_rejects_path_config_field(self, tmp_path, capsys):
        p = tmp_path / "sweep.json"
        p.write_text(json.dumps({"command": "sweep", "M": 2, "csit": "perfect",
                                 "path": "brute_force"}))
        assert main(["sweep", "--config", str(p), "--trials", "3", "--snr", "0:10:0",
                     "--out", "-"]) == 2
        assert "--csit perfect does not read --path" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--csit", "perfect"],
                                       ["--csit", "perfect", "--precoder", "RZF"],
                                       ["--scaling", "fixed", "--B", "4"], ["--B", "4"],
                                       ["--scaling", "exact", "--b-gap", "2"],
                                       ["--scaling", "approx3", "--b-gap", "2"],
                                       ["--scaling", "alpha", "--alpha", "1"],
                                       ["--csit", "quantized", "--B", "4", "--path", "brute"]])
    def test_policy_reads_its_own_parameter(self, flags, capsys):
        assert main(["sweep", "--M", "2", "--trials", "3", "--snr", "0:10:0",
                     "--out", "-", *flags]) == 0
        assert capsys.readouterr().out.count("\n") == 2

    def test_missing_bits_is_config_error(self):
        assert main(["sweep", "--M", "2", "--trials", "10", "--snr", "0:5:5"]) == 2

    @pytest.mark.parametrize("snr", [["--snr", "-5:5:5"], ["--snr=-5:5:5"],
                                     ["--sn", "-5:5:5"], ["--sn=-5:5:5"]])
    def test_negative_snr_grid(self, snr, capsys):
        # the spaced forms too, after the abbreviation --sn as well:
        # argparse alone reads -5:5:5 as a flag
        assert main(["sweep", "--M", "2", "--B", "4", "--trials", "8", *snr,
                     "--out", "-"]) == 0
        _, *rows = capsys.readouterr().out.splitlines()
        assert [float(r.split(",")[7]) for r in rows] == [-5.0, 0.0, 5.0]

    def test_negative_snr_grid_in_a_config_file(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"command": "sweep", "M": 2, "B": 4, "snr": "-5:5:5"}))
        assert main(["sweep", "--config", str(p), "--trials", "8", "--out", "-"]) == 0
        _, *rows = capsys.readouterr().out.splitlines()
        assert [float(r.split(",")[7]) for r in rows] == [-5.0, 0.0, 5.0]

    def test_bad_negative_snr_grid_is_exit_2(self, capsys):
        assert main(["sweep", "--M", "2", "--trials", "8", "--snr", "-5:5:-10"]) == 2
        assert "snr needs step > 0 and hi >= lo" in capsys.readouterr().err

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

    @pytest.mark.parametrize("snr", [["--snr", "-5:5:5"], ["--snr=-5:5:5"],
                                     ["--sn", "-5:5:5"]])
    def test_negative_snr_grid(self, snr, capsys):
        assert main(["figure", "compare44", "--trials", "8", *snr, "--out", "-"]) == 0
        _, *rows = capsys.readouterr().out.splitlines()
        assert [float(r.split(",")[7]) for r in rows] == [-5.0, 0.0, 5.0] * 3

    def test_abbreviated_snr_flag(self, capsys):
        assert main(["figure", "compare44", "--trials", "8", "--sn", "0:5:5", "--out", "-"]) == 0
        _, *rows = capsys.readouterr().out.splitlines()
        assert [float(r.split(",")[7]) for r in rows] == [0.0, 5.0] * 3

    @pytest.mark.parametrize("snr", [["--s", "-5:5:5"], ["--s", "0:5:5"]])
    def test_ambiguous_snr_abbreviation_is_a_usage_error(self, snr, capsys):
        # --s also starts --seed, so argparse rejects it whatever follows
        with pytest.raises(SystemExit) as exc:
            main(["figure", "compare44", "--trials", "8", *snr, "--out", "-"])
        assert exc.value.code == 2
        assert "ambiguous option: --s" in capsys.readouterr().err

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


class _TwoArgError(Exception):
    """Pickles, but cannot be unpickled: its args hold one message, not a and b."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


class TestFigureShares:
    """A figure's curves run in one process per share (fbmimo.shares)."""

    @staticmethod
    def _outputs(monkeypatch, tmp_path, argv, counts=(1, 2, 3)):
        outputs = []
        for count in counts:
            monkeypatch.setattr(simulate, "_cpus", lambda: count)
            out = tmp_path / f"{count}.csv"
            assert main([*argv, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert no_child_left()
        return outputs

    @pytest.mark.parametrize("fid", FIGURE_IDS)
    def test_share_count_does_not_change_the_csv(self, fid, monkeypatch, tmp_path):
        serial, *shared = self._outputs(monkeypatch, tmp_path, ["figure", fid, "--trials", "40"])
        assert all(output == serial for output in shared)

    def test_brute_shares_inside_the_figure_shares(self, monkeypatch, tmp_path):
        monkeypatch.setattr(simulate, "_SHARE_MIN_ENTRIES", 0)
        serial, *shared = self._outputs(monkeypatch, tmp_path, [
            "figure", "compare44", "--path", "brute", "--snr", "0:5:10", "--trials", "20"])
        assert all(output == serial for output in shared)

    @pytest.mark.parametrize("count, argv", [
        *(pytest.param(count, ["figure", "compare44"], id=str(count)) for count in (1, 2, 3)),
        *(pytest.param(count, ["sweep", "--M", "4", "--B", "10", "--path", "brute",
                               "--snr", "0:10:10"], id=f"brute-sweep-{count}")
          for count in (1, 2, 3))])
    def test_stdout_written_once(self, count, argv):
        # text still buffered in the parent at the fork reaches stdout once
        argv = [*argv, "--trials", "8", "--out", "-"]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from fbmimo import cli, simulate; "
             f"simulate._cpus = lambda: {count}; sys.stdout.write('before\\n'); "
             f"sys.exit(cli.main({argv!r}))"],
            capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        csv_only = subprocess.run([sys.executable, "-m", "fbmimo.cli", *argv],
                                  capture_output=True, text=True, timeout=120, env=env)
        assert proc.stdout == "before\n" + csv_only.stdout and proc.stderr == ""

    @pytest.mark.parametrize("fid, count, forks", [("miso4x1", 2, 0), ("compare88", 1, 0),
                                                   ("scaled5x5", 1, 0), ("compare88", 2, 1),
                                                   ("compare88", 3, 2)])
    def test_forks_only_for_two_simulated_curves_and_cpus(self, fid, count, forks, monkeypatch):
        fork, calls = os.fork, []

        def spy():
            calls.append(None)
            return fork()

        monkeypatch.setattr(simulate, "_cpus", lambda: count)
        monkeypatch.setattr(os, "fork", spy)
        assert main(["figure", fid, "--trials", "2", "--snr", "0:10:10", "--out", "-"]) == 0
        assert len(calls) == forks and no_child_left()

    def test_singular_curve_in_a_forked_share_is_exit_4(self, monkeypatch, capsys):
        # zf_beamformers is singular everywhere serially, and only off the
        # calling process with two shares; the stderr line is the same
        argv = ["figure", "fixed5x5", "--snr", "0:5:0", "--trials", "1", "--out", "-"]
        parent = os.getpid()

        def singular(*args, **kwargs):
            if os.getpid() != parent or simulate._cpus() == 1:
                raise SingularMatrixError("forced")
            return zf_beamformers(*args, **kwargs)

        zf_beamformers = simulate.zf_beamformers
        monkeypatch.setattr(simulate, "zf_beamformers", singular)
        lines = []
        for count in (1, 2):
            monkeypatch.setattr(simulate, "_cpus", lambda: count)
            assert main(argv) == 4
            lines.append(capsys.readouterr().err)
        assert lines[0] == lines[1] == ("simulation error: exceeded 1000 singular-channel "
                                        "resamples in one trial\n")
        assert no_child_left()

    @pytest.mark.parametrize("count", [1, 2, 3])
    @pytest.mark.parametrize("fid, failing", [
        ("compare88", ("tdma", "random_bf")), ("compare88", ("rzf_quantized_B20", "tdma")),
        ("fixed5x5", ("zf_perfect", "zf_quantized_B15"))])
    def test_lowest_failing_curve_is_reported(self, fid, failing, count, monkeypatch, capsys):
        # the first of `failing` in preset order, as a serial run reports
        def failing_engine(name):
            engine = getattr(simulate, name)

            def run(cfg, label=None):
                curve = engine(cfg, label=label) if label else engine(cfg)
                if curve.label in failing:
                    raise ConfigError(curve.label)
                return curve
            return run

        for name in ("mu_throughput", "tdma_throughput", "random_bf_throughput"):
            monkeypatch.setattr(simulate, name, failing_engine(name))
        monkeypatch.setattr(simulate, "_cpus", lambda: count)
        assert main(["figure", fid, "--trials", "2", "--snr", "0:10:10", "--out", "-"]) == 2
        assert capsys.readouterr().err == f"config error: {failing[0]}\n"
        assert no_child_left()

    @pytest.mark.parametrize("shares", [[[0, 2], [1, 3]], [[1, 3], [0, 2]], [[3], [2], [1, 0]]])
    def test_helper_raises_the_lowest_index(self, shares):
        def work(i):
            if i in (1, 2):
                raise DomainError(f"job {i}")
            return i * 10

        with pytest.raises(DomainError, match="job 1"):
            run_in_shares(work, shares)
        assert run_in_shares(lambda i: i * 10, shares) == [0, 10, 20, 30]
        assert no_child_left()

    def test_unpicklable_exception_is_named(self):
        class LocalError(Exception):  # a local class does not pickle
            pass

        def work(i):
            if i == 1:
                raise LocalError("boom")
            if i == 2:
                raise _TwoArgError("left", "right")
            return i

        with pytest.raises(RuntimeError, match="LocalError: boom"):
            run_in_shares(work, [[0], [1]])
        with pytest.raises(RuntimeError, match="_TwoArgError: left and right"):
            run_in_shares(work, [[0], [2]])
        assert no_child_left()

    def test_child_that_dies_is_an_error(self):
        with pytest.raises(ChildProcessError, match="exited with code 3"):
            run_in_shares(lambda i: os._exit(3) if i == 1 else i, [[0], [1]])
        assert no_child_left()

    def test_share_that_dies_is_exit_3(self, monkeypatch, capsys):
        # random_bf shares a forked process with rzf_quantized_B20 on 2 CPUs
        parent, draw = os.getpid(), simulate._random_bf_draw

        def dies_off_the_calling_process(*args):
            if os.getpid() != parent:
                os._exit(9)
            return draw(*args)

        monkeypatch.setattr(simulate, "_random_bf_draw", dies_off_the_calling_process)
        monkeypatch.setattr(simulate, "_cpus", lambda: 2)
        assert main(["figure", "compare88", "--trials", "2", "--snr", "0:10:10",
                     "--out", "-"]) == 3
        assert capsys.readouterr().err == "i/o error: a forked share exited with code 9\n"
        assert no_child_left()


class TestForkRule:
    """Only fbmimo.shares forks, and only while no other thread runs."""

    @pytest.mark.parametrize("argv, forks", [
        pytest.param(["sweep", "--M", "4", "--B", "10", "--path", "brute", "--snr", "10:10:10"],
                     1, id="brute-sweep"),
        # one figure share, and the search at 10 dB (B = 10) on the calling
        # process; the forked share's search forks in that child
        pytest.param(["figure", "compare44", "--path", "brute", "--snr", "0:5:10"], 2,
                     id="brute-figure"),
        pytest.param(["sweep", "--M", "4", "--B", "10", "--path", "fast", "--snr", "0:10:10"],
                     0, id="fast-sweep"),
        pytest.param(["figure", "miso4x1"], 0, id="miso4x1"),
        pytest.param(["figure", "compare88"], 1, id="compare88"),
    ])
    def test_forks_while_no_other_thread_runs(self, argv, forks, monkeypatch):
        fork, calls = os.fork, []

        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        def spy():
            assert threading.active_count() == 1
            calls.append(None)
            return fork()

        monkeypatch.setattr(simulate, "_cpus", lambda: 2)
        monkeypatch.setattr(threading, "Thread", no_thread)
        monkeypatch.setattr(os, "fork", spy)
        assert main([*argv, "--trials", "2", "--out", "-"]) == 0
        assert len(calls) == forks and no_child_left()

    def test_library_call_from_a_second_thread_does_not_fork(self, monkeypatch):
        fork, calls = os.fork, []

        def spy():
            calls.append(None)
            return fork()

        monkeypatch.setattr(simulate, "_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", spy)
        cfg = SimConfig(M=4, K=4, snr_grid_db=(0.0, 10.0), policy=ScalingPolicy.fixed(10),
                        path=BRUTE_FORCE, trials=8)
        want = mu_throughput(cfg)
        assert len(calls) == 2  # one search per point forks
        calls.clear()
        got = []
        thread = threading.Thread(target=lambda: got.append(mu_throughput(cfg)))
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive() and not calls and no_child_left()
        np.testing.assert_array_equal(got[0].mean_bps_hz, want.mean_bps_hz)
        np.testing.assert_array_equal(got[0].std_err, want.std_err)
        np.testing.assert_array_equal(got[0].resamples, want.resamples)


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

    # the first M * 2^B over quantizer.MAX_CODEBOOK_ENTRIES at each M; it is
    # rejected before any codebook is drawn
    @pytest.mark.parametrize("M, B", [(2, 24), (4, 23), (8, 22)])
    def test_brute_codebook_over_the_entry_cap_is_exit_2(self, M, B, capsys):
        code = main(["sweep", "--M", str(M), "--B", str(B), "--path", "brute",
                     "--snr", "0:10:10", "--trials", "2", "--out", "-"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error") and "M * 2^B" in err and "Traceback" not in err

    def test_over_cap_point_is_rejected_before_any_codebook_is_drawn(self, monkeypatch, capsys):
        # exact scaling asks for 0, 10, 20, 30 and 40 bits; at M=4 the cap
        # is B <= 22, so the 30 dB point is rejected before 0 dB is drawn
        def no_codebook(*args, **kwargs):
            raise AssertionError("a codebook was drawn")

        monkeypatch.setattr(simulate, "generate_codebook", no_codebook)
        code = main(["sweep", "--M", "4", "--scaling", "exact", "--b-gap", "2", "--path", "brute",
                     "--snr", "0:10:40", "--trials", "2", "--out", "-"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error") and "30.0 dB" in err

    def test_figure_rejects_a_later_curve_before_any_codebook_is_drawn(self, monkeypatch,
                                                                       capsys):
        # mux4x4's alpha = 3.9 curve asks for 25.9 bits at 20 dB, over the
        # brute cap; the alpha = 1.5 curve before it would draw codebooks
        def no_codebook(*args, **kwargs):
            raise AssertionError("a codebook was drawn")

        monkeypatch.setattr(simulate, "generate_codebook", no_codebook)
        code = main(["figure", "mux4x4", "--path", "brute", "--trials", "1", "--out", "-"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error") and "20.0 dB" in err

    def test_worker_thread_error_is_exit_2(self, monkeypatch, capsys):
        monkeypatch.setattr(simulate, "_SHARE_MIN_ENTRIES", 0)
        monkeypatch.setattr(simulate, "_cpus", lambda: 2)
        quantize, parent = simulate.quantize, os.getpid()

        def fails_off_the_calling_process(h, codebook):
            if os.getpid() != parent:
                raise DomainError("worker trial")
            return quantize(h, codebook)

        monkeypatch.setattr(simulate, "quantize", fails_off_the_calling_process)
        code = main(["sweep", "--M", "3", "--B", "4", "--path", "brute", "--snr", "0:10:10",
                     "--trials", "20", "--out", "-"])
        assert code == 2
        assert capsys.readouterr().err == "config error: worker trial\n"
        assert no_child_left()

    def test_config_file_supplies_fields(self, tmp_path):
        p = tmp_path / "ok.json"
        p.write_text(json.dumps({"command": "table", "table_kind": "quantizer",
                                 "M": 4, "B": "2..3"}))
        out = tmp_path / "t.csv"
        assert main(["table", "quantizer", "--config", str(p), "--out", str(out)]) == 0
        _, rows = _read_csv(out)
        assert [r[0] for r in rows] == ["2", "3"]


    # Grids the engine cannot evaluate: 10^(dB/10) overflows above about
    # 3082.5 dB, ends that are not finite, and more points than the cap.
    # scaled5x5's offset reference shifts 3077 dB up past the overflow, and
    # at 3080 dB miso's P ||h||^2 (1 - Z) overflows though P does not.  At
    # -2000 dB an RZF beam's norm underflows to 0, so the beam is not
    # finite; at B = 0 the polar control's SVD would then not converge.
    @pytest.mark.parametrize("argv", [
        ["sweep", "--csit", "perfect", "--snr=4000:10:4000"],
        ["figure", "miso4x1", "--snr=4000:10:4000"],
        ["sweep", "--csit", "perfect", "--snr=nan:1:nan"],
        ["sweep", "--csit", "perfect", "--snr=inf:1:inf"],
        ["sweep", "--csit", "perfect", "--snr=-inf:1:0"],
        ["sweep", "--csit", "perfect", "--snr=0:1e-15:1"],
        ["figure", "scaled5x5", "--snr=3077:1:3077"],
        ["figure", "miso4x1", "--snr=3000:40:3080"],
        ["sweep", "--precoder", "RZF", "--csit", "perfect", "--M", "8", "--snr=-2000:10:-2000"],
        ["sweep", "--precoder", "RZF", "--B", "0", "--M", "8", "--snr=-2000:10:-2000"]],
        ids=["overflow", "overflow_miso4x1", "nan", "inf", "minus_inf", "too_many_points",
             "overflow_scaled5x5_offset", "rate_overflow_miso4x1", "rzf_beam_underflow",
             "rzf_beam_underflow_polar"])
    def test_snr_grid_the_engine_cannot_evaluate_is_exit_2(self, argv, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*argv, "--trials", "2", "--out", "-"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1  # the one line
        assert "snr" in err.lower() and not caught


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fbmimo.cli", "table", "quantizer",
             "--M", "3", "--B", "2", "--out", "-"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stdout.startswith("B,expected_error")


    def test_import_leaves_scipy_unloaded(self):
        # scipy is a test-only dependency; the package never imports it
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, fbmimo.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_leaves_numpy_random_unloaded(self):
        # numpy 2 loads numpy.random lazily; RngStream registers its Philox
        # key with numpy.random only when the first stream is built.  The
        # figures and the brute path load their shares (fork and pipe) when
        # they first run, and nothing loads concurrent.futures.
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, fbmimo.cli; print([m for m in "
             "('numpy.random', 'concurrent.futures', 'fbmimo.shares') if m in sys.modules])"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task") or simulate._cpus() < 2,
                        reason="threads are counted in /proc; OpenBLAS starts none on 1 CPU")
    def test_import_starts_no_blas_worker(self):
        def threads(env):
            proc = subprocess.run(
                [sys.executable, "-c",
                 "import os, fbmimo; print(len(os.listdir('/proc/self/task')))"],
                capture_output=True, text=True, timeout=120, env=env)
            assert proc.returncode == 0, proc.stderr
            return int(proc.stdout)

        assert threads(_blas_env()) == 1
        assert threads(_blas_env(OPENBLAS_NUM_THREADS="2")) == 2  # an explicit value wins

    @pytest.mark.parametrize("argv", [
        ["sweep", "--M", "3", "--B", "4", "--path", "brute", "--snr", "0:10:10",
         "--trials", "20"],
        ["figure", "fixed5x5", "--trials", "2"],
        ["figure", "compare88", "--trials", "2"],
        ["figure", "miso4x1", "--trials", "2"],
    ])
    def test_zf_runs_leave_scipy_unloaded(self, argv):
        # the ZF inverse and its singularity test, the RZF and random-BF
        # controls' means and the miso references run on numpy alone
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from fbmimo.cli import main; "
             f"code = main({argv + ['--out', '-']!r}); "
             "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"


    def test_closed_form_commands_leave_scipy_unloaded(self):
        # table's and validate's closed forms, digamma included, and
        # miso4x1's analytic rows run on math and numpy alone
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from fbmimo.cli import main; codes = ["
             "main(['table', 'quantizer', '--M', '4', '--B', '0..20', '--out', '-']), "
             "main(['validate', 'bounds', '--trials', '5']), "
             "main(['figure', 'miso4x1', '--trials', '2', '--out', '-'])]; "
             "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0, 0] []"


_BRUTE_CODEBOOK = ["sweep", "--engine", "mu", "--M", "4", "--csit", "quantized",
                   "--scaling", "fixed", "--B", "10", "--path", "brute", "--snr", "10:10:10"]


class TestBlasThreadInvariance:
    @pytest.mark.parametrize("argv", [["figure", "compare88"], ["figure", "fixed5x5"],
                                      _BRUTE_CODEBOOK])
    def test_csv_independent_of_blas_threads(self, argv, tmp_path):
        outputs = []
        for name, env in (("default", _blas_env()), ("two", _blas_env(OPENBLAS_NUM_THREADS="2"))):
            out = tmp_path / f"{name}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "fbmimo.cli", *argv, "--trials", "40", "--out", str(out)],
                capture_output=True, text=True, timeout=120, env=env)
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestCurvesToRows:
    def test_nan_bits_render_empty(self):
        from fbmimo.bounds import ThroughputCurve
        c = ThroughputCurve(label="x", snr_db=np.array([0.0]), mean_bps_hz=np.array([1.5]),
                            std_err=np.array([0.25]), trials=np.array([10]), M=2, K=2,
                            policy="p", precoder="ZF", seed=1)
        row = curves_to_rows("exp", [c])[0]
        assert row == ["exp", "x", "2", "2", "p", "ZF", "", "0.0", "1.5", "0.25",
                       "10", "1", "0"]
