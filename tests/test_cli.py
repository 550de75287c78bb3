import json

import pytest
import yaml

from recssd.cli import main
from recssd.config import (ConfigError, build_scenario, default_config_text,
                           load_config, validate_config)
from recssd.kernel_search import WorkloadProfile

from search_oracle import enumerate_search

FAST_RUN = """
model: {preset: wnd-mini, seed: 1}
scenario: {mode: ssd-baseline, query_count: 30}
workload: {pooling: 2}
"""

TINY_CUSTOM = """
model:
  preset: custom
  seed: 2
  dense_dim: 8
  bottom_mlp_dims: [8, 8]
  top_mlp_dims: [16, 1]
  ev_dim: 8
  table_rows: [4096]
timing: {fc_clock_mhz: 1.0}
workload: {pooling: 4}
scenario: {mode: rmssd, query_count: 10, batch: 1}
search_space: {max_batch: 8}
"""

DEEP_BOTTOM = """
model:
  preset: custom
  seed: 2
  dense_dim: 16
  bottom_mlp_dims: [16, 64, 64, 64, 16]
  top_mlp_dims: [144, 64, 1]
  ev_dim: 16
  table_rows: [4096, 4096, 4096, 4096, 4096, 4096, 4096, 4096]
scenario: {mode: rmssd, batch: 2}
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestPrintDefaults:
    def test_defaults_are_valid_config(self, capsys):
        assert main(["--print-defaults"]) == 0
        out = capsys.readouterr().out
        cfg = yaml.safe_load(out)
        validate_config(cfg)
        build_scenario(cfg)

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as e:
            main(["--help"])
        assert e.value.code == 0


class TestValidate:
    def test_valid_config(self, tmp_path, capsys):
        path = write(tmp_path, "ok.yaml", FAST_RUN)
        assert main(["validate", path]) == 0

    def test_unknown_key(self, tmp_path, capsys):
        path = write(tmp_path, "bad.yaml", "scenario: {mode: rmssd, warp_factor: 9}\n")
        assert main(["validate", path]) == 2
        assert "warp_factor" in capsys.readouterr().err

    def test_invariant_violation(self, tmp_path, capsys):
        path = write(tmp_path, "bad.yaml",
                     "scenario: {mode: ssd-baseline, dram_fraction: 0.0}\n")
        assert main(["validate", path]) == 2
        for text in ("workload: {distribution: zipf, zipf_s: -1}\n",
                     "timing: {page_read_us: .nan}\n",
                     "scenario: {duration_us: .inf}\n",
                     "timing: {page_read_us: 0.0001}\n",
                     "timing: {channel_transfer_ns_per_byte: 0.0001}\n"):
            path = write(tmp_path, "bad.yaml", text)
            assert main(["validate", path]) == 2, text
            assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 2, text

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/conf.yaml"]) == 2

    def test_bad_yaml(self, tmp_path):
        path = write(tmp_path, "bad.yaml", "scenario: [unclosed\n")
        assert main(["validate", path]) == 2

    def test_wrong_type(self, tmp_path):
        path = write(tmp_path, "bad.yaml", "geometry: {channels: eight}\n")
        assert main(["validate", path]) == 2
        path = write(tmp_path, "bad.yaml", "geometry: {channels: true}\n")
        assert main(["validate", path]) == 2
        assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 2

    def test_bad_kernels_block(self, tmp_path):
        path = write(tmp_path, "bad.yaml", "kernels: {bottom: [[1, 1]]}\n")
        assert main(["validate", path]) == 2


class TestRun:
    def test_run_writes_outputs(self, tmp_path, capsys):
        path = write(tmp_path, "run.yaml", FAST_RUN)
        out = tmp_path / "out"
        assert main(["run", path, "--seed", "5", "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["schema_version"] == 1
        assert metrics["completed"] == 30
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "query_id,stage,start_ns,end_ns"
        assert len(trace) > 30

    def test_byte_identical_outputs_for_same_seed(self, tmp_path):
        path = write(tmp_path, "run.yaml", FAST_RUN)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", path, "--seed", "7", "--out", str(a), "--quiet"]) == 0
        assert main(["run", path, "--seed", "7", "--out", str(b), "--quiet"]) == 0
        assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()

    def test_malformed_config_exits_2(self, tmp_path):
        path = write(tmp_path, "bad.yaml", "model: {preset: unknown-model}\n")
        assert main(["run", path]) == 2

    def test_infeasible_search_exits_3(self, tmp_path, capsys):
        cfg = """
model:
  preset: custom
  seed: 1
  dense_dim: 8
  bottom_mlp_dims: [8, 8]
  top_mlp_dims: [16, 1]
  ev_dim: 8
  table_rows: [4096]
timing: {page_read_us: 0.001, channel_transfer_ns_per_byte: 2.5e-4, fc_clock_mhz: 0.0001}
workload: {pooling: 1}
scenario: {mode: rmssd, query_count: 4, batch: 1}
search_space: {max_batch: 2}
"""
        path = write(tmp_path, "inf.yaml", cfg)
        assert main(["run", path, "--quiet"]) == 3
        assert "binding constraint" in capsys.readouterr().err

    def test_json_format_stdout(self, tmp_path, capsys):
        path = write(tmp_path, "run.yaml", FAST_RUN)
        assert main(["run", path, "--seed", "5", "--out", str(tmp_path / "o"),
                     "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["completed"] == 30

    def test_csv_format_stdout(self, tmp_path, capsys):
        path = write(tmp_path, "run.yaml", FAST_RUN)
        assert main(["run", path, "--seed", "5", "--out", str(tmp_path / "o"),
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("completed,30") for line in lines)


class TestSearchCmd:
    def test_tiny_model_matches_enumeration_oracle(self, tmp_path, capsys):
        path = write(tmp_path, "tiny.yaml", TINY_CUSTOM)
        assert main(["search", path, "--seed", "11"]) == 0
        got = json.loads(capsys.readouterr().out)
        assert got["feasible"] is True

        scenario = build_scenario(load_config(path))
        profile = WorkloadProfile("uniform", 4, 1.0, 11)
        want = enumerate_search(scenario.model, scenario.resource_model,
                                scenario.geometry, scenario.timing, profile,
                                scenario.space)
        assert want is not None
        assignment, batch, objective = want
        assert got["objective"] == objective
        assert got["batch"] == batch
        assert tuple(tuple(k) for k in got["assignment"]["bottom"]) == assignment.bottom
        assert tuple(tuple(k) for k in got["assignment"]["top"]) == assignment.top
        assert tuple(got["assignment"]["ev"]) == assignment.ev
        assert got["slack_ns"]["bottom"] >= 0 and got["slack_ns"]["top"] >= 0

    def test_missing_file_exits_2(self):
        assert main(["search", "/nope.yaml"]) == 2

    def test_four_layer_bottom_stack_finishes(self, tmp_path, capsys):
        # 2,941,225 bottom-stage candidates: the walk never builds the product
        path = write(tmp_path, "deep.yaml", DEEP_BOTTOM)
        assert main(["search", path, "--seed", "9"]) == 0
        got = json.loads(capsys.readouterr().out)
        assert got["feasible"] is True
        assert len(got["assignment"]["bottom"]) == 4


class TestCompareCmd:
    def test_same_config_ratios_one(self, tmp_path, capsys):
        path = write(tmp_path, "c.yaml", FAST_RUN)
        out = tmp_path / "out"
        assert main(["compare", path, path, "--seed", "3", "--out", str(out),
                     "--format", "json"]) == 0
        rep = json.loads((out / "compare.json").read_text())
        assert rep["rows"][1]["throughput_x"] == 1.0
        assert rep["rows"][1]["p99_reduction_pct"] == 0.0

    def test_mismatched_models_exit_2(self, tmp_path, capsys):
        a = write(tmp_path, "a.yaml", FAST_RUN)
        b = write(tmp_path, "b.yaml",
                  "model: {preset: ncf-mini, seed: 1}\n"
                  "scenario: {mode: ssd-baseline, query_count: 30}\n"
                  "workload: {pooling: 2}\n")
        assert main(["compare", a, b, "--quiet"]) == 2

    def test_baseline_vs_rmssd_suite(self, tmp_path, capsys):
        base = ("model: {preset: wnd-mini, seed: 1}\n"
                "scenario: {mode: ssd-baseline, query_count: 60}\n"
                "workload: {pooling: 2}\n")
        dev = ("model: {preset: wnd-mini, seed: 1}\n"
               "scenario: {mode: rmssd, query_count: 60}\n"
               "workload: {pooling: 2}\n")
        a = write(tmp_path, "base.yaml", base)
        b = write(tmp_path, "dev.yaml", dev)
        out = tmp_path / "out"
        assert main(["compare", a, b, "--out", str(out), "--quiet"]) == 0
        rep = json.loads((out / "compare.json").read_text())
        row = rep["rows"][1]
        assert row["mode"] == "rmssd"
        assert row["throughput_x"] >= 1.0


class TestConfigModule:
    def test_defaults_roundtrip(self):
        cfg = yaml.safe_load(default_config_text())
        merged = validate_config(cfg)
        assert merged["geometry"]["channels"] == 8
        assert merged["timing"]["page_read_us"] == 50.0

    def test_partial_override_keeps_defaults(self):
        merged = validate_config({"geometry": {"channels": 4}})
        assert merged["geometry"]["channels"] == 4
        assert merged["geometry"]["dies_per_channel"] == 4

    def test_custom_model_missing_fields(self):
        with pytest.raises(ConfigError, match="custom model needs"):
            build_scenario({"model": {"preset": "custom"}})

    def test_explicit_kernels(self):
        cfg = {
            "model": {"preset": "rmc3-mini"},
            "kernels": {"bottom": [[8, 64], [16, 16]], "top": [[128, 64], [64, 1]],
                        "ev": [1, 16]},
        }
        sc = build_scenario(cfg)
        assert sc.kernels is not None and not sc.auto_search
        assert sc.kernels.bottom == ((8, 64), (16, 16))

    def test_schema_version_check(self):
        with pytest.raises(ConfigError, match="schema_version"):
            validate_config({"schema_version": 2})
