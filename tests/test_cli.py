import dataclasses
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from recssd.cli import main
from recssd.config import (ConfigError, build_scenario, default_config_text,
                           load_config, validate_config)
from recssd.kernel_search import ResourceModel, SearchSpace
from recssd.recmodel import WorkloadConfig
from recssd.sim import Scenario, run
from recssd.storage import TimingParams

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

# fill-dominated on one die: infeasible at batches 1 and 2, feasible at 4, as
# in test_batch_escalation_rescues_fill_dominated_config
ESCALATING = """
model:
  preset: custom
  dense_dim: 8
  bottom_mlp_dims: [8, 8]
  top_mlp_dims: [16, 1]
  ev_dim: 8
  table_rows: [4096]
geometry: {channels: 1, dies_per_channel: 1, page_size: 4096}
timing: {fc_clock_mhz: 0.05}
workload: {pooling: 1}
scenario: {mode: rmssd, query_count: 10, batch: 1}
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

    def test_removed_geometry_key(self, tmp_path, capsys):
        for key, value in (("pages_per_block", 256), ("lba_size", 512)):
            path = write(tmp_path, "bad.yaml", f"geometry: {{{key}: {value}}}\n")
            assert main(["validate", path]) == 2
            assert f"unknown key geometry.{key}" in capsys.readouterr().err

    def test_invariant_violation(self, tmp_path, capsys):
        path = write(tmp_path, "bad.yaml",
                     "scenario: {mode: ssd-baseline, dram_fraction: 0.0}\n")
        assert main(["validate", path]) == 2
        for text in ("workload: {distribution: zipf, zipf_s: -1}\n",
                     "timing: {page_read_us: .nan}\n",
                     "scenario: {duration_us: .inf}\n",
                     "timing: {page_read_us: 0.0001}\n",
                     "timing: {channel_transfer_ns_per_byte: 0.0001}\n",
                     "kernels: {bottom: [[8, 64], [16, 16]], top: [[128, 64], [64, 1]],"
                     " ev: [1]}\n",
                     "search_space: {max_kernel: 0}\n",
                     "geometry: {page_size: 32}\n",
                     "model: {preset: custom, dense_dim: 13, bottom_mlp_dims: [13, 16],"
                     " top_mlp_dims: [2064, 1], ev_dim: 2048, table_rows: [64]}\n",
                     "timing: {page_read_us: 1.0e+300}\n",
                     "timing: {channel_transfer_ns_per_byte: 1.0e+300}\n",
                     "timing: {fc_clock_mhz: 1.0e-300}\n",
                     "timing: {host_ns_per_mac: 1.0e+306}\nscenario: {mode: emb-vectorsum}\n",
                     "timing: {host_ns_per_mac: 1.0e+9}\nscenario: {mode: emb-vectorsum}\n",
                     "timing: {host_interface_ns_per_byte: 1.0e+306}\n"
                     "scenario: {mode: emb-vectorsum}\n",
                     "timing: {fc_clock_mhz: 1.0e+300}\n",
                     "resource_model: {dram_bandwidth_gbps: 1.0e-300, bram_bytes: 1000}\n",
                     "resource_model: {dram_bandwidth_gbps: 1.0e-300, bram_bytes: 1000}\n"
                     "kernels: {bottom: [[8, 64], [16, 16]], top: [[128, 64], [64, 1]],"
                     " ev: [1, 16]}\n",
                     "scenario: {duration_us: 1.0e+306}\n",
                     "model: {preset: custom, dense_dim: 13, bottom_mlp_dims: [13, 16.9],"
                     " top_mlp_dims: [32, 1], ev_dim: 16, table_rows: [100.9]}\n",
                     "model: {preset: custom, dense_dim: 13, bottom_mlp_dims: [13, 16],"
                     " top_mlp_dims: [32, 1], ev_dim: 16, table_rows: [100.9]}\n",
                     "model: {preset: custom, dense_dim: 13, bottom_mlp_dims: [13, 16],"
                     " top_mlp_dims: [32, true], ev_dim: 16, table_rows: [100]}\n",
                     # a page over the host interface takes just under 1 s, but
                     # one query's 64 summed vectors of 128 bytes take 2.0 s
                     "model: {preset: custom, dense_dim: 4, bottom_mlp_dims: [4, 4],"
                     " top_mlp_dims: [2052, 1], ev_dim: 32, table_rows: [" + ", ".join(["4"] * 64)
                     + "]}\ntiming: {host_interface_ns_per_byte: 244140}\n"
                     "scenario: {mode: emb-vectorsum}\nworkload: {pooling: 1}\n"):
            path = write(tmp_path, "bad.yaml", text)
            assert main(["validate", path]) == 2, text
            assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 2, text
        # each refused value prints exactly, so it never reads as inside its limit
        capsys.readouterr()
        for text, value, refused in (
                ("timing: {page_read_us: 0.0009999999}\n", r"got (\S+) ns and",
                 lambda ns: ns < 1),
                ("timing: {fc_clock_mhz: 1000.0000001}\n", r"period is (\S+) ns",
                 lambda ns: ns < 1),
                ("timing: {host_block_io_overhead_us: 1000000.0000001}\n",
                 r"overhead takes (\S+) ns", lambda ns: ns > 1_000_000_000)):
            path = write(tmp_path, "bad.yaml", text)
            assert main(["validate", path]) == 2, text
            err = capsys.readouterr().err
            assert refused(float(re.search(value, err).group(1))), err

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/conf.yaml"]) == 2

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        good = write(tmp_path, "ok.yaml", FAST_RUN)
        not_utf8 = tmp_path / "latin1.yaml"
        not_utf8.write_bytes(b"# caf\xe9\nscenario: {mode: rmssd}\n")
        for path in (str(tmp_path), str(not_utf8)):
            for argv in (["validate", path], ["search", path],
                         ["run", path, "--out", str(tmp_path / "out"), "--quiet"],
                         ["compare", path, good, "--out", str(tmp_path / "out"), "--quiet"]):
                assert main(argv) == 2, argv
                err = capsys.readouterr().err
                assert err.startswith("error:") and path in err, argv

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

    def test_model_too_large_to_materialise(self, tmp_path):
        # 3e9 rows of 16 floats is 179 GiB: under a 2 GB address-space cap
        # building the tables fails, which is a config error, not an internal one
        path = write(tmp_path, "big.yaml",
                     "model: {preset: custom, dense_dim: 13, bottom_mlp_dims: [13, 16],"
                     " top_mlp_dims: [32, 1], ev_dim: 16, table_rows: [3000000000]}\n")
        cap = 2_000_000_000
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        for command in ("validate", "run"):
            proc = subprocess.run(
                [sys.executable, "-m", "recssd.cli", command, path],
                env=env, capture_output=True, text=True, timeout=120,
                preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
            assert proc.returncode == 2, proc.stderr
            assert "too large to materialise" in proc.stderr

    @pytest.mark.parametrize("text", ["geometry: {channels: 1000000000000}\n",
                                      "scenario: {query_count: 1000000000000}\n"],
                             ids=["channels", "query_count"])
    def test_run_too_large_to_materialise(self, tmp_path, text):
        # valid configs whose run, not their build, asks for terabytes: under
        # the same 2 GB address-space cap the allocation fails, a config error
        path = write(tmp_path, "big.yaml", text)
        cap = 2_000_000_000
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "recssd.cli", "run", path, "--out", str(tmp_path / "o"),
             "--quiet"], env=env, capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
        assert proc.returncode == 2, proc.stderr
        assert "too large to materialise on this host" in proc.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "search", "compare"])
    def test_negative_seed_refused_when_parsed(self, tmp_path, capsys, command):
        path = write(tmp_path, "c.yaml", FAST_RUN)
        configs = [path, path] if command == "compare" else [path]
        with pytest.raises(SystemExit) as e:
            main([command, *configs, "--seed", "-1"])
        assert e.value.code == 2
        assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err


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
        # one row per query and stage, query by query, each query's stages in
        # the baseline's pipeline order
        stages = ["emb", "host_mlp"]
        rows = [line.split(",") for line in trace[1:]]
        assert len(trace) == 1 + 30 * len(stages)
        assert [int(r[0]) for r in rows] == [q for q in range(30) for _ in stages]
        assert [r[1] for r in rows] == stages * 30

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
        err = capsys.readouterr().err
        assert err == "error: infeasible kernel search (binding constraint: top)\n"
        # compare fails the same way, with the same message
        base = write(tmp_path, "base.yaml", cfg.replace("mode: rmssd", "mode: ssd-baseline"))
        assert main(["compare", base, path, "--quiet"]) == 3
        assert capsys.readouterr().err == err
        # search alone prints the infeasible outcome, then fails the same way
        assert main(["search", path]) == 3
        out = capsys.readouterr()
        assert out.err == err
        assert json.loads(out.out)["feasible"] is False

    def test_start_batch_above_cap_is_tried_alone(self, tmp_path, capsys):
        # the search starts at scenario.batch and doubles it while the double
        # is within max_batch, so a cap at or below the batch tries the batch
        # alone: caps of 0, 2 and 4 give one search and one run
        searches, runs = [], []
        for cap in (0, 2, 4):
            path = write(tmp_path, f"cap{cap}.yaml",
                         "model: {preset: wnd-mini, seed: 1}\n"
                         "scenario: {mode: rmssd, query_count: 20, batch: 4}\n"
                         f"search_space: {{max_batch: {cap}}}\n")
            assert main(["search", path, "--seed", "3"]) == 0
            searches.append(json.loads(capsys.readouterr().out))
            assert main(["run", path, "--seed", "3", "--out", str(tmp_path / f"o{cap}"),
                         "--format", "json"]) == 0
            runs.append(json.loads(capsys.readouterr().out))
        assert searches[0]["feasible"] and searches[0]["batch"] == 4
        assert searches[0] == searches[1] == searches[2]
        assert runs[0]["completed"] == 20
        assert runs[0] == runs[1] == runs[2]

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
        want = enumerate_search(scenario.model, scenario.resource_model,
                                scenario.geometry, scenario.timing,
                                WorkloadConfig("uniform", 4, 1.0), 11, 1, scenario.space)
        assert want is not None
        assignment, batch, objective = want
        assert got["objective"] == objective
        assert got["batch"] == batch
        assert tuple(tuple(k) for k in got["assignment"]["bottom"]) == assignment.bottom
        assert tuple(tuple(k) for k in got["assignment"]["top"]) == assignment.top
        assert tuple(got["assignment"]["ev"]) == assignment.ev
        assert got["slack_ns"]["bottom"] >= 0 and got["slack_ns"]["top"] >= 0

    @pytest.mark.parametrize("text, seed, batch", [(TINY_CUSTOM, 11, 1), (ESCALATING, 2, 4)])
    def test_search_json_equals_the_runs_search(self, tmp_path, capsys, text, seed, batch):
        # one feasible at its start batch, one that doubles it twice
        path = write(tmp_path, "c.yaml", text)
        assert main(["search", path, "--seed", str(seed)]) == 0
        outcome = run(build_scenario(load_config(path)), seed).search_outcome
        assert outcome.batch == batch
        assert capsys.readouterr().out == json.dumps(outcome.to_dict(), indent=2,
                                                     sort_keys=True) + "\n"

    def test_missing_file_exits_2(self):
        assert main(["search", "/nope.yaml"]) == 2

    def test_unread_report_options_rejected(self, tmp_path):
        path = write(tmp_path, "c.yaml", FAST_RUN)
        for argv in (["search", path, "--out", "x"], ["search", path, "--format", "json"],
                     ["search", path, "--quiet"], ["compare", path, path, "--format", "csv"]):
            with pytest.raises(SystemExit) as e:
                main(argv)
            assert e.value.code == 2, argv

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

    def test_one_config_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "c.yaml", FAST_RUN)
        assert main(["compare", path, "--quiet"]) == 2
        assert capsys.readouterr().err == "error: compare needs at least two scenarios\n"

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

    def test_defaults_are_not_aliased(self):
        documented = yaml.safe_load(default_config_text())
        first = validate_config({})
        assert first == documented
        first["geometry"]["channels"] = 1
        first["timing"]["page_read_us"] = 1.0
        assert validate_config({}) == documented
        build_scenario({"geometry": {"channels": 2}})
        sc = build_scenario({})
        assert sc.geometry.channels == 8 and sc.timing.page_read_us == 50.0

    def test_yaml_defaults_equal_dataclass_defaults(self):
        # the default document and the dataclasses state every default twice;
        # an empty document must build what the dataclasses give
        sc = build_scenario({})
        assert sc.timing == TimingParams()
        assert sc.resource_model == ResourceModel()
        assert sc.workload == WorkloadConfig()
        assert sc.space == SearchSpace()
        defaults = {f.name: f.default for f in dataclasses.fields(Scenario)}
        assert (sc.batch, sc.dram_fraction) == (defaults["batch"], defaults["dram_fraction"])

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
