"""Scenario configuration: one YAML document, schema-checked, unknown keys
rejected. `default_config_text()` is the authoritative, fully commented list
of every knob and its default."""

import math

import yaml

from .kernel_search import ResourceModel, SearchSpace
from .mlp_engine import KernelAssignment
from .recmodel import DESK_PRESETS, ModelSpec, TableSpec, build_model, desk_model_spec
from .sim import Scenario, WorkloadConfig
from .storage import SsdGeometry, TimingParams


class ConfigError(ValueError):
    pass


DEFAULT_CONFIG = """\
# recssd scenario configuration (schema_version 1).
# Every value below is a documented default, not a measured device figure.
schema_version: 1

model:
  preset: rmc3-mini        # rmc3-mini | ncf-mini | wnd-mini | custom
  seed: 3                  # weight and table init seed
  # required when preset is custom:
  # dense_dim: 13
  # bottom_mlp_dims: [13, 64, 16]
  # top_mlp_dims: [48, 64, 1]    # first entry = bottom output + tables * ev_dim
  # ev_dim: 16
  # table_rows: [16384, 16384]

geometry:
  channels: 8
  dies_per_channel: 4
  page_size: 4096          # bytes
  lba_size: 512            # bytes
  pages_per_block: 256

timing:
  page_read_us: 50.0                 # flash array sense
  channel_transfer_ns_per_byte: 0.4
  dram_hit_ns: 100.0                 # baseline DRAM-resident lookup
  host_interface_ns_per_byte: 0.25
  fc_clock_mhz: 200.0                # FC engine clock
  host_block_io_overhead_us: 10.0    # software stack cost per host-path I/O
  host_ns_per_mac: 0.1               # host MLP compute model

scenario:
  mode: rmssd              # rmssd | emb-vectorsum | ssd-baseline
  query_count: 1000
  batch: 2                 # queries per device dispatch batch
  dram_fraction: 0.25      # ssd-baseline resident-set size, fraction of table bytes
  # duration_us: null      # optional admission cutoff

workload:
  distribution: uniform    # uniform | zipf
  pooling: 8               # lookups per table per query
  zipf_s: 1.0

kernels: auto              # auto -> run the kernel search; or explicit lists:
# kernels:
#   bottom: [[8, 64], [16, 16]]
#   top: [[128, 64], [64, 1]]
#   ev: [1, 16]

search_space:
  max_batch: 16
  # max_kernel: null       # optional cap on kr and kc

resource_model:
  lut_per_mac: 50.0
  ff_per_mac: 60.0
  dsp_per_mac: 2.0
  bram_bytes: 4194304
  dram_bandwidth_gbps: 1.0
"""

_SCHEMA = {
    "schema_version": int,
    "model": {"preset": str, "seed": int, "dense_dim": int, "bottom_mlp_dims": list,
              "top_mlp_dims": list, "ev_dim": int, "table_rows": list},
    "geometry": {"channels": int, "dies_per_channel": int, "page_size": int,
                 "lba_size": int, "pages_per_block": int},
    "timing": {"page_read_us": float, "channel_transfer_ns_per_byte": float,
               "dram_hit_ns": float, "host_interface_ns_per_byte": float,
               "fc_clock_mhz": float, "host_block_io_overhead_us": float,
               "host_ns_per_mac": float},
    "scenario": {"mode": str, "query_count": int, "batch": int, "dram_fraction": float,
                 "duration_us": float},
    "workload": {"distribution": str, "pooling": int, "zipf_s": float},
    "kernels": None,   # "auto" or {bottom, top, ev}
    "search_space": {"max_batch": int, "max_kernel": int},
    "resource_model": {"lut_per_mac": float, "ff_per_mac": float, "dsp_per_mac": float,
                       "bram_bytes": int, "dram_bandwidth_gbps": float},
}


def default_config_text() -> str:
    return DEFAULT_CONFIG


def _defaults() -> dict:
    return yaml.safe_load(DEFAULT_CONFIG)


def _check_section(name: str, value, schema) -> None:
    if schema is None:
        return
    if not isinstance(value, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    for key, v in value.items():
        if key not in schema:
            raise ConfigError(f"unknown key {name}.{key}")
        want = schema[key]
        if want is float and isinstance(v, int) and not isinstance(v, bool):
            continue
        if want is not None and v is not None and (isinstance(v, bool)
                                                   or not isinstance(v, want)):
            raise ConfigError(f"{name}.{key} must be {want.__name__}, got {type(v).__name__}")
        if want is float and v is not None and not math.isfinite(v):
            raise ConfigError(f"{name}.{key} must be finite, got {v}")


def validate_config(cfg: dict) -> dict:
    """Merge over defaults, rejecting unknown keys and wrong types."""
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    merged = _defaults()
    for key, value in cfg.items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key {key}")
        if key == "kernels":
            merged[key] = value
            continue
        if key == "schema_version":
            if value != 1:
                raise ConfigError(f"unsupported schema_version {value}")
            continue
        _check_section(key, value, _SCHEMA[key])
        merged[key].update(value)
    if merged["kernels"] != "auto":
        k = merged["kernels"]
        if not isinstance(k, dict) or set(k) - {"bottom", "top", "ev"}:
            raise ConfigError("kernels must be 'auto' or {bottom, top, ev} lists")
        for part in ("bottom", "top", "ev"):
            if part not in k:
                raise ConfigError(f"kernels.{part} missing")
        if not (isinstance(k["bottom"], list) and isinstance(k["top"], list)
                and all(map(_is_int_pair, k["bottom"] + k["top"] + [k["ev"]]))):
            raise ConfigError("kernels.bottom and kernels.top must be lists of [kr, kc] "
                              "integer pairs, and kernels.ev one [1, kc_e] pair")
    return merged


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_int_pair(v) -> bool:
    return isinstance(v, list) and len(v) == 2 and all(map(_is_int, v))


def load_config(path) -> dict:
    try:
        with open(path) as f:
            raw = yaml.safe_load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as e:
        raise ConfigError(f"invalid YAML in {path}: {e}")
    if raw is None:
        raw = {}
    return validate_config(raw)


def _model_spec_from(cfg_model: dict) -> ModelSpec:
    preset = cfg_model.get("preset", "rmc3-mini")
    if preset in DESK_PRESETS:
        return desk_model_spec(preset)
    if preset != "custom":
        raise ConfigError(f"unknown model preset {preset!r}")
    needed = ("dense_dim", "bottom_mlp_dims", "top_mlp_dims", "ev_dim", "table_rows")
    missing = [k for k in needed if cfg_model.get(k) is None]
    if missing:
        raise ConfigError(f"custom model needs {missing}")
    try:
        ev_dim = cfg_model["ev_dim"]
        return ModelSpec(
            tables=tuple(TableSpec(r, ev_dim) for r in cfg_model["table_rows"]),
            bottom_mlp_dims=tuple(cfg_model["bottom_mlp_dims"]),
            top_mlp_dims=tuple(cfg_model["top_mlp_dims"]),
            dense_dim=cfg_model["dense_dim"],
        )
    except ValueError as e:
        raise ConfigError(str(e))


def build_scenario(cfg: dict) -> Scenario:
    """Turn a validated config mapping into a runnable scenario."""
    cfg = validate_config(cfg)
    try:
        spec = _model_spec_from(cfg["model"])
        model = build_model(spec, cfg["model"].get("seed", 3))
        g = cfg["geometry"]
        geometry = SsdGeometry(g["channels"], g["dies_per_channel"], g["page_size"],
                               g["lba_size"], g["pages_per_block"])
        t = cfg["timing"]
        timing = TimingParams(**{k: float(v) for k, v in t.items()})
        w = cfg["workload"]
        workload = WorkloadConfig(w["distribution"], w["pooling"], float(w["zipf_s"]))
        s = cfg["scenario"]
        r = cfg["resource_model"]
        resource_model = ResourceModel(
            lut_per_mac=float(r["lut_per_mac"]), ff_per_mac=float(r["ff_per_mac"]),
            dsp_per_mac=float(r["dsp_per_mac"]), bram_bytes=int(r["bram_bytes"]),
            dram_bandwidth_bytes_per_s=float(r["dram_bandwidth_gbps"]) * 1e9)
        sp = cfg["search_space"]
        space = SearchSpace(initial_batch=s["batch"],
                            max_batch=max(s["batch"], sp["max_batch"]),
                            max_kernel=sp.get("max_kernel"))
        kernels = None
        auto = cfg["kernels"] == "auto"
        if not auto:
            k = cfg["kernels"]
            kernels = KernelAssignment(
                tuple((int(a), int(b)) for a, b in k["bottom"]),
                tuple((int(a), int(b)) for a, b in k["top"]),
                (int(k["ev"][0]), int(k["ev"][1])),
            )
        duration_us = s.get("duration_us")
        if duration_us is not None and not duration_us * 1000.0 < 2 ** 63:
            raise ValueError(f"scenario.duration_us {duration_us:g} is past the int64 "
                             f"nanosecond range")
        scenario = Scenario(
            mode=s["mode"], model=model, geometry=geometry, timing=timing,
            workload=workload, query_count=s["query_count"], batch=s["batch"],
            dram_fraction=float(s["dram_fraction"]), kernels=kernels, auto_search=auto,
            resource_model=resource_model, space=space,
            duration_ns=None if duration_us is None else round(duration_us * 1000.0),
        )
        scenario.validate()
    except (ValueError, TypeError, KeyError) as e:
        if isinstance(e, ConfigError):
            raise
        raise ConfigError(str(e))
    return scenario
