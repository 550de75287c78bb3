"""The benchmark's tracer (perfbench/tracing.py) patches module attributes by
name, so a rename in the program silently drops spans from `--trace 1`. This
runs a traced compare of the three modes and checks that every layer the
per-layer metrics rely on still shows up."""

import importlib.util
from pathlib import Path

import recssd
import recssd.config
import recssd.ev_engine
import recssd.kernel_search
import recssd.sim
from recssd.mlp_engine import KernelAssignment
from recssd.recmodel import build_model, desk_model_spec
from recssd.sim import (MODE_EMB_VECTORSUM, MODE_RMSSD, MODE_SSD_BASELINE, Scenario,
                        WorkloadConfig)
from recssd.storage import SsdGeometry, TimingParams

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_compare_spans_every_layer():
    tracing = load_tracing()
    spec = desk_model_spec("rmc3-mini")
    model = build_model(spec, 3)
    scenarios = [Scenario(mode=mode, model=model, geometry=SsdGeometry(8, 4, 4096),
                          timing=TimingParams(), workload=WorkloadConfig(), query_count=6,
                          kernels=KernelAssignment.all_max(spec))
                 for mode in (MODE_SSD_BASELINE, MODE_EMB_VECTORSUM, MODE_RMSSD)]
    original_run = recssd.sim.run
    tracer = tracing.Tracer()
    tracing.install(tracer, recssd)
    try:
        _, results = recssd.sim.compare(scenarios, 5)
    finally:
        tracer.restore()
    assert recssd.sim.run is original_run
    assert all(r.metrics.completed == 6 for r in results)
    total, _, counts = tracer.take()
    for name in ("recmodel.scoring", "mlp_engine.pipeline_schedule",
                 "ev_engine.translate_batch", "storage.schedule_page_reads"):
        assert name in total, name
    assert counts["requests"] > 0 and counts["page_reads"] > 0
