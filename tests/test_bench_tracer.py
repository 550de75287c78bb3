"""The benchmark's tracer (perfbench/tracing.py) patches module attributes by
name, so a rename in the program silently drops spans from `--trace 1`. This
runs a traced compare of the three modes and a traced rmssd run with the
kernel search, and checks that every layer the per-layer metrics rely on
still shows up."""

import importlib.util
from pathlib import Path

import numpy as np

import recssd
import recssd.config
import recssd.ev_engine
import recssd.kernel_search
import recssd.sim
from recssd.mlp_engine import KernelAssignment
from recssd.recmodel import build_model, desk_model_spec, generate_workload
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
    # rmssd schedules its bottom MLP once per run and its top MLP once per
    # chunk of batches (one chunk here), both through the `sim` bindings
    # that the tracer wraps
    assert [s[0] for s in tracer.spans].count("mlp_engine.pipeline_schedule") == 2
    # the lookup is one call chain, translate -> read timeline -> finish, and
    # `ev_engine.simulate_lookup` is the finish alone: no translation or page
    # scheduling runs inside it, so `ev_engine.lookup_self_s` times the gather,
    # the sums and the adder's finish
    spans = tracer.spans

    def in_lookup(parent):
        while parent is not None:
            if spans[parent][0] == "ev_engine.simulate_lookup":
                return True
            parent = spans[parent][3]
        return False

    assert [s[0] for s in spans].count("ev_engine.simulate_lookup") == 2
    assert not [s[0] for s in spans if s[0] in ("ev_engine.translate_batch",
                                                 "storage.schedule_page_reads")
                and in_lookup(s[3])]
    total, _, counts = tracer.take()
    for name in ("recmodel.scoring", "mlp_engine.pipeline_schedule",
                 "ev_engine.build_flash_image", "ev_engine.simulate_lookup",
                 "ev_engine.translate_batch", "ev_engine.dispatch",
                 "storage.schedule_page_reads"):
        assert name in total, name
    # the two device modes look up the run's batches of two on one device and
    # share the translation and read timeline; the counters total what one
    # translate and dispatch call per batch would make
    queries = generate_workload(spec, "uniform", 8, 6, 5)
    layout = recssd.ev_engine.table_layout(spec, scenarios[0].geometry)
    requests = [recssd.ev_engine.translate_batch(layout, queries[i:i + 2])
                for i in range(0, 6, 2)]
    assert counts["requests"] == 1 * sum(map(len, requests)) > 0
    one_lane = [np.zeros(len(r.page), np.int64) for r in requests]
    assert counts["page_reads"] == 1 * sum(len(recssd.ev_engine.dispatch(r, lane))
                                           for r, lane in zip(requests, one_lane)) > 0


def test_traced_search_spans_the_search_layers():
    tracing = load_tracing()
    scenario = Scenario(mode=MODE_RMSSD, model=build_model(desk_model_spec("rmc3-mini"), 3),
                        geometry=SsdGeometry(8, 4, 4096), timing=TimingParams(),
                        workload=WorkloadConfig(), query_count=6)
    assert scenario.kernels is None
    tracer = tracing.Tracer()
    tracing.install(tracer, recssd)
    try:
        result = recssd.sim.run(scenario, 5)
    finally:
        tracer.restore()
    assert result.search_outcome.feasible
    # the search's draws and stage evaluations go through the
    # `kernel_search` bindings, under the `sim.search` span
    spans = tracer.spans
    search = [i for i, s in enumerate(spans) if s[0] == "kernel_search.search"]
    assert len(search) == 1
    for name in ("kernel_search.stage_eval", "recmodel.generate_workload"):
        assert search[0] in [s[3] for s in spans if s[0] == name], name
    _, _, counts = tracer.take()
    assert counts["stage_evals"] > 0
