"""Acceptance suite. Each criterion prints one PASS/FAIL line; criterion 7
recomputes criteria 1-6 with the same seeds and demands byte-identical JSON
reports."""

import json
import time

import numpy as np
import pytest

from recssd.ev_engine import dispatch, table_layout, translate_batch
from recssd.kernel_search import (ResourceModel, SearchSpace, resource_usage, search,
                                  verify_constraints)
from recssd.mlp_engine import KernelAssignment, conventional_cycles, pipeline_schedule
from recssd.recmodel import (DESK_POOLING, ModelSpec, Query, TableSpec, Workload,
                             build_model, desk_model_spec, generate_workload, mlp_forward,
                             reference_inference)
from recssd.sim import (MODE_EMB_VECTORSUM, MODE_RMSSD, MODE_SSD_BASELINE, Scenario,
                        WorkloadConfig, metrics_json, percentile_nearest_rank, run)
from recssd.storage import SsdGeometry, TimingParams, page_location, schedule_page_reads

from oracles import carried_split, die_timelines, page_phases_ns, pipeline_entries
from search_oracle import enumerate_search, search_scenario

GEO = SsdGeometry(8, 4, 4096)
TP = TimingParams()
RM = ResourceModel()

MODEL_SEED = 3
C1_SEED = 101
C4_SEED = 9
C2_SEED = 77

_ELAPSED = {}
_REPORTS_PASS1 = None


def report(criterion, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}"
    print(line)
    assert ok, line


def _criterion1(reports):
    t0 = time.monotonic()
    results = {"exact": True, "close": True}
    for preset in ("rmc3-mini", "ncf-mini", "wnd-mini"):
        spec = desk_model_spec(preset)
        model = build_model(spec, MODEL_SEED)
        pooling = DESK_POOLING[preset]
        wl = WorkloadConfig(pooling=pooling)
        refs = [reference_inference(model, q)
                for q in generate_workload(spec, "uniform", pooling, 1000, C1_SEED)]
        for mode in (MODE_RMSSD, MODE_EMB_VECTORSUM, MODE_SSD_BASELINE):
            sc = Scenario(mode=mode, model=model, geometry=GEO, timing=TP, workload=wl,
                          query_count=1000, batch=2, dram_fraction=0.25,
                          kernels=KernelAssignment.all_max(spec))
            r = run(sc, C1_SEED)
            reports[f"c1/{preset}/{mode}/metrics"] = metrics_json(r.metrics)
            reports[f"c1/{preset}/{mode}/scores"] = json.dumps(r.scores)
            if mode == MODE_RMSSD:
                results["exact"] &= all(a == b for a, b in zip(r.scores, refs))
            else:
                results["close"] &= all(
                    abs(a - b) <= 1e-5 * max(abs(b), 1e-30) or a == b
                    for a, b in zip(r.scores, refs))
    _ELAPSED[1] = time.monotonic() - t0
    return results


def _random_instance(rng):
    ev_dim = 8
    d0 = int(rng.choice([2, 4, 8]))
    d1 = int(rng.choice([2, 4, 8]))
    hidden = int(rng.choice([0, 4, 8]))
    top_in = d1 + ev_dim
    top = (top_in, hidden, 1) if hidden else (top_in, 1)
    spec = ModelSpec(tables=(TableSpec(4096, ev_dim),), bottom_mlp_dims=(d0, d1),
                     top_mlp_dims=top, dense_dim=d0)
    model = build_model(spec, int(rng.integers(0, 100)))
    timing = TimingParams(page_read_us=float(rng.choice([20.0, 50.0])),
                          fc_clock_mhz=float(rng.choice([0.5, 1.0, 2.0, 5.0])))
    workload = WorkloadConfig(pooling=int(rng.choice([1, 2, 4])))
    seed = int(rng.integers(0, 1000))
    space = SearchSpace(max_batch=4, max_kernel=8)
    return model, timing, workload, seed, space


def _criterion2(reports):
    t0 = time.monotonic()
    rng = np.random.default_rng(C2_SEED)
    matched = 0
    feasible_sound = True
    for k in range(20):
        model, timing, workload, seed, space = _random_instance(rng)
        scenario = search_scenario(model, RM, GEO, timing, workload, 1, space)
        got = search(scenario, seed)
        want = enumerate_search(model, RM, GEO, timing, workload, seed, 1, space)
        reports[f"c2/instance{k}"] = json.dumps(got.to_dict())
        if want is None:
            matched += (not got.feasible)
            continue
        ok = (got.feasible and got.assignment == want[0]
              and got.batch == want[1] and got.objective == want[2])
        matched += ok
        if got.feasible:
            rep = verify_constraints(scenario, got, seed)
            feasible_sound &= rep.ok and rep.slack_bottom_ns >= 0 and rep.slack_top_ns >= 0
    _ELAPSED[2] = time.monotonic() - t0
    return matched, feasible_sound


def _criterion3(reports):
    t0 = time.monotonic()
    dims = (64,) * 9
    kernels = [(1, 1)] * 8
    makespan = int(pipeline_schedule(dims, kernels).completions.max())
    conv = conventional_cycles(dims, kernels)
    ratio = makespan / conv
    reports["c3/ratio"] = json.dumps({"alternating": makespan,
                                      "conventional": conv, "ratio": ratio})
    _ELAPSED[3] = time.monotonic() - t0
    return ratio


def _criterion45(reports):
    t0 = time.monotonic()
    model = build_model(desk_model_spec("rmc3-mini"), MODEL_SEED)
    wl = WorkloadConfig()
    common = dict(model=model, geometry=GEO, timing=TP, workload=wl, query_count=10_000)
    rm = run(Scenario(mode=MODE_RMSSD, batch=2, **common), C4_SEED)
    base = run(Scenario(mode=MODE_SSD_BASELINE, dram_fraction=0.25, **common), C4_SEED)
    t_c4 = time.monotonic() - t0
    emb = run(Scenario(mode=MODE_EMB_VECTORSUM, batch=2, **common), C4_SEED)
    reports["c4/rmssd"] = metrics_json(rm.metrics)
    reports["c4/baseline"] = metrics_json(base.metrics)
    reports["c5/embsum"] = metrics_json(emb.metrics)
    _ELAPSED[4] = t_c4
    _ELAPSED[5] = time.monotonic() - t0 - t_c4
    ratio = rm.metrics.throughput_qps / base.metrics.throughput_qps
    p99_red = 100.0 * (1 - rm.metrics.latency_p99_ns / base.metrics.latency_p99_ns)
    emb_ratio = emb.metrics.throughput_qps / base.metrics.throughput_qps
    return ratio, p99_red, emb_ratio


def _criterion6(reports):
    t0 = time.monotonic()
    spec = desk_model_spec("rmc3-mini")
    model = build_model(spec, MODEL_SEED)
    scenario = search_scenario(model, RM, GEO, TP, WorkloadConfig(pooling=8), 2,
                               SearchSpace(max_batch=16))
    out = search(scenario, C4_SEED)
    reports["c6/outcome"] = json.dumps(out.to_dict())
    allmax = KernelAssignment.all_max(spec)
    dsp_opt = resource_usage(scenario, out.assignment).dsp
    dsp_max = resource_usage(scenario, allmax).dsp
    rep_opt = verify_constraints(scenario, out, C4_SEED)
    from recssd.kernel_search import SearchOutcome
    rep_max = verify_constraints(
        scenario, SearchOutcome(True, allmax, out.batch, None, None, allmax.objective()),
        C4_SEED)
    _ELAPSED[6] = time.monotonic() - t0
    return dsp_opt, dsp_max, out.feasible and rep_opt.ok, rep_max.ok


def compute_all():
    reports = {}
    c1 = _criterion1(reports)
    c2 = _criterion2(reports)
    c3 = _criterion3(reports)
    c45 = _criterion45(reports)
    c6 = _criterion6(reports)
    return reports, c1, c2, c3, c45, c6


@pytest.fixture(scope="module")
def suite():
    global _REPORTS_PASS1
    reports, c1, c2, c3, c45, c6 = compute_all()
    _REPORTS_PASS1 = reports
    return {"reports": reports, "c1": c1, "c2": c2, "c3": c3, "c45": c45, "c6": c6}


def test_criterion_1_functional_oracle_equivalence(suite):
    c1 = suite["c1"]
    ok = c1["exact"] and c1["close"] and _ELAPSED[1] < 30
    report(1, ok, f"3 models x 1000 queries x 3 modes; rmssd exact={c1['exact']}, "
                  f"others within 1e-5={c1['close']}, {_ELAPSED[1]:.1f}s")


def test_criterion_2_kernel_search_optimality(suite):
    matched, sound = suite["c2"]
    ok = matched == 20 and sound and _ELAPSED[2] < 30
    report(2, ok, f"{matched}/20 instances match exhaustive enumeration, "
                  f"non-negative slack={sound}, {_ELAPSED[2]:.1f}s")


def test_criterion_3_halving_property(suite):
    ratio = suite["c3"]
    ok = 0.50 <= ratio <= 0.55 and _ELAPSED[3] < 5
    report(3, ok, f"8 equal layers, 64 groups: alternating/conventional = {ratio:.4f}")


def test_criterion_4_throughput_trend(suite):
    ratio, p99_red, _ = suite["c45"]
    ok = ratio >= 10.0 and p99_red >= 80.0 and _ELAPSED[4] < 60
    report(4, ok, f"rmssd vs ssd-baseline(1/4): throughput {ratio:.1f}x (>=10), "
                  f"p99 reduction {p99_red:.1f}% (>=80), {_ELAPSED[4]:.1f}s")


def test_criterion_5_ev_engine_trend(suite):
    _, _, emb_ratio = suite["c45"]
    ok = emb_ratio >= 5.0 and _ELAPSED[5] < 60
    report(5, ok, f"emb-vectorsum vs ssd-baseline: throughput {emb_ratio:.1f}x (>=5), "
                  f"{_ELAPSED[5]:.1f}s")


def test_criterion_6_resource_reduction(suite):
    dsp_opt, dsp_max, opt_ok, max_ok = suite["c6"]
    saving = 100.0 * (1 - dsp_opt / dsp_max)
    ok = dsp_opt <= 0.75 * dsp_max and opt_ok and max_ok and _ELAPSED[6] < 10
    report(6, ok, f"optimized DSP {dsp_opt:.0f} vs all-max {dsp_max:.0f} "
                  f"({saving:.1f}% fewer, >=25), both feasible, {_ELAPSED[6]:.1f}s")


def test_criterion_7_determinism(suite):
    reports2, *_ = compute_all()
    same = (set(reports2) == set(_REPORTS_PASS1)
            and all(reports2[k] == _REPORTS_PASS1[k] for k in reports2))
    report(7, same, f"{len(reports2)} JSON reports byte-identical across reruns")


# ---------------------------------------------------------------------------
# Criterion 8: randomized property suites, >= 1000 cases each.

def _mini_model(rng, rows, ev_dim=16):
    spec = ModelSpec(tables=(TableSpec(rows, ev_dim),), bottom_mlp_dims=(2, 2),
                     top_mlp_dims=(2 + ev_dim, 1), dense_dim=2)
    return build_model(spec, int(rng.integers(0, 10)))


def test_criterion_8_property_suites():
    t0 = time.monotonic()
    rng = np.random.default_rng(88)

    # coalescing bound: page reads <= requests, equality iff pages distinct
    model = _mini_model(rng, rows=64 * 16)
    layout = table_layout(model.spec, GEO)
    for _ in range(1000):
        n = int(rng.integers(1, 24))
        idx = rng.integers(0, 64 * 16, n).tolist()
        reqs = translate_batch(layout,
                               Workload.from_queries([Query([idx], np.zeros(2, np.float32))]))
        distinct = len({i // 64 for i in idx})
        assert len(dispatch(reqs, np.zeros(1, np.int64))) == distinct <= n

    # work conservation: a die never idles while a request is pending
    geo_small = SsdGeometry(2, 2, 4096)
    for _ in range(1000):
        nreq = int(rng.integers(1, 10))
        channel, die = np.array([[int(rng.integers(0, 2)) for _ in range(2)]
                                 for _ in range(nreq)]).T
        page = channel + geo_small.channels * die
        sched = schedule_page_reads(np.zeros(nreq, np.int64), page, geo_small,
                                    *page_phases_ns(TP, geo_small))
        for recs in die_timelines(geo_small, page, sched).values():
            for (_, prev_end), (nxt_start, _) in zip(recs, recs[1:]):
                assert nxt_start == prev_end

    # dispatch balance under uniform indices, >= 32 pages per die (2x2 geometry)
    geo_bal = SsdGeometry(2, 2, 4096)
    model_bal = _mini_model(rng, rows=64 * 256)
    layout_bal = table_layout(model_bal.spec, geo_bal)
    for _ in range(1000):
        idx = rng.integers(0, 64 * 256, 600).tolist()
        reqs = translate_batch(layout_bal,
                               Workload.from_queries([Query([idx], np.zeros(2, np.float32))]))
        reads = dispatch(reqs, np.zeros(1, np.int64))
        channel, die, _ = page_location(geo_bal, reads.page)
        counts = np.unique(channel * 2 + die, return_counts=True)[1].tolist()
        assert len(counts) == 4 and min(counts) >= 32
        assert max(counts) / min(counts) <= 1.5

    # schedule causality on random pipeline stacks
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        dims = [int(rng.integers(1, 20)) for _ in range(n + 1)]
        kernels = []
        for l in range(n):
            kr = min(1 << int(rng.integers(0, 5)), KernelAssignment.largest_pow2(dims[l]))
            kc = min(1 << int(rng.integers(0, 5)), KernelAssignment.largest_pow2(dims[l + 1]))
            kernels.append((kr, kc))
        sched = pipeline_schedule(dims, kernels, inputs_at_cycles=[int(rng.integers(0, 40))])
        prev = None
        for e in pipeline_entries(sched):
            assert e.end_cycle >= e.start_cycle
            if e.scan == "row":
                assert all(s >= r for s, r in zip(e.chunk_start, e.chunk_ready))
                assert e.chunk_start == sorted(e.chunk_start)
            else:
                assert e.emissions == sorted(e.emissions)
                if prev is not None and prev.scan == "row" and prev.query == e.query:
                    assert e.start_cycle >= prev.end_cycle
            prev = e

    # decomposition exactness: the split first layer's carried order (bottom
    # half, then embedding half onto the same accumulators, bias last) is the
    # reference fold of the concatenated input, bit for bit
    for _ in range(1000):
        c = int(rng.integers(1, 7))
        rb = int(rng.integers(1, 7))
        re = int(rng.integers(1, 7))
        w = (rng.random((c, rb + re), dtype=np.float32) - 0.5)
        bias = (rng.random(c, dtype=np.float32) - 0.5)
        bv = (rng.random(rb, dtype=np.float32) - 0.5)
        ev = (rng.random(re, dtype=np.float32) - 0.5)
        got = mlp_forward([rb + re, c], [w], [bias], np.concatenate([bv, ev]))
        want = carried_split(w[:, :rb], w[:, rb:], bias, bv, ev)
        assert got.tobytes() == want.tobytes()

    # page placement bijection on random geometries
    for _ in range(1000):
        geo = SsdGeometry(int(rng.integers(1, 9)), int(rng.integers(1, 5)), 4096)
        total = int(rng.integers(1, 130))
        seen = set()
        for p in range(total):
            loc = page_location(geo, p)
            assert loc not in seen
            seen.add(loc)

    # metrics ordering: p50 <= p95 <= p99 <= max on random latency sets
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        lat = sorted(int(x) for x in rng.integers(1, 10**7, n))
        p50 = percentile_nearest_rank(lat, 0.50)
        p95 = percentile_nearest_rank(lat, 0.95)
        p99 = percentile_nearest_rank(lat, 0.99)
        assert p50 <= p95 <= p99 <= lat[-1]

    elapsed = time.monotonic() - t0
    report(8, elapsed < 120, f"7 property suites x 1000 cases, {elapsed:.1f}s")
