import math

import numpy as np
import pytest

from recssd.kernel_search import SearchSpace
from recssd.mlp_engine import KernelAssignment
from recssd.recmodel import (build_model, desk_model_spec, generate_workload,
                             reference_inference, zipf_cdf)
from recssd.sim import (MODE_EMB_VECTORSUM, MODE_RMSSD, MODE_SSD_BASELINE,
                        InfeasibleSearchError, Scenario, WorkloadConfig, compare,
                        metrics_json, run)
from recssd.storage import SsdGeometry, TimingParams, page_read_time

from oracles import (adder_oracle, decomposed_top_oracle, flash_schedule_oracle,
                     host_block_read, nearest_rank, pipeline_oracle, translate_index)

GEO = SsdGeometry(8, 4, 4096)
TP = TimingParams()


def scenario(mode, model, count, batch=2, kernels=None, auto=False, workload=None,
             dram_fraction=0.25, timing=TP, duration_ns=None):
    return Scenario(mode=mode, model=model, geometry=GEO, timing=timing,
                    workload=workload or WorkloadConfig(), query_count=count,
                    batch=batch, dram_fraction=dram_fraction, kernels=kernels,
                    auto_search=auto, duration_ns=duration_ns)


def rmc3(seed=3):
    return build_model(desk_model_spec("rmc3-mini"), seed)


ALLMAX = KernelAssignment.all_max(desk_model_spec("rmc3-mini"))


class TestBaselineMode:
    def test_full_dram_fraction_no_flash_reads(self):
        m = rmc3()
        r = run(scenario(MODE_SSD_BASELINE, m, 40, dram_fraction=1.0), 7)
        assert r.dram_misses == 0
        assert all(u == 0.0 for u in r.metrics.channel_utilization)
        # latency = lookups * dram hit + host MLP, identical for every query
        spec = m.spec
        macs = 13 * 64 + 64 * 16 + 144 * 64 + 64
        want = 8 * 8 * TP.dram_hit_ns_int + round(macs * TP.host_ns_per_mac)
        assert set(r.latencies_ns) == {want}

    def test_miss_cost_equals_host_block_read(self):
        # an embedding row never straddles a page, so the modeled miss cost
        # must equal the host_block_read latency for that row
        m = rmc3()
        from recssd.kernel_search import make_lookup_env
        emap, ftl = make_lookup_env(m, GEO)
        lba, off = translate_index(emap, 3, 12345)
        direct = host_block_read(ftl, lba + off // 512, 64, TP)
        modeled = page_read_time(GEO, TP) + TP.host_iface_ns(64) + TP.host_overhead_ns
        assert direct == modeled

    def test_uniform_miss_rate_matches_analytic(self):
        m = rmc3()
        r = run(scenario(MODE_SSD_BASELINE, m, 200), 11)   # 12800 lookups
        total = r.dram_hits + r.dram_misses
        assert total == 200 * 64
        resident = int(16384 * 0.25)
        want_miss = 1 - resident / 16384
        assert abs(r.dram_misses / total - want_miss) < 0.02

    def test_zipf_miss_rate_matches_analytic(self):
        m = rmc3()
        wl = WorkloadConfig(distribution="zipf", pooling=8, zipf_s=1.0)
        r = run(scenario(MODE_SSD_BASELINE, m, 200, workload=wl), 11)
        total = r.dram_hits + r.dram_misses
        cdf = zipf_cdf(16384, 1.0)
        want_miss = 1 - cdf[int(16384 * 0.25) - 1]
        assert abs(r.dram_misses / total - want_miss) < 0.02

    def test_replay_oracle_full_scale(self):
        m = rmc3()
        count, seed = 10_000, 9
        r = run(scenario(MODE_SSD_BASELINE, m, count), seed)

        # straight-line replay of the same rules
        spec = m.spec
        qs = generate_workload(spec, "uniform", 8, count, seed)
        rng = np.random.default_rng([seed, 0xD5A])
        masks = []
        for ts in spec.tables:
            mcount = int(ts.rows * 0.25)
            mask = np.zeros(ts.rows, dtype=bool)
            picks = rng.choice(ts.rows, size=mcount, replace=False)
            mask[picks] = True
            masks.append(mask)
        miss_ns = (TP.sense_ns + TP.xfer_ns(4096) + round(64 * 0.25) + 10_000)
        macs = 13 * 64 + 64 * 16 + 144 * 64 + 64
        mlp_ns = round(macs * 0.1)
        t = 0
        lats = []
        for q in qs:
            start = t
            for tbl, idx in enumerate(q.indices):
                for i in idx:
                    t += 100 if masks[tbl][i] else miss_ns
            t += mlp_ns
            lats.append(t - start)
        assert r.latencies_ns == lats
        assert r.metrics.horizon_ns == t
        assert r.metrics.throughput_qps == count * 1e9 / t
        s = sorted(lats)
        assert r.metrics.latency_p50_ns == nearest_rank(s, 0.50)
        assert r.metrics.latency_p99_ns == nearest_rank(s, 0.99)
        assert r.metrics.latency_max_ns == s[-1]


def replay_rmssd(model, count, batch, assignment, seed, timing=TP):
    """Independent straight-line replay of the rmssd batch rules."""
    spec = model.spec
    qs = generate_workload(spec, "uniform", 8, count, seed)
    rpp = GEO.page_size // (spec.ev_dim * 4)
    ppt = -(-spec.tables[0].rows // rpp)
    period = timing.clock_period_ns
    kc_e = assignment.ev[1]
    t_add = round(math.ceil(spec.ev_dim / kc_e) * period)

    bottom_dims = [(13, 64), (64, 16)]
    top_dims = [(144, 64), (64, 1)]

    device_free = 0
    latencies, completions = [], []
    k = 0
    while k * batch < count:
        bq = qs[k * batch:(k + 1) * batch]
        t0 = device_free
        # flash + adder
        page_of, order, items, seq = {}, [], [], 0
        for qid, q in enumerate(bq):
            for tbl, idx in enumerate(q.indices):
                for i in idx:
                    g = tbl * ppt + i // rpp
                    if g not in page_of:
                        page_of[g] = len(order)
                        order.append(g)
                    items.append((qid, tbl, seq, g))
                    seq += 1
        pages = [(0, 0, g % 8, (g // 8) % 4, j) for j, g in enumerate(order)]
        times, _ = flash_schedule_oracle(pages, timing.sense_ns, timing.xfer_ns(4096))
        arrivals = {g: times[page_of[g]][3] for g in order}
        done = adder_oracle([(arrivals[g], s, (qid, tbl)) for qid, tbl, s, g in items],
                            t_add, group=lambda key: key[0])
        e_ns = [max(done[(qid, tbl)] for tbl in range(8)) for qid in range(len(bq))]
        t_emb = max(e_ns)
        # MLP stacks
        b_cycles, _ = pipeline_oracle(bottom_dims, assignment.bottom, [0] * len(bq))
        e_cycles = [math.ceil(e / period) for e in e_ns]
        s_cycles = decomposed_top_oracle(top_dims, assignment.top, 16, 128,
                                         b_cycles, e_cycles)
        s_ns = [round(c * period) for c in s_cycles]
        for i in range(len(bq)):
            latencies.append(s_ns[i])
            completions.append(t0 + s_ns[i])
        device_free = t0 + max(max(s_ns), t_emb)
        k += 1
    horizon = max(completions)
    lat = sorted(latencies)
    return {
        "latencies": latencies,
        "horizon": horizon,
        "throughput": count * 1e9 / horizon,
        "p50": nearest_rank(lat, 0.50),
        "p95": nearest_rank(lat, 0.95),
        "p99": nearest_rank(lat, 0.99),
        "max": lat[-1],
    }


class TestRmssdMode:
    def test_replay_oracle(self):
        m = rmc3()
        count, seed = 500, 9
        r = run(scenario(MODE_RMSSD, m, count, batch=2, kernels=ALLMAX), seed)
        want = replay_rmssd(m, count, 2, ALLMAX, seed)
        assert r.latencies_ns == want["latencies"]
        assert r.metrics.horizon_ns == want["horizon"]
        assert r.metrics.throughput_qps == want["throughput"]
        assert r.metrics.latency_p50_ns == want["p50"]
        assert r.metrics.latency_p95_ns == want["p95"]
        assert r.metrics.latency_p99_ns == want["p99"]
        assert r.metrics.latency_max_ns == want["max"]

    def test_scores_exact_vs_reference(self):
        m = rmc3()
        count, seed = 200, 21
        r = run(scenario(MODE_RMSSD, m, count, kernels=ALLMAX), seed)
        qs = generate_workload(m.spec, "uniform", 8, count, seed)
        for got, q in zip(r.scores, qs):
            assert got == reference_inference(m, q)

    def test_requires_assignment_or_auto(self):
        m = rmc3()
        with pytest.raises(ValueError, match="assignment"):
            run(scenario(MODE_RMSSD, m, 4), 0)

    def test_auto_search_used(self):
        m = rmc3()
        r = run(scenario(MODE_RMSSD, m, 8, auto=True), 5)
        assert r.search_outcome is not None and r.search_outcome.feasible
        assert r.metrics.resources is not None

    def test_infeasible_search_raises(self):
        m = rmc3()
        # 1 ns sense and 1 ns page transfer, the shortest a scenario accepts
        bad = TimingParams(page_read_us=1e-3, channel_transfer_ns_per_byte=2.5e-4,
                           fc_clock_mhz=1e-4)
        sc = scenario(MODE_RMSSD, m, 4, auto=True, timing=bad,
                      workload=WorkloadConfig(pooling=1))
        sc.space = SearchSpace(initial_batch=1, max_batch=2)
        with pytest.raises(InfeasibleSearchError):
            run(sc, 0)

    def test_spans_causal_and_complete(self):
        m = rmc3()
        r = run(scenario(MODE_RMSSD, m, 20, kernels=ALLMAX), 3)
        stages = {}
        for qid, stage, s, e in r.spans:
            assert 0 <= s <= e
            stages.setdefault(qid, set()).add(stage)
        assert set(stages) == set(range(20))
        assert all(v == {"emb", "bottom_mlp", "top_mlp"} for v in stages.values())


class TestEmbVectorSumMode:
    def test_replay_oracle(self):
        m = rmc3()
        count, seed, batch = 300, 9, 2
        r = run(scenario(MODE_EMB_VECTORSUM, m, count, batch=batch), seed)

        spec = m.spec
        qs = generate_workload(spec, "uniform", 8, count, seed)
        rpp, ppt = 64, 256
        macs = 13 * 64 + 64 * 16 + 144 * 64 + 64
        mlp_ns = round(macs * 0.1)
        xfer = round(128 * 16 * 4 * 0.25 / 16 / 4 * 16 * 4) if False else \
            round(8 * 16 * 4 * 0.25) + 10_000
        device_free, host_free = 0, 0
        completions, latencies = [], []
        k = 0
        while k * batch < count:
            bq = qs[k * batch:(k + 1) * batch]
            t0 = device_free
            page_of, order, items, seq = {}, [], [], 0
            for qid, q in enumerate(bq):
                for tbl, idx in enumerate(q.indices):
                    for i in idx:
                        g = tbl * ppt + i // rpp
                        if g not in page_of:
                            page_of[g] = len(order)
                            order.append(g)
                        items.append((qid, tbl, seq, g))
                        seq += 1
            pages = [(0, 0, g % 8, (g // 8) % 4, j) for j, g in enumerate(order)]
            times, _ = flash_schedule_oracle(pages, TP.sense_ns, TP.xfer_ns(4096))
            arrivals = {g: times[page_of[g]][3] for g in order}
            done = adder_oracle([(arrivals[g], s, (qid, tbl)) for qid, tbl, s, g in items],
                                round(1 * TP.clock_period_ns), group=lambda key: key[0])
            e_ns = [max(done[(qid, tbl)] for tbl in range(8)) for qid in range(len(bq))]
            for i in range(len(bq)):
                ready = t0 + e_ns[i] + xfer
                start = max(ready, host_free)
                s_abs = start + mlp_ns
                host_free = s_abs
                latencies.append(s_abs - t0)
                completions.append(s_abs)
            device_free = t0 + max(e_ns)
            k += 1
        assert r.latencies_ns == latencies
        assert r.metrics.horizon_ns == max(completions)

    def test_scores_within_tolerance(self):
        m = rmc3()
        r = run(scenario(MODE_EMB_VECTORSUM, m, 100), 13)
        qs = generate_workload(m.spec, "uniform", 8, 100, 13)
        for got, q in zip(r.scores, qs):
            ref = reference_inference(m, q)
            assert got == pytest.approx(ref, rel=1e-5)


class TestMetricsAndDeterminism:
    def test_zero_query_scenario(self):
        m = rmc3()
        r = run(scenario(MODE_SSD_BASELINE, m, 0), 1)
        assert r.metrics.completed == 0
        assert r.metrics.throughput_qps == 0.0
        assert r.metrics.horizon_ns == 0

    def test_percentile_ordering(self):
        for mode, kw in ((MODE_RMSSD, {"kernels": ALLMAX}), (MODE_EMB_VECTORSUM, {}),
                         (MODE_SSD_BASELINE, {})):
            r = run(scenario(mode, rmc3(), 60, **kw), 17)
            m = r.metrics
            assert m.latency_p50_ns <= m.latency_p95_ns <= m.latency_p99_ns <= m.latency_max_ns

    def test_conservation(self):
        r = run(scenario(MODE_RMSSD, rmc3(), 30, kernels=ALLMAX), 2)
        assert r.metrics.issued == 30
        assert r.metrics.issued == r.metrics.completed + r.metrics.in_flight
        assert r.metrics.in_flight == 0

    def test_duration_cap_limits_admission(self):
        m = rmc3()
        for mode, kw in ((MODE_RMSSD, {"kernels": ALLMAX}), (MODE_EMB_VECTORSUM, {}),
                         (MODE_SSD_BASELINE, {})):
            r_full = run(scenario(mode, m, 50, **kw), 3)
            cap = r_full.metrics.horizon_ns // 2
            r = run(scenario(mode, m, 50, duration_ns=cap, **kw), 3)
            n = r.metrics.issued
            assert 0 < n < 50, mode
            assert n == r.metrics.completed
            # the cut run is the uncut run's first n queries
            assert r.latencies_ns == r_full.latencies_ns[:n], mode
            assert r.scores == r_full.scores[:n], mode
            assert r.spans == [s for s in r_full.spans if s[0] < n], mode

    def test_zero_duration_admits_nothing_in_every_mode(self):
        m = rmc3()
        for mode, kw in ((MODE_RMSSD, {"kernels": ALLMAX}), (MODE_EMB_VECTORSUM, {}),
                         (MODE_SSD_BASELINE, {})):
            r = run(scenario(mode, m, 10, duration_ns=0, **kw), 3)
            assert r.metrics.issued == 0 and r.metrics.completed == 0

    def test_bit_identical_reruns(self):
        for mode, kw in ((MODE_RMSSD, {"kernels": ALLMAX, "auto": False}),
                         (MODE_EMB_VECTORSUM, {}), (MODE_SSD_BASELINE, {})):
            a = run(scenario(mode, rmc3(), 40, **kw), 23)
            b = run(scenario(mode, rmc3(), 40, **kw), 23)
            assert metrics_json(a.metrics) == metrics_json(b.metrics)
            assert a.scores == b.scores and a.spans == b.spans
        c = run(scenario(MODE_SSD_BASELINE, rmc3(), 40), 24)
        assert metrics_json(c.metrics) != metrics_json(b.metrics)

    def test_event_count_positive_and_clock_monotone(self):
        # one event per completed query, plus one per dispatched batch in the
        # device modes; the baseline has no dispatch events
        for mode, kw, batches in ((MODE_RMSSD, {"kernels": ALLMAX}, 4),
                                  (MODE_EMB_VECTORSUM, {}, 4), (MODE_SSD_BASELINE, {}, 0)):
            r = run(scenario(mode, rmc3(), 10, batch=3, **kw), 1)
            assert r.metrics.completed == 10
            assert r.metrics.event_count == 10 + batches, mode


class TestCompare:
    def test_self_comparison_all_ratios_one(self):
        m = rmc3()
        rep, _ = compare([scenario(MODE_SSD_BASELINE, m, 30),
                          scenario(MODE_SSD_BASELINE, m, 30)], 5)
        assert rep.rows[1].throughput_x == 1.0
        assert rep.rows[1].p99_reduction_pct == 0.0

    def test_quarter_dram_strictly_slower_than_full(self):
        m = rmc3()
        rep, _ = compare([scenario(MODE_SSD_BASELINE, m, 60, dram_fraction=1.0),
                          scenario(MODE_SSD_BASELINE, m, 60, dram_fraction=0.25)], 5)
        assert rep.rows[1].throughput_x < 1.0

    def test_rmssd_vs_baseline_improvement(self):
        m = rmc3()
        rep, _ = compare([scenario(MODE_SSD_BASELINE, m, 200),
                          scenario(MODE_RMSSD, m, 200, kernels=ALLMAX)], 5)
        assert rep.rows[1].throughput_x >= 10.0
        assert rep.rows[1].p99_reduction_pct >= 80.0

    def test_mismatched_models_rejected(self):
        a = scenario(MODE_SSD_BASELINE, rmc3(), 10)
        b = scenario(MODE_SSD_BASELINE, build_model(desk_model_spec("ncf-mini"), 3), 10)
        with pytest.raises(ValueError, match="share one model"):
            compare([a, b], 1)
        c = scenario(MODE_SSD_BASELINE, rmc3(), 10,
                     workload=WorkloadConfig(pooling=4))
        with pytest.raises(ValueError, match="workload"):
            compare([a, c], 1)
        with pytest.raises(ValueError, match="at least two"):
            compare([a], 1)
