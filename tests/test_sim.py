import dataclasses
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from recssd.ev_engine import table_layout
from recssd.kernel_search import ResourceModel, SearchSpace
from recssd.mlp_engine import KernelAssignment
from recssd.recmodel import (Model, ModelSpec, TableSpec, build_model, desk_model_spec,
                             generate_workload, reference_inference, zipf_cdf)
from recssd.sim import (MODE_EMB_VECTORSUM, MODE_RMSSD, MODE_SSD_BASELINE,
                        InfeasibleSearchError, Scenario, Session, WorkloadConfig, compare,
                        metrics_json, run, spans_to_csv)
from recssd.storage import SsdGeometry, TimingParams

from oracles import (adder_oracle, decomposed_top_oracle, flash_schedule_oracle,
                     host_block_read, nearest_rank, page_phases_ns, pipeline_oracle,
                     translate_index)

GEO = SsdGeometry(8, 4, 4096)
TP = TimingParams()


def scenario(mode, model, count, batch=2, kernels=None, workload=None,
             dram_fraction=0.25, timing=TP, duration_ns=None, geometry=GEO):
    return Scenario(mode=mode, model=model, geometry=geometry, timing=timing,
                    workload=workload or WorkloadConfig(), query_count=count,
                    batch=batch, dram_fraction=dram_fraction, kernels=kernels,
                    duration_ns=duration_ns)


def rmc3(seed=3):
    return build_model(desk_model_spec("rmc3-mini"), seed)


ALLMAX = KernelAssignment.all_max(desk_model_spec("rmc3-mini"))


def span_rows(result):
    """A run's spans as (query, stage, start_ns, end_ns) rows, query by query
    and each query's stages in pipeline order, as trace.csv lists them."""
    cols = [(name, s.tolist(), e.tolist()) for name, s, e in result.spans]
    return [(q, name, s[q], e[q]) for q in range(len(result.latencies_ns))
            for name, s, e in cols]


class TestBaselineMode:
    def test_full_dram_fraction_no_flash_reads(self):
        m = rmc3()
        r = run(scenario(MODE_SSD_BASELINE, m, 40, dram_fraction=1.0), 7)
        assert r.dram_misses == 0
        assert all(u == 0.0 for u in r.metrics.channel_utilization)
        # latency = lookups * dram hit + host MLP, identical for every query
        spec = m.spec
        macs = 13 * 64 + 64 * 16 + 144 * 64 + 64
        want = 8 * 8 * round(TP.dram_hit_ns) + round(macs * TP.host_ns_per_mac)
        assert set(r.latencies_ns) == {want}

    def test_miss_cost_equals_host_block_read(self):
        # an embedding row never straddles a page, so the modeled miss cost
        # must equal the host_block_read latency for that row
        m = rmc3()
        layout = table_layout(m.spec, GEO)
        page, off = translate_index(layout, 3, 12345)
        direct = host_block_read(GEO, layout.pages, page * GEO.page_size + off, 64, TP)
        modeled = sum(page_phases_ns(TP, GEO)) + round(64 * 0.25) + 10_000
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
        miss_ns = sum(page_phases_ns(TP, GEO)) + round(64 * 0.25) + 10_000
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


def replay_rmssd(model, count, batch, assignment, seed, timing=TP, floors=(None, None)):
    """Independent straight-line replay of the rmssd batch rules on the
    model's own MLP stacks; its tables must share one row count. `floors`
    holds the bottom and top stacks' weight-fetch floors in cycles."""
    spec = model.spec
    qs = generate_workload(spec, "uniform", 8, count, seed)
    rpp = GEO.page_size // (spec.ev_dim * 4)
    ppt = -(-spec.tables[0].rows // rpp)
    period = 1000.0 / timing.fc_clock_mhz
    kc_e = assignment.ev[1]
    t_add = round(math.ceil(spec.ev_dim / kc_e) * period)

    bottom_dims = list(zip(spec.bottom_mlp_dims, spec.bottom_mlp_dims[1:]))
    top_dims = list(zip(spec.top_mlp_dims, spec.top_mlp_dims[1:]))

    device_free = 0
    latencies, completions, bottom_end, top_start = [], [], [], []
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
        pages = [(0, 0, g % GEO.channels, (g // GEO.channels) % GEO.dies_per_channel, j)
                 for j, g in enumerate(order)]
        times, _ = flash_schedule_oracle(pages, *page_phases_ns(timing, GEO))
        arrivals = {g: times[page_of[g]][3] for g in order}
        done = adder_oracle([(arrivals[g], s, (qid, tbl)) for qid, tbl, s, g in items],
                            t_add, group=lambda key: key[0])
        e_ns = [max(done[(qid, tbl)] for tbl in range(spec.num_tables))
                for qid in range(len(bq))]
        t_emb = max(e_ns)
        # MLP stacks
        b_cycles, _ = pipeline_oracle(bottom_dims, assignment.bottom, [0] * len(bq),
                                      floors[0])
        e_cycles = [math.ceil(e / period) for e in e_ns]
        s_cycles, l0_cycles = decomposed_top_oracle(top_dims, assignment.top,
                                                    spec.bottom_out_width, spec.emb_out_width,
                                                    b_cycles, e_cycles, floors[1])
        s_ns = [round(c * period) for c in s_cycles]
        bottom_end += [round(c * period) for c in b_cycles]
        top_start += [t0 + round(c * period) for c in l0_cycles]
        for i in range(len(bq)):
            latencies.append(s_ns[i])
            completions.append(t0 + s_ns[i])
        device_free = t0 + max(max(s_ns), t_emb)
        k += 1
    horizon = max(completions)
    lat = sorted(latencies)
    return {
        "latencies": latencies,
        "bottom_end": bottom_end,
        "top_mlp": list(zip(top_start, completions)),
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
        # top-MLP spans run from the first layer's start to the completion
        assert [(s, e) for _, stage, s, e in span_rows(r) if stage == "top_mlp"] == want["top_mlp"]

    def test_replay_oracle_three_layer_stacks(self):
        # 3-layer bottom and top stacks, so the top's last layer is a column
        # pass after a row pass; batches of 3 end in a batch of one
        spec = ModelSpec(tables=tuple(TableSpec(4096, 16) for _ in range(8)),
                         bottom_mlp_dims=(13, 48, 32, 16), top_mlp_dims=(144, 64, 32, 1),
                         dense_dim=13)
        m = build_model(spec, 4)
        kernels = KernelAssignment(((4, 16), (8, 8), (16, 4)), ((32, 16), (8, 8), (4, 1)),
                                   (1, 16))
        count, seed, batch = 100, 12, 3
        r = run(scenario(MODE_RMSSD, m, count, batch=batch, kernels=kernels), seed)
        want = replay_rmssd(m, count, batch, kernels, seed)
        assert r.latencies_ns == want["latencies"]
        assert r.metrics.horizon_ns == want["horizon"]
        assert r.metrics.latency_p99_ns == want["p99"]
        bottom = [(s, e) for _, stage, s, e in span_rows(r) if stage == "bottom_mlp"]
        assert [e - s for s, e in bottom] == want["bottom_end"]
        assert [(s, e) for _, stage, s, e in span_rows(r) if stage == "top_mlp"] == want["top_mlp"]

    def test_replay_oracle_spilled_300mhz_partial_batch(self):
        # a 5000-byte BRAM holds the bottom stack's first layer (3584 bytes
        # with biases) and the top stack's last (260): the bottom's second
        # layer (4160) and the top's first (37120) stream their weights at
        # 0.1 byte/ns. 101 queries in batches of 4 end in a batch of one.
        m = rmc3()
        count, seed, batch = 101, 10, 4
        timing = TimingParams(fc_clock_mhz=300.0)
        sc = scenario(MODE_RMSSD, m, count, batch=batch, kernels=ALLMAX, timing=timing)
        plain = run(sc, seed)
        r = run(dataclasses.replace(sc, resource_model=ResourceModel(
            bram_bytes=5000, dram_bandwidth_bytes_per_s=1e8)), seed)
        period = 1000.0 / timing.fc_clock_mhz
        floors = ([0, math.ceil(41600 / period)], [math.ceil(371200 / period), 0])
        want = replay_rmssd(m, count, batch, ALLMAX, seed, timing, floors)
        assert r.latencies_ns == want["latencies"]
        assert r.metrics.horizon_ns == want["horizon"]
        assert r.metrics.latency_p99_ns == want["p99"]
        # bottom-MLP spans run from each batch's dispatch
        bottom = [(s, e) for _, stage, s, e in span_rows(r) if stage == "bottom_mlp"]
        assert [e - s for s, e in bottom] == want["bottom_end"]
        assert [(s, e) for _, stage, s, e in span_rows(r) if stage == "top_mlp"] == want["top_mlp"]
        # the floors delay some queries
        assert r.latencies_ns != plain.latencies_ns

    def test_scores_exact_vs_reference(self):
        m = rmc3()
        count, seed = 200, 21
        r = run(scenario(MODE_RMSSD, m, count, kernels=ALLMAX), seed)
        qs = generate_workload(m.spec, "uniform", 8, count, seed)
        for got, q in zip(r.scores, qs):
            assert got == reference_inference(m, q)

    def test_auto_search_used(self):
        m = rmc3()
        sc = scenario(MODE_RMSSD, m, 8)
        assert sc.auto_search and not scenario(MODE_RMSSD, m, 8, kernels=ALLMAX).auto_search
        r = run(sc, 5)
        assert r.search_outcome is not None and r.search_outcome.feasible
        assert r.metrics.resources is not None

    def test_searched_run_places_the_weights_once(self, monkeypatch):
        # the spill floors, the search's resources and the run's resources
        # all read the scenario's one placement
        import recssd.kernel_search
        import recssd.sim
        calls = []
        for module in (recssd.sim, recssd.kernel_search):
            placed = module.bram_placement
            monkeypatch.setattr(module, "bram_placement",
                                lambda *a, placed=placed: calls.append(a) or placed(*a))
        r = run(Scenario(MODE_RMSSD, rmc3(), GEO, TP, WorkloadConfig(), query_count=8,
                         resource_model=ResourceModel(bram_bytes=20_000)), 5)
        assert len(calls) == 1
        assert r.search_outcome.feasible and r.search_outcome.resources.spilled
        assert r.metrics.resources == r.search_outcome.resources.to_dict()

    def test_infeasible_search_raises(self):
        m = rmc3()
        # 1 ns sense and 1 ns page transfer, the shortest a scenario accepts
        bad = TimingParams(page_read_us=1e-3, channel_transfer_ns_per_byte=2.5e-4,
                           fc_clock_mhz=1e-4)
        sc = dataclasses.replace(scenario(MODE_RMSSD, m, 4, batch=1, timing=bad,
                                          workload=WorkloadConfig(pooling=1)),
                                 space=SearchSpace(max_batch=2))
        with pytest.raises(InfeasibleSearchError):
            run(sc, 0)

    def test_spans_causal_and_complete(self):
        m = rmc3()
        r = run(scenario(MODE_RMSSD, m, 20, kernels=ALLMAX), 3)
        stages = {}
        for qid, stage, s, e in span_rows(r):
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
            times, _ = flash_schedule_oracle(pages, *page_phases_ns(TP, GEO))
            arrivals = {g: times[page_of[g]][3] for g in order}
            done = adder_oracle([(arrivals[g], s, (qid, tbl)) for qid, tbl, s, g in items],
                                round(1000.0 / TP.fc_clock_mhz), group=lambda key: key[0])
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
        assert spans_to_csv(r.spans) == "query_id,stage,start_ns,end_ns\n"

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
            assert span_rows(r) == [s for s in span_rows(r_full) if s[0] < n], mode

    def test_chunks_are_invisible_and_cut_inside_the_second(self, monkeypatch):
        # batches of 3 over 1121 queries: three chunks at CHUNK_QUERIES = 512,
        # the last batch partial; a cut inside the second chunk keeps a prefix
        from recssd import sim
        m = rmc3()
        count, batch = 1121, 3
        chunk = sim.CHUNK_QUERIES // batch * batch
        assert count % batch and 2 * chunk < count
        for mode, kw in ((MODE_RMSSD, {"kernels": ALLMAX}), (MODE_EMB_VECTORSUM, {})):
            r_full = run(scenario(mode, m, count, batch=batch, **kw), 4)
            with monkeypatch.context() as patch:
                patch.setattr(sim, "CHUNK_QUERIES", 10 * count)
                r_one = run(scenario(mode, m, count, batch=batch, **kw), 4)
            assert metrics_json(r_full.metrics) == metrics_json(r_one.metrics), mode
            assert span_rows(r_full) == span_rows(r_one) and r_full.scores == r_one.scores, mode
            # dispatch times: the end of each query's last span minus its latency
            t0 = [s[3] - lat for s, lat in zip(span_rows(r_full)[2::3], r_full.latencies_ns)]
            # a batch is dispatched while its t0 is before the cut
            cut = t0[chunk + 40 * batch]
            r = run(scenario(mode, m, count, batch=batch, duration_ns=cut, **kw), 4)
            n = r.metrics.issued
            assert n == chunk + 40 * batch, mode
            assert r.latencies_ns == r_full.latencies_ns[:n], mode
            assert r.scores == r_full.scores[:n], mode
            assert span_rows(r) == [s for s in span_rows(r_full) if s[0] < n], mode
            # and it is the uncut run of those queries, busy times included
            r_prefix = run(scenario(mode, m, n, batch=batch, **kw), 4)
            assert metrics_json(r.metrics) == metrics_json(r_prefix.metrics), mode

    def test_baseline_translates_only_its_admitted_queries(self, monkeypatch):
        from recssd import sim
        seen, translate = [], sim.translate_batch

        def counted(layout, queries):
            seen.append(len(queries))
            return translate(layout, queries)

        monkeypatch.setattr(sim, "translate_batch", counted)
        r = run(scenario(MODE_SSD_BASELINE, rmc3(), 400, duration_ns=2_000_000), 3)
        assert 0 < r.metrics.issued < 400
        assert seen == [r.metrics.issued]

    def test_zero_duration_admits_nothing_in_every_mode(self):
        m = rmc3()
        for mode, kw in ((MODE_RMSSD, {"kernels": ALLMAX}), (MODE_EMB_VECTORSUM, {}),
                         (MODE_SSD_BASELINE, {})):
            r = run(scenario(mode, m, 10, duration_ns=0, **kw), 3)
            assert r.metrics.issued == 0 and r.metrics.completed == 0

    def test_bit_identical_reruns(self):
        for mode, kw in ((MODE_RMSSD, {"kernels": ALLMAX}),
                         (MODE_EMB_VECTORSUM, {}), (MODE_SSD_BASELINE, {})):
            a = run(scenario(mode, rmc3(), 40, **kw), 23)
            b = run(scenario(mode, rmc3(), 40, **kw), 23)
            assert metrics_json(a.metrics) == metrics_json(b.metrics)
            assert a.scores == b.scores and span_rows(a) == span_rows(b)
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


SLOW_TP = TimingParams(page_read_us=60.0)
TWO_DIE_GEO = SsdGeometry(8, 2, 4096)


def sharing_scenarios(model, count, cut):
    """Device scenarios that differ in each part of the key under which a
    compare shares its lookups, (geometry, sense, transfer, batch, chunk
    start), and
    one run of batches of 3 cut at `cut` ns."""
    return [scenario(MODE_RMSSD, model, count, batch=3, kernels=ALLMAX),
            scenario(MODE_EMB_VECTORSUM, model, count, batch=3),
            scenario(MODE_EMB_VECTORSUM, model, count, batch=2),
            scenario(MODE_EMB_VECTORSUM, model, count, batch=3, timing=SLOW_TP),
            scenario(MODE_EMB_VECTORSUM, model, count, batch=3, geometry=TWO_DIE_GEO),
            scenario(MODE_EMB_VECTORSUM, model, count, batch=3, duration_ns=cut)]


def dispatch_times(result):
    """Each query's dispatch time: the end of its last span minus its latency."""
    stages = len(result.spans)
    last = span_rows(result)[stages - 1::stages]
    return [s[3] - lat for s, lat in zip(last, result.latencies_ns)]


def scores_bytes(result) -> bytes:
    """A run's scores as float64 bytes, so that -0.0 and 0.0 differ."""
    return np.array(result.scores, dtype=np.float64).tobytes()


def mlp_calls(monkeypatch) -> list:
    """The dims of every `mlp_forward` call the scenario runner makes from now on."""
    from recssd import sim
    calls, forward = [], sim.mlp_forward

    def counted(dims, *args):
        calls.append(tuple(dims))
        return forward(dims, *args)

    monkeypatch.setattr(sim, "mlp_forward", counted)
    return calls


class TestCompare:
    def test_each_result_equals_its_lone_run(self):
        # 1121 queries in batches of 3 make three chunks; the cut falls inside
        # the second
        from recssd import sim
        m = rmc3()
        count, seed = 1121, 4
        chunk = sim.CHUNK_QUERIES // 3 * 3
        queries = generate_workload(m.spec, "uniform", 8, count, seed)
        full = run(scenario(MODE_EMB_VECTORSUM, m, count, batch=3), seed, Session(queries))
        scenarios = sharing_scenarios(m, count, dispatch_times(full)[chunk + 40 * 3])
        _, results = compare(scenarios, seed)
        assert results[-1].metrics.issued == chunk + 40 * 3
        for s, r in zip(scenarios, results):
            alone = run(s, seed, Session(queries))
            assert metrics_json(r.metrics) == metrics_json(alone.metrics), s
            assert r.scores == alone.scores and r.latencies_ns == alone.latencies_ns, s
            assert span_rows(r) == span_rows(alone), s

    def test_compare_schedules_each_lookup_once(self, monkeypatch):
        # chunks of 12 queries over 40: four chunks for batches of 2 and of 3
        from recssd import ev_engine, sim
        monkeypatch.setattr(sim, "CHUNK_QUERIES", 12)
        m = rmc3()
        full = run(scenario(MODE_EMB_VECTORSUM, m, 40, batch=3), 4)
        scenarios = sharing_scenarios(m, 40, dispatch_times(full)[12 + 2 * 3])
        calls = []
        schedule = ev_engine.schedule_page_reads

        def counted(lane, page, geometry, sense, xfer):
            calls.append((geometry, sense, xfer))
            return schedule(lane, page, geometry, sense, xfer)

        monkeypatch.setattr(ev_engine, "schedule_page_reads", counted)
        _, results = compare(scenarios, 4)
        assert results[-1].metrics.issued == 12 + 2 * 3
        # four chunks each for batches of 3 and of 2 on the default device,
        # with the slow flash and on two dies per channel; the cut run's two
        # chunks are those of the batch-3 run before it
        fast, slow = (page_phases_ns(tp, GEO) for tp in (TP, SLOW_TP))
        assert Counter(calls) == {(GEO, *fast): 8, (GEO, *slow): 4, (TWO_DIE_GEO, *fast): 4}
        # a lone run schedules each of its chunks once
        calls.clear()
        run(scenarios[1], 4)
        assert calls == [(GEO, *fast)] * 4

    def test_compare_shares_lookups_across_engine_and_host_times(self, monkeypatch):
        # a lookup reads only the flash's sense and transfer times: scenarios
        # that differ only in the engine clock or in the host's compute share it
        from recssd import ev_engine
        calls, schedule = [], ev_engine.schedule_page_reads

        def counted(*args):
            calls.append(args[2:])
            return schedule(*args)

        monkeypatch.setattr(ev_engine, "schedule_page_reads", counted)
        m = rmc3()
        for mode, kw, field, values in ((MODE_RMSSD, {"kernels": ALLMAX}, "fc_clock_mhz",
                                         (200.0, 300.0)),
                                        (MODE_EMB_VECTORSUM, {}, "host_ns_per_mac", (0.1, 0.2))):
            scenarios = [scenario(mode, m, 40, timing=TimingParams(**{field: v}), **kw)
                         for v in values]
            calls.clear()
            _, results = compare(scenarios, 4)
            assert calls == [(GEO, *page_phases_ns(TP, GEO))], mode
            assert metrics_json(results[0].metrics) != metrics_json(results[1].metrics), mode
            lone = run(scenarios[1], 4)
            assert metrics_json(results[1].metrics) == metrics_json(lone.metrics), mode

    def test_compare_scores_each_distinct_mlp_input_once(self, monkeypatch):
        # the bottom MLP reads the same dense rows in every mode, and the
        # device modes' flash-read sums equal the baseline's host gather
        calls = mlp_calls(monkeypatch)
        m = rmc3()
        _, results = compare([scenario(MODE_SSD_BASELINE, m, 30),
                              scenario(MODE_EMB_VECTORSUM, m, 30),
                              scenario(MODE_RMSSD, m, 30, kernels=ALLMAX)], 6)
        assert calls == [m.spec.bottom_mlp_dims, m.spec.top_mlp_dims]
        assert results[0].scores == results[1].scores == results[2].scores
        assert scores_bytes(results[0]) == scores_bytes(run(scenario(MODE_RMSSD, m, 30,
                                                                     kernels=ALLMAX), 6))

    def test_models_of_one_spec_share_no_scoring(self):
        # one spec, two seeds: the weights and tables differ, so neither run
        # may take the other's MLP outputs; nor may a model that differs from
        # the first in one row of its bottom output layer's weights alone, or
        # in its top output bias alone
        m = rmc3(seed=3)
        w = [v.copy() for v in m.bottom_weights]
        w[-1][0] += np.float32(0.5)
        bias = [v.copy() for v in m.top_biases]
        bias[-1] += np.float32(0.5)
        models = [m, rmc3(seed=4),
                  Model(m.spec, m.tables, w, m.bottom_biases, m.top_weights, m.top_biases),
                  Model(m.spec, m.tables, m.bottom_weights, m.bottom_biases, m.top_weights,
                        bias)]
        scenarios = [scenario(MODE_SSD_BASELINE, models[0], 25),
                     scenario(MODE_EMB_VECTORSUM, models[1], 25),
                     scenario(MODE_SSD_BASELINE, models[2], 25),
                     scenario(MODE_EMB_VECTORSUM, models[3], 25)]
        _, results = compare(scenarios, 7)
        for s, r in zip(scenarios, results):
            assert scores_bytes(r) == scores_bytes(run(s, 7)), s.mode
        for r in results[1:]:
            assert r.scores != results[0].scores

    def test_a_wrong_flash_row_is_scored_on_its_own(self, monkeypatch):
        # the device reads its flash pages over a copy of the tables in which
        # one looked-up row is perturbed: the device mode's top MLP input
        # differs from the baseline's, so it is computed again and its first
        # query's score differs
        from recssd import ev_engine
        m = rmc3()
        seed, count = 8, 20
        row = generate_workload(m.spec, "uniform", 8, count, seed).index[0, 2, 0]
        build = ev_engine.build_flash_image

        def perturbed(tables, layout):
            tables = [dataclasses.replace(t, values=t.values.copy()) for t in tables]
            tables[2].values[row, 0] += np.float32(0.25)
            return build(tables, layout)

        monkeypatch.setattr(ev_engine, "build_flash_image", perturbed)
        calls = mlp_calls(monkeypatch)
        _, (base, dev) = compare([scenario(MODE_SSD_BASELINE, m, count),
                                  scenario(MODE_EMB_VECTORSUM, m, count)], seed)
        assert calls == [m.spec.bottom_mlp_dims, m.spec.top_mlp_dims, m.spec.top_mlp_dims]
        assert dev.scores[0] != base.scores[0]
        assert base.scores == [reference_inference(m, q)
                               for q in generate_workload(m.spec, "uniform", 8, count, seed)]

    def test_a_layout_bug_surfaces(self, monkeypatch):
        # the device maps each (page, slot) back to a row through the
        # layout's inverse, not through the translation: a translation that
        # puts every row one slot further along its page either reads a slot
        # that holds no row or scores some query unlike the reference
        from recssd import ev_engine
        m, seed, count = rmc3(), 5, 20
        locate = ev_engine._locate

        def shifted(layout, table, index):
            page, slot = locate(layout, table, index)
            return page, (slot + 1) % layout.rows_per_page

        monkeypatch.setattr(ev_engine, "_locate", shifted)
        try:
            scores = run(scenario(MODE_EMB_VECTORSUM, m, count), seed).scores
        except ValueError:
            return
        assert scores != [reference_inference(m, q)
                          for q in generate_workload(m.spec, "uniform", 8, count, seed)]

    def test_a_warm_compare_copies_no_tables(self):
        # the device modes read the tables in place: a warm three-mode
        # compare of 200 uniform queries at batch 2 on rmc3-mini (8 tables of
        # 1 MB) peaks under 5 MB above its start, where a device run that
        # copied the tables' 8 MB would peak above it
        m = rmc3()
        scenarios = [scenario(mode, m, 200) for mode in
                     (MODE_SSD_BASELINE, MODE_EMB_VECTORSUM, MODE_RMSSD)]
        compare(scenarios, 1)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            compare(scenarios, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 5 * 2 ** 20

    def test_session_refuses_another_model_before_translating(self, monkeypatch):
        # a session keys its lookups and scoring passes without the model, so
        # one that has run rmc3-mini refuses an ncf-mini scenario in every
        # mode before it translates a lookup (or runs a kernel search), and
        # still runs rmc3-mini scenarios after that
        from recssd import ev_engine, sim
        m, seed = rmc3(), 3
        session = Session(generate_workload(m.spec, "uniform", 8, 20, seed))
        first = run(scenario(MODE_EMB_VECTORSUM, m, 20), seed, session)
        calls = []
        for module in (ev_engine, sim):
            monkeypatch.setattr(module, "translate_batch",
                                lambda *args, f=module.translate_batch: calls.append(args)
                                or f(*args))
        other = build_model(desk_model_spec("ncf-mini"), seed)
        for mode in (MODE_RMSSD, MODE_EMB_VECTORSUM, MODE_SSD_BASELINE):
            with pytest.raises(ValueError, match="scenarios must share one model"):
                run(scenario(mode, other, 20), seed, session)
        assert calls == []
        again = run(scenario(MODE_EMB_VECTORSUM, m, 20), seed, session)
        assert again.scores == first.scores and calls == []    # every chunk was kept
        run(scenario(MODE_SSD_BASELINE, m, 20), seed, session)
        assert len(calls) == 1

    def test_session_refuses_another_workload_before_translating(self, monkeypatch):
        # a session holds its workload: a scenario of 40 uniform queries of
        # pooling 8 is refused on a session of 20 zipf queries of pooling 4
        # in every mode before it translates a lookup, as is one that differs
        # only in its count or only in its pooling; one that matches both runs
        from recssd import ev_engine, sim
        m, seed = rmc3(), 1
        session = Session(generate_workload(m.spec, "zipf", 4, 20, seed))
        calls = []
        for module in (ev_engine, sim):
            monkeypatch.setattr(module, "translate_batch",
                                lambda *args, f=module.translate_batch: calls.append(args)
                                or f(*args))
        for mode in (MODE_RMSSD, MODE_EMB_VECTORSUM, MODE_SSD_BASELINE):
            for count, pooling in ((40, 8), (40, 4), (20, 8)):
                with pytest.raises(ValueError, match="scenarios must share one workload"):
                    run(scenario(mode, m, count, workload=WorkloadConfig(pooling=pooling)),
                        seed, session)
        assert calls == []
        zipf = WorkloadConfig(distribution="zipf", pooling=4)
        assert run(scenario(MODE_EMB_VECTORSUM, m, 20, workload=zipf), seed,
                   session).metrics.issued == 20
        assert len(calls) == 1

    def test_session_refuses_another_workload_config(self, monkeypatch):
        # the baseline's resident set follows the scenario's distribution, so
        # a uniform scenario of the same count and pooling is refused on a
        # zipf session before it translates a lookup: a drawn session knows
        # its config, and a hand-built one takes the first admitted one's
        from recssd import ev_engine, sim
        m, seed = rmc3(), 1
        zipf = WorkloadConfig(distribution="zipf", pooling=4)
        uniform = WorkloadConfig(pooling=4)
        drawn = Session.draw(scenario(MODE_SSD_BASELINE, m, 20, workload=zipf), seed)
        by_hand = Session(drawn.queries)
        by_hand.admit(scenario(MODE_SSD_BASELINE, m, 20, workload=zipf))
        calls = []
        for module in (ev_engine, sim):
            monkeypatch.setattr(module, "translate_batch",
                                lambda *args, f=module.translate_batch: calls.append(args)
                                or f(*args))
        for session in (drawn, by_hand):
            for mode in (MODE_RMSSD, MODE_EMB_VECTORSUM, MODE_SSD_BASELINE):
                for other in (uniform, WorkloadConfig(distribution="zipf", pooling=4,
                                                      zipf_s=1.5)):
                    with pytest.raises(ValueError, match="scenarios must share one workload"):
                        run(scenario(mode, m, 20, workload=other), seed, session)
        assert calls == []
        a, b = (scenario(MODE_SSD_BASELINE, m, 20, workload=w) for w in (zipf, uniform))
        with pytest.raises(ValueError, match="scenarios must share one workload"):
            compare([a, b], seed)
        assert calls == []

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

    def test_mismatched_models_rejected(self, monkeypatch):
        from recssd import sim
        a = scenario(MODE_SSD_BASELINE, rmc3(), 10)
        b = scenario(MODE_SSD_BASELINE, build_model(desk_model_spec("ncf-mini"), 3), 10)
        with pytest.raises(ValueError, match="share one model"):
            compare([a, b], 1)
        # every scenario is admitted before any runs: a mismatch third in
        # the list stops the compare before its first run
        runs, lone = [], sim.run
        monkeypatch.setattr(sim, "run", lambda s, *args: runs.append(s) or lone(s, *args))
        with pytest.raises(ValueError, match="share one model"):
            compare([a, scenario(MODE_EMB_VECTORSUM, rmc3(), 10), b], 1)
        assert runs == []
        c = scenario(MODE_SSD_BASELINE, rmc3(), 10,
                     workload=WorkloadConfig(pooling=4))
        with pytest.raises(ValueError, match="workload"):
            compare([a, c], 1)
        with pytest.raises(ValueError, match="at least two"):
            compare([a], 1)


class TestValidByConstruction:
    def test_compare_refuses_an_invalid_scenario_before_any_run(self, monkeypatch):
        # the third scenario is refused when it is built, so the compare
        # never simulates the first two
        from recssd import sim
        m = rmc3()
        a, b = scenario(MODE_SSD_BASELINE, m, 10), scenario(MODE_EMB_VECTORSUM, m, 10)
        runs, lone = [], sim.run
        monkeypatch.setattr(sim, "run", lambda s, *args: runs.append(s) or lone(s, *args))
        with pytest.raises(ValueError, match="dram_fraction must be in"):
            compare([a, b, dataclasses.replace(a, dram_fraction=2.0)], 1)
        assert runs == []

    def test_scenario_is_frozen_and_replace_checks_again(self):
        sc = scenario(MODE_SSD_BASELINE, rmc3(), 10)
        with pytest.raises(dataclasses.FrozenInstanceError):
            sc.dram_fraction = 2.0
        for change, match in (({"dram_fraction": 2.0}, "dram_fraction must be in"),
                              ({"batch": 0}, "batch must be >= 1"),
                              ({"mode": "gpu"}, "unknown mode"),
                              ({"geometry": SsdGeometry(8, 4, 32)}, "exceeds page size")):
            with pytest.raises(ValueError, match=match):
                dataclasses.replace(sc, **change)

    def test_bad_workload_config_raises_at_construction(self):
        for fields, match in (({"distribution": "gauss"}, "unknown distribution"),
                              ({"pooling": 0}, "pooling must be >= 1, got 0"),
                              ({"pooling": 2.5}, "pooling must be an integer"),
                              ({"pooling": True}, "pooling must be an integer"),
                              ({"zipf_s": 0.0}, "zipf_s must be > 0"),
                              ({"zipf_s": math.nan}, "zipf_s must be > 0")):
            with pytest.raises(ValueError, match=match):
                WorkloadConfig(**fields)
