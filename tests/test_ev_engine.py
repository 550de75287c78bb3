import re
from collections import Counter

import numpy as np
import pytest

from recssd.ev_engine import (adder_order, build_flash_image, dispatch, gather_rows,
                              lookup_sums, read_timeline, simulate_lookup, table_layout,
                              translate_batch)
from recssd.mlp_engine import KernelAssignment
from recssd.recmodel import (ModelSpec, Query, TableSpec, Workload, build_model,
                             ev_lookup_sum, generate_workload)
from recssd.sim import MODES, Scenario, Session, WorkloadConfig, run
from recssd.storage import Durations, SsdGeometry, TimingParams, page_location

from oracles import (adder_oracle, cycles_ns, die_timelines, flash_schedule_oracle,
                     fold_sum_rows, lookup_reads, page_phases_ns, translate_index)

GEO = SsdGeometry(channels=8, dies_per_channel=4, page_size=4096)
TP = TimingParams()
SENSE, XFER = page_phases_ns(TP, GEO)


def ev_sum_engine(arrival_ns, vectors, timing, kc_e=None):
    """Fetched (queries, tables, pooling, ev_dim) vectors arriving at the
    (queries, tables, pooling) `arrival_ns`, aggregated as `simulate_lookup`
    does: each query's per-table sums and its adder's completion on a kc_e-wide
    adder (default: as wide as the vectors)."""
    ev_dim = vectors.shape[-1]
    return (lookup_sums(vectors),
            adder_order(arrival_ns).done_ns(cycles_ns(timing, -(-ev_dim // (kc_e or ev_dim)))))


def lookup(model, queries, kc_e=None, batch=None):
    """The lookup's call chain as the batch loop runs it, in batches of
    `batch` queries (default: one batch of all) on a kc_e-wide adder
    (default: ev_dim wide): the result and its read timeline."""
    durations = Durations.of(TP, GEO, model.spec)
    batch = batch or len(queries)
    layout = table_layout(model.spec, GEO)
    requests = translate_batch(layout, queries)
    timeline = read_timeline(requests, batch, GEO, durations.sense_ns, durations.xfer_ns)
    flash = build_flash_image(model.tables, layout)
    t_add = durations.add_ns(kc_e or model.spec.ev_dim)
    return simulate_lookup(flash, requests, timeline, t_add, batch), timeline


def flat_model(num_tables=1, rows=256, ev_dim=16, seed=0):
    spec = ModelSpec(tables=tuple(TableSpec(rows, ev_dim) for _ in range(num_tables)),
                     bottom_mlp_dims=(2, 2), top_mlp_dims=(2 + num_tables * ev_dim, 1),
                     dense_dim=2)
    return build_model(spec, seed)


class TestExtentMap:
    """The table layout: tables back to back from page 0, each padded to
    whole pages."""

    def test_layout_arithmetic(self):
        spec = ModelSpec(tables=(TableSpec(1000, 16), TableSpec(100, 16)),
                         bottom_mlp_dims=(2, 2), top_mlp_dims=(34, 1), dense_dim=2)
        layout = table_layout(spec, GEO)
        assert layout.rows_per_page == 64
        # table 0 takes ceil(1000 / 64) = 16 pages, table 1 the next two
        assert layout.first_page.tolist() == [0, 16] and layout.pages == 18
        assert translate_index(layout, 0, 100) == (1, 36 * 64)
        assert translate_index(layout, 1, 99) == (16 + 1, 35 * 64)

    def test_index_zero_at_file_start(self):
        spec = ModelSpec(tables=(TableSpec(7 * 64 - 1, 16), TableSpec(100, 16)),
                         bottom_mlp_dims=(2, 2), top_mlp_dims=(34, 1), dense_dim=2)
        layout = table_layout(spec, GEO)
        # table 0's last page has a free slot; table 1 starts on a page of its own
        assert translate_index(layout, 0, 7 * 64 - 2) == (6, 62 * 64)
        assert translate_index(layout, 1, 0) == (7, 0)

    def test_last_index_inside_final_extent(self):
        spec = ModelSpec(tables=(TableSpec(130, 16),), bottom_mlp_dims=(2, 2),
                         top_mlp_dims=(18, 1), dense_dim=2)
        layout = table_layout(spec, GEO)
        page, off = translate_index(layout, 0, 129)
        # 64 rows per page; row 129 is the second row of the third page
        assert page == 2
        assert off == 1 * 64
        assert layout.pages == 3

    def test_out_of_range_index(self):
        spec = ModelSpec(tables=(TableSpec(100, 16),), bottom_mlp_dims=(2, 2),
                         top_mlp_dims=(18, 1), dense_dim=2)
        layout = table_layout(spec, GEO)
        with pytest.raises(ValueError, match="index 100"):
            translate_index(layout, 0, 100)
        with pytest.raises(ValueError, match="index -1"):
            translate_index(layout, 0, -1)
        with pytest.raises(ValueError, match="table 1 not in the layout"):
            translate_index(layout, 1, 0)

    def test_requests_placed_round_robin(self):
        # a 3 x 2 device and 48-byte vectors, 85 per page: the tables take
        # 3 + 2 + 3 = 8 pages, more than the 6 dies, and each ends in a
        # partial page
        geo = SsdGeometry(channels=3, dies_per_channel=2, page_size=4096)
        rows = (200, 100, 171)
        spec = ModelSpec(tables=tuple(TableSpec(r, 12) for r in rows), bottom_mlp_dims=(2, 2),
                         top_mlp_dims=(2 + 3 * 12, 1), dense_dim=2)
        layout = table_layout(spec, geo)
        assert layout.first_page.tolist() == [0, 3, 5] and layout.pages == 8
        rng = np.random.default_rng(49)
        qs = Workload.from_queries([Query([rng.integers(0, r, 6).tolist() for r in rows],
                                          np.zeros(2, np.float32)) for _ in range(5)])
        reqs = translate_batch(layout, qs)
        first_page = (0, 3, 5)
        pages = [first_page[t] + i // 85 for q in qs for t, idx in enumerate(q.indices)
                 for i in idx]
        assert reqs.page.ravel().tolist() == pages and set(pages) == set(range(8))
        channel, die, _ = page_location(geo, reqs.page)
        assert list(zip(channel.ravel().tolist(), die.ravel().tolist())) == \
            [(p % 3, (p // 3) % 2) for p in pages]

    def test_oversized_vector_rejected(self):
        spec = ModelSpec(tables=(TableSpec(10, 2048),), bottom_mlp_dims=(2, 2),
                         top_mlp_dims=(2 + 2048, 1), dense_dim=2)
        with pytest.raises(ValueError, match="ev_bytes"):
            table_layout(spec, GEO)


class TestDispatch:
    def test_same_page_coalesces_to_one_read(self):
        model = flat_model()
        layout = table_layout(model.spec, GEO)
        qs = Workload.from_queries([Query([[3, 7]], np.zeros(2, np.float32))])   # both in page 0
        reqs = translate_batch(layout, qs)
        reads = dispatch(reqs, np.zeros(len(qs), np.int64))
        assert len(reads) == 1
        assert np.bincount(reads.read.ravel()).tolist() == [2]

    def test_eight_distinct_channels_start_simultaneously(self):
        model = flat_model(rows=64 * 64)   # 64 pages
        layout = table_layout(model.spec, GEO)
        idx = [p * 64 for p in range(8)]   # pages 0..7 -> channels 0..7
        qs = Workload.from_queries([Query([idx], np.zeros(2, np.float32))])
        res = lookup_reads(layout, qs, GEO, TP)
        starts = set(res.schedule.sense_start_ns.tolist())
        assert starts == {0}
        assert lookup(model, qs)[1].first_sense_ns.tolist() == [0]

    def test_page_counts_match_counting_oracle(self):
        model = flat_model(rows=64 * 128, seed=2)
        layout = table_layout(model.spec, GEO)
        rng = np.random.default_rng(42)
        idx = rng.integers(0, 64 * 128, 100).tolist()
        qs = Workload.from_queries([Query([idx], np.zeros(2, np.float32))])
        reqs = translate_batch(layout, qs)
        reads = dispatch(reqs, np.zeros(len(qs), np.int64))
        # counting oracle: distinct pages grouped by striping arithmetic
        pages = sorted({i // 64 for i in idx})
        per_die = {}
        for p in pages:
            per_die[(p % 8, (p // 8) % 4)] = per_die.get((p % 8, (p // 8) % 4), 0) + 1
        channel, die, _ = page_location(GEO, reads.page)
        got = Counter(zip(channel.tolist(), die.tolist()))
        assert got == per_die

    def test_makespan_matches_event_list_oracle(self):
        model = flat_model(rows=64 * 128, seed=2)
        layout = table_layout(model.spec, GEO)
        rng = np.random.default_rng(43)
        idx = rng.integers(0, 64 * 128, 100).tolist()
        qs = Workload.from_queries([Query([idx], np.zeros(2, np.float32))])
        res = lookup_reads(layout, qs, GEO, TP)
        pages = [(0, 0, int(ch), int(die), seq)
                 for seq, (ch, die) in enumerate(zip(res.channel, res.die))]
        _, makespan = flash_schedule_oracle(pages, SENSE, XFER)
        assert res.schedule.xfer_end_ns.max() == makespan
        max_q = max(Counter(zip(res.channel.tolist(), res.die.tolist())).values())
        assert makespan >= max_q * SENSE
        assert makespan <= max_q * (SENSE + XFER) + GEO.dies_per_channel * XFER

    def test_coalescing_bound_property(self):
        rng = np.random.default_rng(44)
        model = flat_model(rows=64 * 16, seed=3)
        layout = table_layout(model.spec, GEO)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            idx = rng.integers(0, 64 * 16, n).tolist()
            qs = Workload.from_queries([Query([idx], np.zeros(2, np.float32))])
            reqs = translate_batch(layout, qs)
            npages = len(dispatch(reqs, np.zeros(len(qs), np.int64)))
            assert npages <= n
            assert (npages == n) == (len({i // 64 for i in idx}) == n)


class TestEvSum:
    def test_concatenation_order(self):
        vectors = np.array([[[[1, 2]], [[3, 4]]]], np.float32)
        vec, done = ev_sum_engine(np.array([[[100], [50]]]), vectors, TP)
        assert vec.tolist() == [[1, 2, 3, 4]]
        assert done.tolist() == [100]

    def test_single_ev_passthrough_time_is_arrival(self):
        vec, done = ev_sum_engine(np.array([[[777]]]), np.array([[[[5.0]]]], np.float32), TP)
        assert done.tolist() == [777] and vec.tolist() == [[5.0]]

    def test_adder_slower_than_flash_serializes(self):
        # 16 vectors arrive together; kc_e=1 -> 16 cycles = 80 ns per add
        vec, done = ev_sum_engine(np.full((1, 1, 16), 1000),
                                  np.ones((1, 1, 16, 16), np.float32), TP, kc_e=1)
        items = [(1000, i, 0) for i in range(16)]
        want = adder_oracle(items, cycles_ns(TP, 16))[0]
        assert done.tolist() == [want] == [1000 + 15 * 80]
        assert vec.tolist() == [[16.0] * 16]

    def test_adder_matches_oracle_on_random_arrivals(self):
        # arrivals drawn from a few values, so they tie within a table and
        # across tables; the oracle takes them in (arrival, request order)
        rng = np.random.default_rng(50)
        for pooling in range(1, 9):
            for _ in range(10):
                queries, tables = (int(v) for v in rng.integers(1, 6, 2))
                arrival = rng.integers(0, 4, (queries, tables, pooling)) * 700
                t_add = int(rng.integers(1, 400))
                items = [(int(arrival[q, t, j]), seq, (q, t)) for seq, (q, t, j)
                         in enumerate(np.ndindex(arrival.shape))]
                done = adder_oracle(items, t_add, group=lambda key: key[0])
                assert adder_order(arrival).done_ns(t_add).tolist() == \
                    [max(done[(q, t)] for t in range(tables)) for q in range(queries)]


class TestLookupSums:
    def test_bit_equal_to_the_reference_sum_and_input_kept(self):
        # random tables and index arrays at pooling 1, 2 and 8: each
        # (query, table) sum is ev_lookup_sum's fold of the same rows
        rng = np.random.default_rng(51)
        model = flat_model(num_tables=3, rows=40, ev_dim=5, seed=4)
        for pooling in (1, 2, 8):
            index = rng.integers(0, 40, (6, 3, pooling))
            vectors = gather_rows(model.tables, index)
            before = vectors.copy()
            sums = lookup_sums(vectors)
            assert sums.dtype == np.float32 and sums.shape == (6, 3 * 5)
            assert vectors.tobytes() == before.tobytes()
            for q, t in np.ndindex(6, 3):
                want = ev_lookup_sum(model.tables[t], index[q, t].tolist())
                assert sums[q, t * 5:(t + 1) * 5].tobytes() == want.tobytes(), (pooling, q, t)


class TestSimulateLookup:
    def test_single_request_cold_path(self):
        model = flat_model()
        qs = Workload.from_queries([Query([[5]], np.zeros(2, np.float32))])
        res, _ = lookup(model, qs)
        assert res.e_ns.tolist() == [SENSE + XFER]
        assert res.t_emb_ns.tolist() == [SENSE + XFER]

    def test_bad_queries_rejected(self):
        model = flat_model(num_tables=2, rows=100)
        layout = table_layout(model.spec, GEO)
        good = Query([[1], [2]], np.zeros(2, np.float32))
        for bad, match in ((Query([[1], [100]], np.zeros(2, np.float32)), "table 1: index 100"),
                           (Query([[1]], np.zeros(2, np.float32)), "index lists")):
            # mixed with a good query, and alone, where the translation's own
            # checks see it
            for qs in ([good, bad], [bad]):
                with pytest.raises(ValueError, match=match):
                    translate_batch(layout, Workload.from_queries(qs))
        # a dense vector of the wrong width: beside a good query the workload
        # rejects it, and alone every mode rejects it when it scores
        bad = Query([[1], [2]], np.zeros(3, np.float32))
        with pytest.raises(ValueError, match="dense vector shape"):
            Workload.from_queries([good, bad])
        for mode in MODES:
            scenario = Scenario(mode=mode, model=model, geometry=GEO, timing=TP,
                                workload=WorkloadConfig(pooling=1), query_count=2,
                                kernels=KernelAssignment.all_max(model.spec))
            with pytest.raises(ValueError,
                               match=re.escape("input shape (2, 3) != (2,) or (queries, 2)")):
                run(scenario, 0, Session(Workload.from_queries([bad, bad])))

    def test_identical_queries_identical_latency(self):
        model = flat_model(num_tables=2, rows=4096, seed=5)
        q = Query([[1, 2, 3], [9, 9, 700]], np.zeros(2, np.float32))
        res, _ = lookup(model, Workload.from_queries([q, q]))
        assert res.e_ns[0] == res.e_ns[1]
        assert np.array_equal(res.ev_concat[0], res.ev_concat[1])

    def test_flash_image_holds_padded_table_bytes(self):
        # flash layout = the table's little-endian FP32 rows, page-padded at
        # rows_per_page
        model = flat_model(num_tables=2, rows=100, seed=4)
        layout = table_layout(model.spec, GEO)
        flash = build_flash_image(model.tables, layout)
        for t in range(2):
            raw = model.tables[t].values.astype("<f4").tobytes()
            start = int(layout.first_page[t]) * 4096
            for page in range(2):           # 64 rows per page, table has 100 rows
                rows = slice(page * 64, min((page + 1) * 64, 100))
                want = raw[rows.start * 64: rows.stop * 64]
                got = bytes(flash.buf[start + page * 4096:
                                      start + page * 4096 + len(want)])
                assert got == want

    def test_flash_image_bytes_on_fragmented_padded_layout(self):
        # 48-byte vectors leave a 16-byte tail in every 4096-byte page. Tables
        # lie back to back: table 0 ends inside its third page, table 1 fills
        # its fourth page exactly, table 2 fits inside one page
        spec = ModelSpec(tables=(TableSpec(200, 12), TableSpec(340, 12), TableSpec(50, 12)),
                         bottom_mlp_dims=(2, 2), top_mlp_dims=(2 + 3 * 12, 1), dense_dim=2)
        model = build_model(spec, 8)
        layout = table_layout(spec, GEO)
        assert layout.rows_per_page == 85
        first_page = (0, 3, 7)
        buf = np.frombuffer(build_flash_image(model.tables, layout).buf, dtype=np.uint8)
        assert len(buf) == 8 * 4096
        written = np.zeros(len(buf), dtype=bool)
        for t, table in enumerate(model.tables):
            for row in range(table.values.shape[0]):
                page, offset = translate_index(layout, t, row)
                assert (page, offset) == (first_page[t] + row // 85, row % 85 * 48)
                at = page * GEO.page_size + offset
                assert buf[at:at + 48].tobytes() == table.values[row].astype("<f4").tobytes()
                assert not written[at:at + 48].any()
                written[at:at + 48] = True
        assert written.sum() == (200 + 340 + 50) * 48
        assert not buf[~written].any()

    def test_functional_transparency_exact(self):
        model = flat_model(num_tables=3, rows=2048, seed=6)
        qs = generate_workload(model.spec, "uniform", 7, 20, 13)
        res, _ = lookup(model, qs)
        for q, concat in zip(qs, res.ev_concat):
            for t in range(3):
                want = ev_lookup_sum(model.tables[t], q.indices[t])
                assert np.array_equal(concat[t * 16:(t + 1) * 16], want)

    def test_flash_decode_matches_direct_table_values(self):
        # the lookup reads its vectors from the flash image; the host's copy
        # of the same rows gives the same vectors and sums
        model = flat_model(num_tables=2, rows=300, seed=11)
        layout = table_layout(model.spec, GEO)
        flash = build_flash_image(model.tables, layout)
        qs = generate_workload(model.spec, "uniform", 5, 10, 19)
        reqs = translate_batch(layout, qs)
        direct = gather_rows(model.tables, qs.index)
        assert flash.rows[reqs.page, reqs.slot].tobytes() == direct.tobytes()
        via_flash, _ = lookup(model, qs)
        for a, b in zip(via_flash.ev_concat, lookup_sums(direct)):
            assert np.array_equal(a, b)

    def test_batch_against_from_scratch_event_oracle(self):
        model = flat_model(num_tables=4, rows=4096, seed=7)
        qs = generate_workload(model.spec, "uniform", 4, 64, 15)
        kc_e = 4
        res, _ = lookup(model, qs, kc_e=kc_e)

        # independent replay: layout arithmetic, flash oracle, adder oracle
        rpp = 64
        pages_per_table = 4096 // rpp
        page_of = {}
        order = []
        seq = 0
        items = []
        for qid, q in enumerate(qs):
            for t, idx in enumerate(q.indices):
                for i in idx:
                    gpage = t * pages_per_table + i // rpp
                    if gpage not in page_of:
                        page_of[gpage] = len(order)
                        order.append(gpage)
                    items.append((qid, t, seq, gpage))
                    seq += 1
        pages = [(0, 0, g % 8, (g // 8) % 4, k) for k, g in enumerate(order)]
        times, _ = flash_schedule_oracle(pages, SENSE, XFER)
        arrivals = {g: times[page_of[g]][3] for g in order}
        adder_items = [(arrivals[g], s, (qid, t)) for qid, t, s, g in items]
        done = adder_oracle(adder_items, cycles_ns(TP, 16 // kc_e), group=lambda k: k[0])
        want_e = [max(done[(qid, t)] for t in range(4)) for qid in range(64)]
        assert res.e_ns.tolist() == want_e
        assert res.t_emb_ns.tolist() == [max(want_e)]

    def test_fragmented_layout_replayed_by_hand(self):
        # three tables of 48-byte vectors, 85 per page, back to back over 70
        # pages: the first ends in a partial page, the second fills its last
        # page, the third ends in a partial page. Three lookups per table and
        # query; replayed from the row counts by hand
        rows, ev_dim, rpp = (2000, 3400, 500), 12, 85
        spec = ModelSpec(tables=tuple(TableSpec(r, ev_dim) for r in rows),
                         bottom_mlp_dims=(2, 2), top_mlp_dims=(2 + 3 * ev_dim, 1), dense_dim=2)
        model = build_model(spec, 12)
        layout = table_layout(model.spec, GEO)
        assert layout.pages == 24 + 40 + 6
        rng = np.random.default_rng(47)
        qs = Workload.from_queries([Query([rng.integers(0, r, 3).tolist() for r in rows],
                                          np.zeros(2, np.float32)) for _ in range(6)])
        kc_e = 2
        res, _ = lookup(model, qs, kc_e=kc_e)

        def page_of(t, index):
            # the pages of the tables before t, each rounded up, then the row's
            return sum(-(-r // rpp) for r in rows[:t]) + index // rpp

        order, items, seq = [], [], 0
        for qid, q in enumerate(qs):
            for t, idx in enumerate(q.indices):
                for i in idx:
                    page = page_of(t, i)
                    if page not in order:
                        order.append(page)
                    items.append((qid, t, seq, page))
                    seq += 1
        pages = [(0, 0, p % 8, (p // 8) % 4, k) for k, p in enumerate(order)]
        times, _ = flash_schedule_oracle(pages, SENSE, XFER)
        adder_items = [(times[order.index(p)][3], s, (qid, t)) for qid, t, s, p in items]
        done = adder_oracle(adder_items, cycles_ns(TP, ev_dim // kc_e), group=lambda k: k[0])
        assert res.e_ns.tolist() == [max(done[(qid, t)] for t in range(3))
                                    for qid in range(len(qs))]
        for q, concat in zip(qs, res.ev_concat):
            want = np.concatenate([fold_sum_rows(model.tables[t].values, q.indices[t])
                                   for t in range(3)])
            assert concat.tobytes() == want.tobytes()
        direct = lookup_sums(gather_rows(model.tables, qs.index))
        assert direct.tobytes() == res.ev_concat.tobytes()

    def test_whole_run_equals_per_batch_calls(self):
        # the partial-page layout above, 11 queries as batches
        # of 4: one call with a lane per batch equals one call per batch
        ev_dim = 12
        spec = ModelSpec(tables=tuple(TableSpec(r, ev_dim) for r in (2000, 3400, 500)),
                         bottom_mlp_dims=(2, 2), top_mlp_dims=(2 + 3 * ev_dim, 1), dense_dim=2)
        model = build_model(spec, 12)
        layout = table_layout(model.spec, GEO)
        rng = np.random.default_rng(48)
        # few rows per table, so batches share pages and each lane coalesces
        qs = Workload.from_queries([Query([rng.integers(0, 200, 3).tolist() for _ in range(3)],
                                          np.zeros(2, np.float32)) for _ in range(11)])
        batch, kc_e = 4, 2
        whole, whole_tl = lookup(model, qs, kc_e=kc_e, batch=batch)
        parts, parts_tl = zip(*(lookup(model, qs[i:i + batch], kc_e=kc_e)
                                for i in range(0, len(qs), batch)))
        assert whole.ev_concat.tobytes() == np.concatenate([p.ev_concat for p in parts]).tobytes()
        for name in ("e_ns", "t_emb_ns"):
            assert getattr(whole, name).tolist() == \
                np.concatenate([getattr(p, name) for p in parts]).tolist(), name
        for name in ("first_sense_ns", "channel_busy_ns"):
            assert getattr(whole_tl, name).tolist() == \
                np.concatenate([getattr(p, name) for p in parts_tl]).tolist(), name
        # the per-read columns the lookup does not keep, derived the same way
        whole = lookup_reads(layout, qs, GEO, TP, batch)
        parts = [lookup_reads(layout, qs[i:i + batch], GEO, TP)
                 for i in range(0, len(qs), batch)]
        assert whole.arrival_ns.tolist() == \
            np.concatenate([p.arrival_ns for p in parts]).tolist()
        assert len(whole.requests) == sum(len(p.requests) for p in parts)
        assert len(whole.reads) == sum(len(p.reads) for p in parts) < len(whole.requests)
        for lane, p in enumerate(parts):
            mine = whole.reads.lane == lane
            assert whole.reads.page[mine].tolist() == p.reads.page.tolist()
            for name in ("sense_start_ns", "xfer_end_ns"):
                assert getattr(whole.schedule, name)[mine].tolist() == \
                    getattr(p.schedule, name).tolist()

    def test_work_conservation(self):
        model = flat_model(rows=64 * 64, seed=9)
        layout = table_layout(model.spec, GEO)
        qs = generate_workload(model.spec, "uniform", 16, 8, 17)
        res = lookup_reads(layout, qs, GEO, TP)
        for recs in die_timelines(GEO, res.reads.page, res.schedule).values():
            for (_, prev_end), (nxt_start, _) in zip(recs, recs[1:]):
                assert nxt_start == prev_end

    def test_uniform_dispatch_balance(self):
        # >= 32 pages per die on average
        model = flat_model(rows=131072, seed=10)
        layout = table_layout(model.spec, GEO)
        qs = generate_workload(model.spec, "uniform", 64, 64, 23)
        res = lookup_reads(layout, qs, GEO, TP)
        counts = list(Counter(zip(res.channel.tolist(), res.die.tolist())).values())
        assert len(counts) == 32 and min(counts) * 32 >= 1024 * 0.8
        assert max(counts) / min(counts) <= 1.5
