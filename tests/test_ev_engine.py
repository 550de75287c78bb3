from collections import Counter

import numpy as np
import pytest

from recssd.ev_engine import (FileExtent, build_extent_map, build_flash_image,
                              dispatch, ev_sum_engine, simulate_lookup,
                              translate_batch, translate_index)
from recssd.storage import Ftl
from recssd.kernel_search import make_lookup_env
from recssd.recmodel import (ModelSpec, Query, TableSpec, build_model,
                             ev_lookup_sum, generate_workload)
from recssd.storage import (BLOCK_PRIORITY, EV_PRIORITY, SsdGeometry, TimingParams,
                            page_read_time)

from oracles import adder_oracle, die_timelines, flash_schedule_oracle, fold_sum_rows

GEO = SsdGeometry(channels=8, dies_per_channel=4, page_size=4096, lba_size=512)
TP = TimingParams()


def flat_model(num_tables=1, rows=256, ev_dim=16, seed=0):
    spec = ModelSpec(tables=tuple(TableSpec(rows, ev_dim) for _ in range(num_tables)),
                     bottom_mlp_dims=(2, 2), top_mlp_dims=(2 + num_tables * ev_dim, 1),
                     dense_dim=2)
    return build_model(spec, seed)


class TestExtentMap:
    def test_layout_arithmetic(self):
        spec = ModelSpec(tables=(TableSpec(1000, 16),), bottom_mlp_dims=(2, 2),
                         top_mlp_dims=(18, 1), dense_dim=2)
        emap = build_extent_map(spec, [[FileExtent(1000, 16 * 8)]], GEO)
        assert emap.rows_per_page == 64
        lba, off = translate_index(emap, 0, 100)
        assert (lba, off) == (1000 + 8, 36 * 64)

    def test_index_zero_at_file_start(self):
        spec = ModelSpec(tables=(TableSpec(100, 16),), bottom_mlp_dims=(2, 2),
                         top_mlp_dims=(18, 1), dense_dim=2)
        emap = build_extent_map(spec, [[FileExtent(4096 // 512 * 7, 16)]], GEO)
        assert translate_index(emap, 0, 0) == (56, 0)

    def test_last_index_inside_final_extent(self):
        spec = ModelSpec(tables=(TableSpec(130, 16),), bottom_mlp_dims=(2, 2),
                         top_mlp_dims=(18, 1), dense_dim=2)
        emap = build_extent_map(spec, [[FileExtent(0, 8), FileExtent(64, 16)]], GEO)
        lba, off = translate_index(emap, 0, 129)
        # 64 rows in extent 0; row 129 is row 65 of extent 1 -> its second page
        assert lba == 64 + 8
        assert off == 1 * 64

    def test_out_of_range_index(self):
        spec = ModelSpec(tables=(TableSpec(100, 16),), bottom_mlp_dims=(2, 2),
                         top_mlp_dims=(18, 1), dense_dim=2)
        emap = build_extent_map(spec, [[FileExtent(0, 16)]], GEO)
        with pytest.raises(ValueError, match="index 100"):
            translate_index(emap, 0, 100)

    def test_extents_too_small(self):
        spec = ModelSpec(tables=(TableSpec(1000, 16),), bottom_mlp_dims=(2, 2),
                         top_mlp_dims=(18, 1), dense_dim=2)
        with pytest.raises(ValueError, match="extents cover"):
            build_extent_map(spec, [[FileExtent(0, 8 * 15)]], GEO)

    def test_oversized_vector_rejected(self):
        spec = ModelSpec(tables=(TableSpec(10, 2048),), bottom_mlp_dims=(2, 2),
                         top_mlp_dims=(2 + 2048, 1), dense_dim=2)
        with pytest.raises(ValueError, match="ev_bytes"):
            build_extent_map(spec, [[FileExtent(0, 1024)]], GEO)

    def test_unaligned_extent_rejected(self):
        spec = ModelSpec(tables=(TableSpec(100, 16),), bottom_mlp_dims=(2, 2),
                         top_mlp_dims=(18, 1), dense_dim=2)
        with pytest.raises(ValueError, match="page-aligned"):
            build_extent_map(spec, [[FileExtent(3, 16)]], GEO)

    def test_fragmented_file_round_trips_against_linear_scan(self):
        rows, ev_dim = 1000, 16
        spec = ModelSpec(tables=(TableSpec(rows, ev_dim),), bottom_mlp_dims=(2, 2),
                         top_mlp_dims=(18, 1), dense_dim=2)
        fes = [FileExtent(800, 7 * 8), FileExtent(80, 5 * 8), FileExtent(400, 4 * 8)]
        emap = build_extent_map(spec, [fes], GEO)

        def linear_scan(index):
            rpp = 4096 // (ev_dim * 4)
            cursor = 0
            for fe in fes:
                pages = fe.lba_count * 512 // 4096
                count = min(pages * rpp, rows - cursor)
                if cursor <= index < cursor + count:
                    rel = index - cursor
                    return fe.start_lba + (rel // rpp) * 8, (rel % rpp) * 64
                cursor += count
            raise AssertionError

        for index in range(rows):
            assert translate_index(emap, 0, index) == linear_scan(index)

        def inverse(lba, off):
            # invert via a scan over every index
            for i in range(rows):
                if translate_index(emap, 0, i) == (lba, off):
                    return i
            raise AssertionError

        rng = np.random.default_rng(41)
        for index in rng.integers(0, rows, 25):
            assert inverse(*translate_index(emap, 0, int(index))) == int(index)


class TestDispatch:
    def test_same_page_coalesces_to_one_read(self):
        model = flat_model()
        emap, ftl = make_lookup_env(model, GEO)
        qs = [Query([[3, 7]], np.zeros(2, np.float32))]   # both in page 0
        reqs = translate_batch(emap, ftl, qs)
        reads = dispatch(reqs)
        assert len(reads) == 1
        assert np.bincount(reads.read).tolist() == [2]

    def test_eight_distinct_channels_start_simultaneously(self):
        model = flat_model(rows=64 * 64)   # 64 pages
        emap, ftl = make_lookup_env(model, GEO)
        idx = [p * 64 for p in range(8)]   # pages 0..7 -> channels 0..7
        qs = [Query([idx], np.zeros(2, np.float32))]
        res = simulate_lookup(model, qs, GEO, TP, emap, ftl)
        starts = set(res.schedule.sense_start_ns.tolist())
        assert starts == {0}

    def test_page_counts_match_counting_oracle(self):
        model = flat_model(rows=64 * 128, seed=2)
        emap, ftl = make_lookup_env(model, GEO)
        rng = np.random.default_rng(42)
        idx = rng.integers(0, 64 * 128, 100).tolist()
        qs = [Query([idx], np.zeros(2, np.float32))]
        reqs = translate_batch(emap, ftl, qs)
        reads = dispatch(reqs)
        # counting oracle: distinct pages grouped by striping arithmetic
        pages = sorted({i // 64 for i in idx})
        per_die = {}
        for p in pages:
            per_die[(p % 8, (p // 8) % 4)] = per_die.get((p % 8, (p // 8) % 4), 0) + 1
        got = Counter(zip(reads.channel.tolist(), reads.die.tolist()))
        assert got == per_die

    def test_makespan_matches_event_list_oracle(self):
        model = flat_model(rows=64 * 128, seed=2)
        emap, ftl = make_lookup_env(model, GEO)
        rng = np.random.default_rng(43)
        idx = rng.integers(0, 64 * 128, 100).tolist()
        qs = [Query([idx], np.zeros(2, np.float32))]
        res = simulate_lookup(model, qs, GEO, TP, emap, ftl)
        pages = [(0, 0, int(ch), int(die), seq)
                 for seq, (ch, die) in enumerate(zip(res.reads.channel, res.reads.die))]
        _, makespan = flash_schedule_oracle(pages, TP.sense_ns, TP.xfer_ns(4096))
        assert res.schedule.makespan_ns == makespan
        max_q = max(Counter(zip(res.reads.channel.tolist(), res.reads.die.tolist())).values())
        assert makespan >= max_q * TP.sense_ns
        assert makespan <= max_q * page_read_time(GEO, TP) + GEO.dies_per_channel * TP.xfer_ns(4096)

    def test_coalescing_bound_property(self):
        rng = np.random.default_rng(44)
        model = flat_model(rows=64 * 16, seed=3)
        emap, ftl = make_lookup_env(model, GEO)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            idx = rng.integers(0, 64 * 16, n).tolist()
            qs = [Query([idx], np.zeros(2, np.float32))]
            reqs = translate_batch(emap, ftl, qs)
            npages = len(dispatch(reqs))
            assert npages <= n
            assert (npages == n) == (len({i // 64 for i in idx}) == n)


class TestEvSum:
    def test_concatenation_order(self):
        vectors = np.array([[1, 2], [3, 4]], np.float32)
        vec, done = ev_sum_engine(np.array([[1, 1]]), np.array([100, 50]), vectors, TP)
        assert vec.tolist() == [[1, 2, 3, 4]]
        assert done.tolist() == [100]

    def test_single_ev_passthrough_time_is_arrival(self):
        vec, done = ev_sum_engine(np.array([[1]]), np.array([777]),
                                  np.array([[5.0]], np.float32), TP)
        assert done.tolist() == [777] and vec.tolist() == [[5.0]]

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="no fetched"):
            ev_sum_engine(np.array([[0]]), np.zeros(0, np.int64),
                          np.zeros((0, 2), np.float32), TP)

    def test_adder_slower_than_flash_serializes(self):
        # 16 vectors arrive together; kc_e=1 -> 16 cycles = 80 ns per add
        vec, done = ev_sum_engine(np.array([[16]]), np.full(16, 1000),
                                  np.ones((16, 16), np.float32), TP, kc_e=1)
        items = [(1000, i, 0) for i in range(16)]
        want = adder_oracle(items, TP.cycles_to_ns(16))[0]
        assert done.tolist() == [want] == [1000 + 15 * 80]
        assert vec.tolist() == [[16.0] * 16]


class TestSimulateLookup:
    def test_single_request_cold_path(self):
        model = flat_model()
        emap, ftl = make_lookup_env(model, GEO)
        qs = [Query([[5]], np.zeros(2, np.float32))]
        res = simulate_lookup(model, qs, GEO, TP, emap, ftl)
        assert res.e_ns == [page_read_time(GEO, TP)]
        assert res.t_emb_ns == page_read_time(GEO, TP)

    def test_identical_queries_identical_latency(self):
        model = flat_model(num_tables=2, rows=4096, seed=5)
        emap, ftl = make_lookup_env(model, GEO)
        q = Query([[1, 2, 3], [9, 9, 700]], np.zeros(2, np.float32))
        res = simulate_lookup(model, [q, q], GEO, TP, emap, ftl)
        assert res.e_ns[0] == res.e_ns[1]
        assert np.array_equal(res.ev_concat[0], res.ev_concat[1])

    def test_flash_image_holds_padded_table_bytes(self):
        # flash layout = the serialized table file, page-padded at rows_per_page
        from recssd.recmodel import table_to_bytes
        model = flat_model(num_tables=2, rows=100, seed=4)
        emap, ftl = make_lookup_env(model, GEO)
        flash = build_flash_image(model.tables, emap, GEO)
        for t in range(2):
            ext = emap.table_extents[t][0]
            raw = table_to_bytes(model.tables[t])
            start = ext.start_lba * 512
            for page in range(2):           # 64 rows per page, table has 100 rows
                rows = slice(page * 64, min((page + 1) * 64, 100))
                want = raw[rows.start * 64: rows.stop * 64]
                got = bytes(flash.buf[start + page * 4096:
                                      start + page * 4096 + len(want)])
                assert got == want

    def test_functional_transparency_exact(self):
        model = flat_model(num_tables=3, rows=2048, seed=6)
        emap, ftl = make_lookup_env(model, GEO)
        flash = build_flash_image(model.tables, emap, GEO)
        qs = generate_workload(model.spec, "uniform", 7, 20, 13)
        res = simulate_lookup(model, qs, GEO, TP, emap, ftl, flash=flash)
        for q, concat in zip(qs, res.ev_concat):
            for t in range(3):
                want = ev_lookup_sum(model.tables[t], q.indices[t])
                assert np.array_equal(concat[t * 16:(t + 1) * 16], want)

    def test_flash_decode_matches_direct_table_values(self):
        model = flat_model(num_tables=2, rows=300, seed=11)
        emap, ftl = make_lookup_env(model, GEO)
        flash = build_flash_image(model.tables, emap, GEO)
        qs = generate_workload(model.spec, "uniform", 5, 10, 19)
        via_flash = simulate_lookup(model, qs, GEO, TP, emap, ftl, flash=flash)
        direct = simulate_lookup(model, qs, GEO, TP, emap, ftl)
        for a, b in zip(via_flash.ev_concat, direct.ev_concat):
            assert np.array_equal(a, b)
        assert via_flash.e_ns == direct.e_ns

    def test_batch_against_from_scratch_event_oracle(self):
        model = flat_model(num_tables=4, rows=4096, seed=7)
        emap, ftl = make_lookup_env(model, GEO)
        qs = generate_workload(model.spec, "uniform", 4, 64, 15)
        kc_e = 4
        res = simulate_lookup(model, qs, GEO, TP, emap, ftl, kc_e=kc_e)

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
        times, _ = flash_schedule_oracle(pages, TP.sense_ns, TP.xfer_ns(4096))
        arrivals = {g: times[page_of[g]][3] for g in order}
        adder_items = [(arrivals[g], s, (qid, t)) for qid, t, s, g in items]
        done = adder_oracle(adder_items, TP.cycles_to_ns(16 // kc_e), group=lambda k: k[0])
        want_e = [max(done[(qid, t)] for t in range(4)) for qid in range(64)]
        assert res.e_ns == want_e
        assert res.t_emb_ns == max(want_e)

    def test_fragmented_layout_and_per_table_pooling(self):
        # three tables whose files are fragmented out of LBA order, with 1, 3
        # and 8 lookups per query; replayed from the file extents by hand
        rows, ev_dim, rpp = 1000, 16, 64
        spec = ModelSpec(tables=(TableSpec(rows, ev_dim),) * 3, bottom_mlp_dims=(2, 2),
                         top_mlp_dims=(2 + 3 * ev_dim, 1), dense_dim=2)
        model = build_model(spec, 12)
        layouts = [[FileExtent(800, 7 * 8), FileExtent(80, 5 * 8), FileExtent(400, 4 * 8)],
                   [FileExtent(1200, 3 * 8), FileExtent(16, 8 * 8), FileExtent(600, 5 * 8)],
                   [FileExtent(1000, 16 * 8)]]
        emap = build_extent_map(spec, layouts, GEO)
        ftl = Ftl(GEO, emap.max_lba_end() // 8)
        flash = build_flash_image(model.tables, emap, GEO)
        rng = np.random.default_rng(47)
        pooling = (1, 3, 8)
        qs = [Query([rng.integers(0, rows, p).tolist() for p in pooling],
                    np.zeros(2, np.float32)) for _ in range(6)]
        kc_e = 2
        res = simulate_lookup(model, qs, GEO, TP, emap, ftl, flash=flash, kc_e=kc_e)

        def page_of(t, index):
            cursor = 0
            for fe in layouts[t]:
                count = min(fe.lba_count // 8 * rpp, rows - cursor)
                if cursor <= index < cursor + count:
                    return fe.start_lba // 8 + (index - cursor) // rpp
                cursor += count
            raise AssertionError

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
        times, _ = flash_schedule_oracle(pages, TP.sense_ns, TP.xfer_ns(4096))
        adder_items = [(times[order.index(p)][3], s, (qid, t)) for qid, t, s, p in items]
        done = adder_oracle(adder_items, TP.cycles_to_ns(ev_dim // kc_e), group=lambda k: k[0])
        assert res.e_ns == [max(done[(qid, t)] for t in range(3)) for qid in range(len(qs))]
        for q, concat in zip(qs, res.ev_concat):
            want = np.concatenate([fold_sum_rows(model.tables[t].values, q.indices[t])
                                   for t in range(3)])
            assert concat.tobytes() == want.tobytes()
        direct = simulate_lookup(model, qs, GEO, TP, emap, ftl, kc_e=kc_e)
        assert direct.ev_concat.tobytes() == res.ev_concat.tobytes()
        assert direct.e_ns == res.e_ns

    def test_priority_over_block_io(self):
        model = flat_model(rows=64 * 64, seed=8)
        emap, ftl = make_lookup_env(model, GEO)
        # block I/O ready at 0 on the same pages' dies; EVs must not wait behind
        # queued block reads
        idx = [0, 64, 128, 8 * 64, 8 * 64 + 64]
        qs = [Query([idx], np.zeros(2, np.float32))]
        blocks = [(0, p) for p in range(30)]
        res = simulate_lookup(model, qs, GEO, TP, emap, ftl, block_page_reads=blocks)
        sched, reads = res.schedule, res.schedule.reads
        # the schedule holds the EV reads first, then the block reads in order
        n_ev = len(res.reads)
        assert len(reads) == n_ev + len(blocks)
        assert reads.priority.tolist() == [EV_PRIORITY] * n_ev + [BLOCK_PRIORITY] * len(blocks)
        for b in range(n_ev, len(reads)):
            for e in range(n_ev):
                same_die = (reads.channel[e], reads.die[e]) == (reads.channel[b], reads.die[b])
                if same_die and reads.ready_ns[e] <= sched.sense_start_ns[b]:
                    assert sched.sense_start_ns[e] <= sched.sense_start_ns[b]
                if (reads.channel[e] == reads.channel[b]
                        and sched.sense_end_ns[e] <= sched.xfer_start_ns[b]):
                    assert sched.xfer_start_ns[e] <= sched.xfer_start_ns[b]

    def test_work_conservation(self):
        model = flat_model(rows=64 * 64, seed=9)
        emap, ftl = make_lookup_env(model, GEO)
        qs = generate_workload(model.spec, "uniform", 16, 8, 17)
        res = simulate_lookup(model, qs, GEO, TP, emap, ftl)
        for recs in die_timelines(res.schedule).values():
            for (_, prev_end), (nxt_start, _) in zip(recs, recs[1:]):
                assert nxt_start == prev_end

    def test_uniform_dispatch_balance(self):
        # >= 32 pages per die on average
        model = flat_model(rows=131072, seed=10)
        emap, ftl = make_lookup_env(model, GEO)
        qs = generate_workload(model.spec, "uniform", 64, 64, 23)
        res = simulate_lookup(model, qs, GEO, TP, emap, ftl)
        counts = list(Counter(zip(res.reads.channel.tolist(), res.reads.die.tolist())).values())
        assert len(counts) == 32 and min(counts) * 32 >= 1024 * 0.8
        assert max(counts) / min(counts) <= 1.5
