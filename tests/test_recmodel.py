import itertools
import re

import numpy as np
import pytest

from recssd import recmodel
from recssd.recmodel import (DESK_PRESETS, EmbeddingTable, Model, ModelSpec, Query,
                             TableSpec, Workload, build_model, desk_model_spec,
                             ev_lookup_sum, generate_workload, mlp_forward,
                             reference_inference, zipf_cdf)

from oracles import (fold_sum_rows, model_oracle, scalar_mlp, scalar_reference,
                     workload_oracle)

# Odd element counts, so some draws end on half of one 64-bit generator output.
ODD_SPECS = (
    ModelSpec(tables=tuple(TableSpec(r, 5) for r in (3, 5, 7)), bottom_mlp_dims=(3, 5),
              top_mlp_dims=(20, 7, 1), dense_dim=3),
    ModelSpec(tables=tuple(TableSpec(r, 3) for r in (7, 2, 9, 1)), bottom_mlp_dims=(5, 3),
              top_mlp_dims=(15, 1), dense_dim=5),
)


def assert_model_is_the_oracles(spec, seed):
    model = build_model(spec, seed)
    got = ([t.values for t in model.tables], model.bottom_weights,
           model.bottom_biases, model.top_weights, model.top_biases)
    for got_arrays, want_arrays in zip(got, model_oracle(spec, seed)):
        assert len(got_arrays) == len(want_arrays)
        for g, w in zip(got_arrays, want_arrays):
            assert g.dtype == np.float32 and g.shape == w.shape
            assert np.array_equal(g.view(np.uint32), w.view(np.uint32))


def assert_workload_is_the_oracles(rows, dense_dim, distribution, pooling, count, seed,
                                   zipf_s=1.0):
    # both the arrays and the queries they give must be the oracle's stream
    spec = ModelSpec(tables=tuple(TableSpec(r, 2) for r in rows),
                     bottom_mlp_dims=(dense_dim, 2), top_mlp_dims=(2 + 2 * len(rows), 1),
                     dense_dim=dense_dim)
    want = workload_oracle(rows, dense_dim, distribution, pooling, count, seed, zipf_s=zipf_s)
    got = generate_workload(spec, distribution, pooling, count, seed, zipf_s=zipf_s)
    assert got.index.dtype == np.int64 and got.index.shape == (count, len(rows), pooling)
    assert got.dense.dtype == np.float32 and got.dense.shape == (count, dense_dim)
    assert got.index.tolist() == [indices for indices, _ in want]
    assert got.dense.tobytes() == b"".join(d.tobytes() for _, d in want)
    assert len(got) == len(want)
    for q, (indices, dense) in zip(got, want):
        assert q.indices == indices
        assert np.array_equal(q.dense, dense)


def small_table(rows=4, ev_dim=2, table_id=0, seed=None):
    if seed is None:
        vals = np.arange(1, rows + 1, dtype=np.float32)[:, None].repeat(ev_dim, axis=1)
    else:
        vals = np.random.default_rng(seed).random((rows, ev_dim), dtype=np.float32) - 0.5
    return EmbeddingTable(TableSpec(rows, ev_dim), vals, table_id=table_id)


class TestEvLookupSum:
    def test_two_row_addition(self):
        t = EmbeddingTable(TableSpec(3, 2), np.array([[1, 1], [2, 2], [3, 3]], np.float32))
        assert ev_lookup_sum(t, [0, 2]).tolist() == [4.0, 4.0]

    def test_single_index_is_row_verbatim(self):
        t = small_table(seed=1)
        for k in range(4):
            assert np.array_equal(ev_lookup_sum(t, [k]), t.values[k])

    def test_matches_fold_left_oracle_exactly(self):
        t = small_table(rows=64, ev_dim=8, seed=7)
        idx = np.random.default_rng(7).integers(0, 64, 16).tolist()
        got = ev_lookup_sum(t, idx)
        want = fold_sum_rows(t.values, idx)
        assert got.dtype == np.float32
        assert np.array_equal(got, want)

    def test_out_of_range_names_table_and_index(self):
        t = small_table(table_id=5)
        with pytest.raises(ValueError, match="table 5.*index 9"):
            ev_lookup_sum(t, [0, 9])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ev_lookup_sum(small_table(), [])

    def test_concatenated_lists_equal_concatenated_sum(self):
        rng = np.random.default_rng(21)
        t = small_table(rows=32, ev_dim=4, seed=2)
        for _ in range(200):
            a = rng.integers(0, 32, rng.integers(1, 6)).tolist()
            b = rng.integers(0, 32, rng.integers(1, 6)).tolist()
            assert np.array_equal(ev_lookup_sum(t, a + b), ev_lookup_sum(t, list(a) + list(b)))

    def test_permuted_order_close_not_necessarily_equal(self):
        rng = np.random.default_rng(22)
        t = small_table(rows=128, ev_dim=8, seed=3)
        for _ in range(200):
            idx = rng.integers(0, 128, 12).tolist()
            perm = list(idx)
            rng.shuffle(perm)
            x, y = ev_lookup_sum(t, idx), ev_lookup_sum(t, perm)
            assert np.allclose(x, y, rtol=1e-5, atol=1e-7)


class TestMlpForward:
    def test_identity_relu_clamp(self):
        w = [np.eye(2, dtype=np.float32), np.eye(2, dtype=np.float32)]
        b = [np.zeros(2, np.float32), np.zeros(2, np.float32)]
        out = mlp_forward([2, 2, 2], w, b, [3.0, -1.0])
        assert out.tolist() == [3.0, 0.0]

    def test_zero_weights_yield_bias(self):
        w = [np.zeros((3, 2), np.float32)]
        b = [np.array([0.5, -2.0, 7.0], np.float32)]
        out = mlp_forward([2, 3], w, b, [9.0, 9.0])
        assert out.tolist() == [0.5, -2.0, 7.0]

    def test_matches_scalar_triple_loop_oracle(self):
        rng = np.random.default_rng(11)
        dims = [4, 3, 2]
        w = [rng.random((3, 4), dtype=np.float32) - 0.5,
             rng.random((2, 3), dtype=np.float32) - 0.5]
        b = [rng.random(3, dtype=np.float32) - 0.5, rng.random(2, dtype=np.float32) - 0.5]
        x = np.random.default_rng(12).random(4, dtype=np.float32) - 0.5
        assert np.array_equal(mlp_forward(dims, w, b, x), scalar_mlp(dims, w, b, x))
        # (queries, inputs) matrices of random stacks, widths from 1; the last
        # stack's 64x64 layer over 40 queries is 2,560 (query, output) pairs,
        # past the widest cumsum step, so both fold paths of mlp_forward are
        # checked
        stacks = [([int(d) for d in rng.integers(1, 20, size=rng.integers(2, 5))],
                   int(rng.integers(1, 9))) for _ in range(12)]
        for dims, queries in stacks + [([1, 1], 1), ([64, 64, 3], 40)]:
            w = [rng.random((dims[l + 1], dims[l]), dtype=np.float32) - np.float32(0.5)
                 for l in range(len(dims) - 1)]
            b = [rng.random(d, dtype=np.float32) - np.float32(0.5) for d in dims[1:]]
            x = rng.random((queries, dims[0]), dtype=np.float32) - np.float32(0.5)
            got = mlp_forward(dims, w, b, x)
            assert got.shape == (queries, dims[-1])
            for row, xq in zip(got, x):
                assert np.array_equal(row, scalar_mlp(dims, w, b, xq)), dims

    def test_both_fold_paths_match_the_oracle(self, monkeypatch):
        # every layer by cumsum, then every layer by the loop over inputs,
        # and by the default rule: each side of the widest cumsum step
        from recssd import recmodel
        rng = np.random.default_rng(13)
        width = recmodel._CUMSUM_WIDTH
        for dims, queries in (([13, 64, 16, 1], width // 64), ([13, 64, 16, 1], width // 64 + 1),
                              ([7, 1], width), ([7, 1], width + 1), ([5, 3, 2], 1)):
            w = [rng.random((dims[l + 1], dims[l]), dtype=np.float32) - np.float32(0.5)
                 for l in range(len(dims) - 1)]
            b = [rng.random(d, dtype=np.float32) - np.float32(0.5) for d in dims[1:]]
            x = rng.random((queries, dims[0]), dtype=np.float32) - np.float32(0.5)
            want = np.array([scalar_mlp(dims, w, b, xq) for xq in x])
            for step in (1 << 40, 0, width):
                monkeypatch.setattr(recmodel, "_CUMSUM_WIDTH", step)
                assert mlp_forward(dims, w, b, x).tobytes() == want.tobytes(), (dims, step)

    def test_shape_mismatch_reports_dims(self):
        w = [np.zeros((3, 2), np.float32)]
        b = [np.zeros(3, np.float32)]
        with pytest.raises(ValueError, match=r"\(3, 2\)"):
            mlp_forward([4, 3], w, b, np.zeros(4, np.float32))
        with pytest.raises(ValueError, match="input shape"):
            mlp_forward([2, 3], w, b, np.zeros(4, np.float32))
        with pytest.raises(ValueError, match=r"input shape \(5, 4\)"):
            mlp_forward([2, 3], w, b, np.zeros((5, 4), np.float32))


def identity_passthrough_model():
    # one table, ev_dim 2; bottom is 2x2 identity; top picks out the EV sum
    spec = ModelSpec(tables=(TableSpec(8, 2),), bottom_mlp_dims=(2, 2),
                     top_mlp_dims=(4, 1), dense_dim=2)
    tables = [EmbeddingTable(TableSpec(8, 2),
                             np.arange(16, dtype=np.float32).reshape(8, 2), table_id=0)]
    bw = [np.eye(2, dtype=np.float32)]
    bb = [np.zeros(2, np.float32)]
    tw = [np.array([[0, 0, 1, 1]], np.float32)]
    tb = [np.zeros(1, np.float32)]
    return Model(spec, tables, bw, bb, tw, tb)


class TestReferenceInference:
    def test_all_zero_weights_score_zero(self):
        spec = desk_model_spec("wnd-mini")
        m = build_model(spec, 1)
        zeros = Model(spec, m.tables,
                      [np.zeros_like(w) for w in m.bottom_weights],
                      [np.zeros_like(b) for b in m.bottom_biases],
                      [np.zeros_like(w) for w in m.top_weights],
                      [np.zeros_like(b) for b in m.top_biases])
        q = generate_workload(spec, "uniform", 2, 1, 0)[0]
        assert reference_inference(zeros, q) == 0.0

    def test_identity_composition_reduces_to_ev_sum(self):
        m = identity_passthrough_model()
        q = Query([[1, 3]], np.zeros(2, np.float32))
        want = float(m.tables[0].values[1].sum() + m.tables[0].values[3].sum())
        assert reference_inference(m, q) == pytest.approx(want, rel=0)

    def test_rmc3_mini_matches_independent_scalar_oracle(self):
        spec = desk_model_spec("rmc3-mini")
        assert spec.num_tables == 8 and spec.ev_dim == 16
        assert spec.bottom_mlp_dims == (13, 64, 16)
        assert spec.top_mlp_dims == (144, 64, 1)
        m = build_model(spec, 3)
        queries = generate_workload(spec, "uniform", 4, 2, 3)
        for q in queries:
            assert reference_inference(m, q) == scalar_reference(m, q)

    def test_query_validation(self):
        m = identity_passthrough_model()
        with pytest.raises(ValueError, match="index 8"):
            reference_inference(m, Query([[8]], np.zeros(2, np.float32)))
        with pytest.raises(ValueError, match="index lists"):
            reference_inference(m, Query([[0], [0]], np.zeros(2, np.float32)))


class TestGenerateWorkload:
    def test_bad_arguments_forbidden(self):
        spec = desk_model_spec("wnd-mini")
        with pytest.raises(ValueError, match="count"):
            generate_workload(spec, "uniform", 2, -1, 1)
        with pytest.raises(ValueError, match="pooling"):
            generate_workload(spec, "uniform", 0, 1, 1)
        with pytest.raises(ValueError, match="zipf"):
            generate_workload(spec, "zipf", 2, 1, 1, zipf_s=0.0)
        with pytest.raises(ValueError, match="distribution"):
            generate_workload(spec, "pareto", 2, 1, 1)

    def test_count_zero_is_the_empty_workload(self):
        spec = desk_model_spec("rmc3-mini")
        for distribution in ("uniform", "zipf"):
            w = generate_workload(spec, distribution, 3, 0, 1)
            assert w.index.shape == (0, spec.num_tables, 3) and w.index.dtype == np.int64
            assert w.dense.shape == (0, spec.dense_dim) and w.dense.dtype == np.float32
            assert len(w) == 0

    def test_seed_determinism(self):
        spec = desk_model_spec("ncf-mini")
        a = generate_workload(spec, "zipf", 3, 20, 5, zipf_s=0.8)
        b = generate_workload(spec, "zipf", 3, 20, 5, zipf_s=0.8)
        for qa, qb in zip(a, b):
            assert qa.indices == qb.indices
            assert np.array_equal(qa.dense, qb.dense)

    def test_uniform_frequencies_within_binomial_bounds(self):
        spec = ModelSpec(tables=(TableSpec(1000, 4),), bottom_mlp_dims=(2, 2),
                         top_mlp_dims=(6, 1), dense_dim=2)
        qs = generate_workload(spec, "uniform", 10, 10_000, 17)
        counts = np.zeros(1000, dtype=np.int64)
        for q in qs:
            counts += np.bincount(q.indices[0], minlength=1000)
        n = 100_000
        p = 1 / 1000
        sigma = (n * p * (1 - p)) ** 0.5
        assert counts.sum() == n
        assert np.abs(counts - n * p).max() <= 5 * sigma

    def test_matches_per_table_oracle_with_mixed_row_counts(self):
        # zipf builds a CDF over every row, so its tables stay small
        for distribution, rows in (("uniform", (7, 1, 1000, 2 ** 31 + 5)),
                                   ("zipf", (7, 1, 1000, 333))):
            for pooling, zipf_s in itertools.product((1, 3, 5, 8), (0.7, 0.9, 1.2)):
                assert_workload_is_the_oracles(rows, 3, distribution, pooling, 30, 8,
                                               zipf_s=zipf_s)

    def test_zipf_uniform_on_a_cdf_step_takes_the_next_rank(self, monkeypatch):
        # ranks 0..k hold cumulative weight cdf[k], so a uniform equal to
        # cdf[k] is past rank k. A real draw lands on a step almost never, so
        # a stand-in CDF puts its steps on the draw's own uniforms, which the
        # documented stream gives: per query, `random` of its lookups, then
        # `random(dtype=float32)` of its dense vector.
        tables, pooling, count, dense_dim = 2, 3, 4, 3
        rng = np.random.default_rng([1, 0x3F7])
        uniforms = []
        for _ in range(count):
            uniforms.append(rng.random(tables * pooling))
            rng.random(dense_dim, dtype=np.float32)
        steps = np.sort(np.concatenate(uniforms))
        cdf = np.append(steps, 1.0)
        rows = len(cdf)
        monkeypatch.setattr("recssd.recmodel.zipf_cdf",
                            lambda r, s: cdf if r == rows else zipf_cdf(r, s))
        spec = ModelSpec(tables=tuple(TableSpec(rows, 2) for _ in range(tables)),
                         bottom_mlp_dims=(dense_dim, 2), top_mlp_dims=(6, 1),
                         dense_dim=dense_dim)
        got = generate_workload(spec, "zipf", pooling, count, 1, zipf_s=1.1)
        # each uniform is the step cdf[k] at its sorted position k
        want = [(np.searchsorted(steps, u) + 1).tolist() for u in uniforms]
        assert got.index.reshape(count, -1).tolist() == want
        for q, (_, dense) in zip(got, workload_oracle([rows] * tables, dense_dim, "zipf",
                                                      pooling, count, 1, zipf_s=1.1)):
            assert np.array_equal(q.dense, dense)

    def test_zipf_skews_toward_low_ranks(self):
        spec = ModelSpec(tables=(TableSpec(1000, 4),), bottom_mlp_dims=(2, 2),
                         top_mlp_dims=(6, 1), dense_dim=2)
        qs = generate_workload(spec, "zipf", 10, 2000, 17, zipf_s=1.2)
        idx = np.concatenate([q.indices[0] for q in qs])
        cdf = zipf_cdf(1000, 1.2)
        want_top10 = cdf[9]
        got_top10 = (idx < 10).mean()
        assert abs(got_top10 - want_top10) < 0.05


def columns(w):
    return w.index.tolist(), w.dense.tolist()


class TestWorkload:
    def test_slices_equal_the_columns_of_their_queries(self):
        spec = ModelSpec(tables=(TableSpec(50, 2), TableSpec(9, 2), TableSpec(700, 2)),
                         bottom_mlp_dims=(3, 2), top_mlp_dims=(8, 1), dense_dim=3)
        for distribution in ("uniform", "zipf"):
            w = generate_workload(spec, distribution, 3, 12, 4)
            queries = list(w)
            assert columns(Workload.from_queries(queries)) == columns(w)
            for a, b in ((0, 12), (0, 1), (3, 7), (11, 12), (5, 5), (12, 12), (7, 2),
                         (-4, None), (None, -9), (2, 40)):
                part = w[a:b]
                assert columns(part) == columns(Workload.from_queries(queries[a:b])), (a, b)
                assert len(part) == len(queries[a:b])
                assert part.index.shape[1:] == (3, 3) and part.dense.shape[1:] == (3,)
                assert np.shares_memory(part.index, w.index) or not len(part)
                for q, want in zip(part, queries[a:b]):
                    assert q.indices == want.indices and np.array_equal(q.dense, want.dense)
            assert w[-1].indices == queries[11].indices
            with pytest.raises(IndexError):
                w[12]
            with pytest.raises(ValueError, match="contiguous"):
                w[::2]

    def test_hand_written_queries_keep_their_lists(self):
        qs = [Query([[4, 5], [1, 2]], np.array([0.5, 1.0], np.float32)),
              Query([[0, 0], [7, 3]], np.array([2.0, -1.0], np.float32))]
        w = Workload.from_queries(qs)
        assert w.pooling == 2
        assert w.index.tolist() == [[[4, 5], [1, 2]], [[0, 0], [7, 3]]]
        assert w.dense.tolist() == [[0.5, 1.0], [2.0, -1.0]]
        assert [q.indices for q in w[1:]] == [[[0, 0], [7, 3]]]
        assert w[0].indices == [[4, 5], [1, 2]]
        # lists of different lengths, within a query or across queries
        with pytest.raises(ValueError, match=re.escape("[1, 3] rows in a workload of pooling 1")):
            Workload.from_queries([Query([[4], [1, 2, 3]], np.zeros(2, np.float32))])
        with pytest.raises(ValueError, match=re.escape("[2, 1] rows in a workload of pooling 2")):
            Workload.from_queries(qs + [Query([[0, 0], [7]], np.zeros(2, np.float32))])
        with pytest.raises(ValueError, match="index lists"):
            Workload.from_queries(qs + [Query([[1]], np.zeros(2, np.float32))])
        with pytest.raises(ValueError, match=r"dense vector shape \(3,\) != \(2,\)"):
            Workload.from_queries(qs + [Query([[1, 1], [1, 1]], np.zeros(3, np.float32))])
        with pytest.raises(ValueError, match="at least one index"):
            Workload.from_queries([Query([[1], []], np.zeros(2, np.float32))])
        with pytest.raises(ValueError, match="non-finite"):
            Workload.from_queries([Query([[1], [1]], np.array([0.0, np.nan], np.float32))])
        empty = Workload.from_queries([])
        assert len(empty) == 0 and list(empty) == []

    def test_zero_pooling_rejected(self):
        with pytest.raises(ValueError, match="pooling must be >= 1, got 0"):
            Workload(np.zeros((1, 2, 0), np.int64), np.zeros((1, 2), np.float32))
        with pytest.raises(ValueError, match=re.escape("(queries, tables, pooling)")):
            Workload(np.zeros((1, 2), np.int64), np.zeros((1, 2), np.float32))
        # no queries, no lookups to count
        assert len(Workload(np.zeros((0, 2, 0), np.int64), np.zeros((0, 2), np.float32))) == 0


class TestInvariants:
    def test_shape_chain_unconstructible(self):
        with pytest.raises(ValueError, match="top MLP input width"):
            ModelSpec(tables=(TableSpec(4, 2),), bottom_mlp_dims=(2, 2),
                      top_mlp_dims=(5, 1), dense_dim=2)
        with pytest.raises(ValueError, match="dense_dim"):
            ModelSpec(tables=(TableSpec(4, 2),), bottom_mlp_dims=(2, 2),
                      top_mlp_dims=(4, 1), dense_dim=3)
        with pytest.raises(ValueError, match="ev_dim"):
            ModelSpec(tables=(TableSpec(4, 2), TableSpec(4, 3)),
                      bottom_mlp_dims=(2, 2), top_mlp_dims=(7, 1), dense_dim=2)
        # non-integral dims and rows: floats are not truncated, bools are not widths
        for build in (lambda: ModelSpec(tables=(TableSpec(100.9, 16),),
                                        bottom_mlp_dims=(13, 16.9), top_mlp_dims=(32, 1),
                                        dense_dim=13),
                      lambda: ModelSpec(tables=(TableSpec(100, 16),),
                                        bottom_mlp_dims=(13, 16.9), top_mlp_dims=(32, 1),
                                        dense_dim=13),
                      lambda: ModelSpec(tables=(TableSpec(4, 2),), bottom_mlp_dims=(2, True),
                                        top_mlp_dims=(3, 1), dense_dim=2),
                      lambda: TableSpec(True, 2), lambda: TableSpec(4, 2.0)):
            with pytest.raises(ValueError, match="must be an integer"):
                build()
        spec = ModelSpec(tables=(TableSpec(np.int64(4), np.int32(2)),),
                         bottom_mlp_dims=(np.int64(2), 2), top_mlp_dims=(4, np.int16(1)),
                         dense_dim=2)
        assert spec.tables[0].rows == 4 and spec.bottom_mlp_dims == (2, 2)

    def test_table_value_invariants(self):
        with pytest.raises(ValueError, match="shape"):
            EmbeddingTable(TableSpec(4, 2), np.zeros((3, 2), np.float32))
        bad = np.zeros((4, 2), np.float32)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            EmbeddingTable(TableSpec(4, 2), bad)

    def test_build_model_deterministic(self):
        spec = desk_model_spec("ncf-mini")
        a, b = build_model(spec, 42), build_model(spec, 42)
        assert all(np.array_equal(x.values, y.values) for x, y in zip(a.tables, b.tables))
        assert all(np.array_equal(x, y) for x, y in zip(a.top_weights, b.top_weights))
        c = build_model(spec, 43)
        assert not np.array_equal(a.tables[0].values, c.tables[0].values)

    @pytest.mark.parametrize("spec", [desk_model_spec(p) for p in DESK_PRESETS]
                             + list(ODD_SPECS))
    def test_build_model_matches_one_draw_per_array_oracle(self, spec):
        for seed in (3, 7, 1001):
            assert_model_is_the_oracles(spec, seed)

    def test_table_views_are_disjoint_and_contiguous(self):
        model = build_model(ODD_SPECS[1], 7)
        tables = model.tables
        for i, a in enumerate(tables):
            assert a.values.flags.c_contiguous
            for b in tables[i + 1:]:
                assert not np.shares_memory(a.values, b.values)
        before = [t.values.copy() for t in tables]
        tables[1].values[:] = np.float32(9.0)
        for t, old in zip(tables, before):
            if t is not tables[1]:
                assert np.array_equal(t.values, old)


class TestRawWordStream:
    """The block draws from raw PCG64 words at their edges, bit for bit
    against the oracles' one-call-per-array and per-query streams."""

    def test_model_stream_across_conversion_chunks(self, monkeypatch):
        # an even and an odd value count (a one-wide table of chunk + 1 or
        # chunk + 2 rows, then 5 weights and biases) across a chunk boundary
        chunk = recmodel._UNIFORM_CHUNK
        for rows in (chunk + 1, chunk + 2):
            spec = ModelSpec(tables=(TableSpec(rows, 1),), bottom_mlp_dims=(1, 1),
                             top_mlp_dims=(2, 1), dense_dim=1)
            assert_model_is_the_oracles(spec, 5)
        # an odd table block (3 values) whose weights start on a high half,
        # converted in chunks that split it and the weights anywhere
        odd_block = ModelSpec(tables=(TableSpec(3, 1),), bottom_mlp_dims=(2, 3),
                              top_mlp_dims=(4, 2, 1), dense_dim=2)
        for small in (1, 2, 3, 4, 7):
            monkeypatch.setattr(recmodel, "_UNIFORM_CHUNK", small)
            for spec in (odd_block,) + ODD_SPECS:
                assert_model_is_the_oracles(spec, 5)

    @pytest.mark.parametrize("distribution", ["uniform", "zipf"])
    def test_workload_edges(self, distribution):
        # odd and even dense widths and lookups per query, one-row tables
        # (which take no draw under uniform), 0, 1, 2 and 5 queries
        for rows, dense_dim, pooling, count in itertools.product(
                ((1,), (7, 1), (5, 9), (3, 1, 4)), (1, 2, 3, 4), (1, 2, 3), (0, 1, 2, 5)):
            for seed in (1, 2):
                assert_workload_is_the_oracles(rows, dense_dim, distribution, pooling,
                                               count, seed)

    @pytest.mark.parametrize("rows", [(2 ** 31 + 1, 5), (9, 2 ** 32 + 1)],
                             ids=["rejecting", "over-2**32"])
    def test_uniform_fallback_is_the_per_query_loop(self, monkeypatch, rows):
        # Lemire redraws about half the halves under a 2**31 + 1 bound, and
        # numpy draws an index below more than 2**32 rows from a whole word:
        # both workloads are drawn by one `integers` call per query
        assert_workload_is_the_oracles(rows, 3, "uniform", 2, 4, 7)
        calls = []
        real = np.random.default_rng

        class Counting(np.random.Generator):
            def integers(self, *args, **kwargs):
                calls.append(args)
                return super().integers(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: Counting(real(seed).bit_generator))
        spec = ModelSpec(tables=tuple(TableSpec(r, 2) for r in rows), bottom_mlp_dims=(3, 2),
                         top_mlp_dims=(6, 1), dense_dim=3)
        generate_workload(spec, "uniform", 2, 4, 7)
        assert len(calls) == 4

    def test_draws_take_only_raw_words(self, monkeypatch):
        class Refusing(np.random.Generator):
            def random(self, *args, **kwargs):
                raise AssertionError("Generator.random called")

            def integers(self, *args, **kwargs):
                raise AssertionError("Generator.integers called")

        real = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: Refusing(real(seed).bit_generator))
        for name in DESK_PRESETS:
            spec = desk_model_spec(name)
            assert build_model(spec, 3).spec == spec
            # the presets' power-of-two row counts never reject a draw
            for distribution in ("uniform", "zipf"):
                assert len(generate_workload(spec, distribution, 4, 50, 3)) == 50
