import numpy as np
import pytest

from recssd.recmodel import (EmbeddingTable, Model, ModelSpec, Query, TableSpec,
                             build_model, desk_model_spec, ev_lookup_sum,
                             generate_workload, mlp_forward, reference_inference,
                             zipf_cdf)

from oracles import fold_sum_rows, scalar_mlp, scalar_reference, workload_oracle


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
        # stack's 64x64 layer over 40 queries is past the one-cumsum size, so
        # both fold orders of mlp_forward are checked
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
    def test_count_zero_forbidden(self):
        spec = desk_model_spec("wnd-mini")
        with pytest.raises(ValueError, match="count"):
            generate_workload(spec, "uniform", 2, 0, 1)
        with pytest.raises(ValueError, match="pooling"):
            generate_workload(spec, "uniform", 0, 1, 1)
        with pytest.raises(ValueError, match="zipf"):
            generate_workload(spec, "zipf", 2, 1, 1, zipf_s=0.0)
        with pytest.raises(ValueError, match="distribution"):
            generate_workload(spec, "pareto", 2, 1, 1)

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
            spec = ModelSpec(tables=tuple(TableSpec(r, 2) for r in rows),
                             bottom_mlp_dims=(3, 2), top_mlp_dims=(10, 1), dense_dim=3)
            for pooling in (1, 5):
                got = generate_workload(spec, distribution, pooling, 30, 8, zipf_s=0.9)
                want = workload_oracle(rows, 3, distribution, pooling, 30, 8, zipf_s=0.9)
                for q, (indices, dense) in zip(got, want):
                    assert q.indices == indices
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
