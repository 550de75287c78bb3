import numpy as np
import pytest

from recssd import recmodel
from recssd.mlp_engine import (KernelAssignment, conventional_cycles, fc_cycles,
                               pipeline_schedule, pipeline_schedule_decomposed)
from recssd.recmodel import desk_model_spec, mlp_forward

from oracles import carried_split, decomposed_top_oracle, pipeline_entries, pipeline_oracle


class TestFcCycles:
    def test_eight_by_eight(self):
        assert fc_cycles(8, 8, (4, 4)) == 6

    def test_single_block(self):
        assert fc_cycles(8, 8, (8, 8)) == 1 + 3
        assert fc_cycles(1, 1, (1, 1)) == 1 + 1   # fill floor at kr=2

    def test_ragged_with_batch(self):
        assert fc_cycles(13, 64, (4, 8), batch=7) == 4 * 8 * 7 + 2

    def test_kernel_exceeding_dims(self):
        with pytest.raises(ValueError, match="exceeds"):
            fc_cycles(8, 8, (16, 4))


class TestDecompose:
    """rmssd's split first top layer is a schedule of the reference fold
    over the concatenated input: the bottom half first, then the embedding
    half onto the same accumulators, bias last (`oracles.carried_split`)."""

    def test_linearity_identity(self):
        w = np.array([[1, 2, 3, 4], [5, 6, 7, 8]], np.float32)
        b, e = np.array([1, 0], np.float32), np.array([0, 1], np.float32)
        out = carried_split(w[:, :2], w[:, 2:], np.zeros(2, np.float32), b, e)
        assert out.tolist() == [5, 13]
        assert np.array_equal(out, mlp_forward([4, 2], [w], [np.zeros(2, np.float32)],
                                               np.concatenate([b, e])))

    def test_zero_emb_input(self):
        rng = np.random.default_rng(51)
        w = rng.random((4, 6), dtype=np.float32) - 0.5
        bias = rng.random(4, dtype=np.float32) - 0.5
        b = rng.random(2, dtype=np.float32)
        want = ((w[:, :2] * b).cumsum(axis=1, dtype=np.float32)[:, -1] + bias).astype(np.float32)
        e = np.zeros(4, np.float32)
        assert np.array_equal(carried_split(w[:, :2], w[:, 2:], bias, b, e), want)
        assert np.array_equal(mlp_forward([6, 4], [w], [bias], np.concatenate([b, e])), want)

    def test_bad_split(self):
        # halves that do not make up the layer's input width are refused
        w, bias = np.zeros((2, 5), np.float32), np.zeros(2, np.float32)
        with pytest.raises(ValueError, match="input shape"):
            mlp_forward([5, 2], [w], [bias], np.zeros(2 + 2, np.float32))

    def test_random_split_exact_vs_carried_oracle(self, monkeypatch):
        # both of mlp_forward's fold paths (one cumsum, then one input at a
        # time), for one query and for a (queries, inputs) matrix
        rng = np.random.default_rng(52)
        w = rng.random((16, 32), dtype=np.float32) - 0.5
        bias = rng.random(16, dtype=np.float32) - 0.5
        for cumsum_width, split in ((None, 1), (None, 8), (None, 31), (0, 1), (0, 8), (0, 31)):
            if cumsum_width is not None:
                monkeypatch.setattr(recmodel, "_CUMSUM_WIDTH", cumsum_width)
            b = rng.random((20, split), dtype=np.float32) - 0.5
            e = rng.random((20, 32 - split), dtype=np.float32) - 0.5
            x = np.concatenate([b, e], axis=1)
            many = mlp_forward([32, 16], [w], [bias], x)
            for q in range(len(x)):
                want = carried_split(w[:, :split], w[:, split:], bias, b[q], e[q])
                assert mlp_forward([32, 16], [w], [bias], x[q]).tobytes() == want.tobytes()
                assert many[q].tobytes() == want.tobytes()


def equal_stack(n_layers, width, kr, kc):
    dims = (width,) * (n_layers + 1)
    kernels = [(kr, kc)] * n_layers
    return dims, kernels


class TestPipelineSchedule:
    def test_single_layer_makespan_is_fc_cycles(self):
        dims, kernels = equal_stack(1, 32, 4, 8)
        sched = pipeline_schedule(dims, kernels)
        assert sched.completions.max() == fc_cycles(32, 32, (4, 8))

    def test_two_layer_overlap_matches_oracle(self):
        dims, kernels = equal_stack(2, 10, 1, 1)
        sched = pipeline_schedule(dims, kernels)
        comps, _ = pipeline_oracle([(10, 10), (10, 10)], kernels, [0])
        assert sched.completions.tolist() == [comps]
        conv = conventional_cycles(dims, kernels)
        # ~1.1x one layer vs 2x: the pair overlaps
        assert sched.completions.max() < 0.6 * conv

    def test_causality_and_oracle_on_random_stacks(self):
        rng = np.random.default_rng(56)
        for i in range(100):
            # the last 40 stacks also draw spill floors (0, small, up to 1e9
            # cycles) and wide layers with kr = 1, so row passes have hundreds
            # of chunks
            extra = i >= 60
            n = int(rng.integers(1, 5))
            dims = [int(rng.integers(1, 600 if extra else 40)) for _ in range(n + 1)]
            kernels = []
            for l in range(n):
                kr = 1 << int(rng.integers(0, max(1, int(np.log2(dims[l])) + 1)))
                kc = 1 << int(rng.integers(0, max(1, int(np.log2(dims[l + 1])) + 1)))
                if extra and rng.random() < 0.5:
                    kr = 1
                kernels.append((min(kr, dims[l]), min(kc, dims[l + 1])))
            B = int(rng.integers(1, 4))
            inputs = sorted(int(rng.integers(0, 50)) for _ in range(B))
            floors = [int(rng.choice([0, rng.integers(1, 100), rng.integers(1, 10**9)]))
                      for _ in range(n)] if extra else None
            sched = pipeline_schedule(dims, kernels, inputs_at_cycles=inputs,
                                      floor_cycles=floors)
            comps, detail = pipeline_oracle([(dims[l], dims[l + 1]) for l in range(n)],
                                            kernels, inputs, floors)
            assert sched.completions.tolist() == [comps]
            assert sched.starts.tolist() == [[detail[(0, q)]["start"] for q in range(B)]]
            for e in pipeline_entries(sched):
                d = detail[(e.layer, e.query)]
                assert e.start_cycle == d["start"] and e.end_cycle == d["end"]
                if e.scan == "column":
                    assert e.emissions == d["emissions"]
                    assert all(b >= a for a, b in zip(e.emissions, e.emissions[1:]))
                else:
                    assert list(zip(e.chunk_start, e.chunk_end)) == d["spans"]
                    assert all(s >= r for s, r in zip(e.chunk_start, e.chunk_ready))
            sched0 = pipeline_schedule(dims, kernels, inputs_at_cycles=[0] * B)
            assert sched0.completions.max() <= conventional_cycles(dims, kernels, B)

    def test_halving_limit_eight_layers(self):
        ratios = []
        for groups in (8, 16, 64):
            dims, kernels = equal_stack(8, groups, 1, 1)
            sched = pipeline_schedule(dims, kernels)
            conv = conventional_cycles(dims, kernels)
            ratios.append(sched.completions.max() / conv)
        assert ratios[2] <= ratios[1] <= ratios[0]
        assert 0.5 <= ratios[2] <= 0.55

    def test_direction_and_shape_errors(self):
        with pytest.raises(ValueError, match="empty layer stack"):
            pipeline_schedule((4,), [])
        with pytest.raises(ValueError, match="1 kernels for 2 layers"):
            pipeline_schedule((4, 4, 4), [(1, 1)])
        with pytest.raises(ValueError, match="layer 1: kernel"):
            pipeline_schedule((4, 4, 2), [(4, 4), (4, 4)])

    def test_weight_fetch_floor_stretches_first_pass(self):
        dims, kernels = equal_stack(1, 16, 4, 4)
        plain = pipeline_schedule(dims, kernels, inputs_at_cycles=[0, 0])
        floored = pipeline_schedule(dims, kernels, inputs_at_cycles=[0, 0],
                                    floor_cycles=[1000])
        work = 4 * 4
        assert plain.completions.tolist() == [[work + 2, 2 * work + 2]]
        # first query pays the fetch stream, the second reuses resident weights
        assert floored.completions.tolist() == [[1000 + 2, 1000 + work + 2]]

    def test_decomposed_matches_oracle(self):
        rng = np.random.default_rng(57)
        spec = desk_model_spec("rmc3-mini")
        dims = spec.top_mlp_dims
        for i in range(80):
            kernels = []
            for r, c in zip(dims, dims[1:]):
                kr = min(1 << int(rng.integers(0, 8)), KernelAssignment.largest_pow2(r))
                kc = min(1 << int(rng.integers(0, 7)), KernelAssignment.largest_pow2(c))
                kernels.append((kr, kc))
            B = int(rng.integers(1, 4))
            b_ready = sorted(int(rng.integers(0, 3000)) for _ in range(B))
            e_ready = sorted(int(rng.integers(0, 30000)) for _ in range(B))
            # the last 40 draws also spill floors (0, small, up to 1e9 cycles)
            floors = [int(rng.choice([0, rng.integers(1, 100), rng.integers(1, 10**9)]))
                      for _ in kernels] if i >= 40 else None
            sched = pipeline_schedule_decomposed(dims, kernels, 16, b_ready, e_ready,
                                                 floor_cycles=floors)
            comps, starts = decomposed_top_oracle([(144, 64), (64, 1)], kernels, 16, 128,
                                                  b_ready, e_ready, floors)
            assert sched.completions.tolist() == [comps]
            assert sched.starts.tolist() == [starts]


    def test_lanes_match_per_batch_calls_and_oracle(self):
        # one lanes call against each lane's own call and the oracle
        rng = np.random.default_rng(58)
        for i in range(80):
            n = int(rng.integers(2, 5))
            dims = [int(rng.integers(2, 200))] + [int(rng.integers(1, 120)) for _ in range(n)]
            split = int(rng.integers(1, dims[0]))
            kernels = [(1 << int(rng.integers(0, int(np.log2(dims[l])) + 1)),
                        1 << int(rng.integers(0, int(np.log2(dims[l + 1])) + 1)))
                       for l in range(n)]
            floors = [int(rng.choice([0, rng.integers(1, 100), rng.integers(1, 10**9)]))
                      for _ in range(n)] if i % 2 else None
            lanes, B = int(rng.integers(1, 8)), int(rng.integers(1, 6))
            b_ready = sorted(int(rng.integers(0, 3000)) for _ in range(B))
            e_ready = rng.integers(0, 30000, (lanes, B))
            sched = pipeline_schedule_decomposed(dims, kernels, split, b_ready, e_ready,
                                                 floor_cycles=floors)
            assert sched.completions.shape == sched.starts.shape == (lanes, B)
            for k in range(lanes):
                one = pipeline_schedule_decomposed(dims, kernels, split, b_ready,
                                                   e_ready[k].tolist(), floor_cycles=floors)
                assert one.completions.shape == (1, B)
                assert sched.completions[k].tolist() == one.completions[0].tolist()
                assert sched.completions[k].max() == one.completions.max()
                entries, one_entries = pipeline_entries(sched, k), pipeline_entries(one)
                assert len(entries) == len(one_entries) == n * B
                for e, f in zip(entries, one_entries):
                    assert (e.layer, e.query, e.scan) == (f.layer, f.query, f.scan)
                    assert (e.start_cycle, e.end_cycle) == (f.start_cycle, f.end_cycle)
                    for name in ("emissions", "chunk_ready", "chunk_start", "chunk_end"):
                        got, want = getattr(e, name), getattr(f, name)
                        assert (got is None) == (want is None), name
                        assert got == want, name
                comps, starts = decomposed_top_oracle([(dims[l], dims[l + 1]) for l in range(n)],
                                                      kernels, split, dims[0] - split, b_ready,
                                                      e_ready[k].tolist(), floors)
                assert sched.completions[k].tolist() == comps
                assert sched.starts[k].tolist() == starts

    def test_lanes_reject_mismatched_lengths(self):
        dims, kernels = equal_stack(2, 8, 2, 2)
        with pytest.raises(ValueError, match="length"):
            pipeline_schedule_decomposed(dims, kernels, 4, [0, 0],
                                         np.zeros((3, 4), dtype=np.int64))

    def test_decomposed_input_checks(self):
        for dims, kernels, match in (((4,), [], "empty layer stack"),
                                     ((8, 8, 1), [(2, 2)], "1 kernels for 2 layers"),
                                     ((8, 8, 1), [(2, 2)] * 3, "3 kernels for 2 layers"),
                                     ((8, 8, 1), [(64, 4), (1, 1)], "layer 0: kernel"),
                                     ((8, 8, 1), [(2, 2), (0, 1)], "layer 1: kernel")):
            with pytest.raises(ValueError, match=match):
                pipeline_schedule_decomposed(dims, kernels, 0, [0], [0])

    def test_split_outside_first_layer(self):
        dims, kernels = equal_stack(2, 8, 2, 2)
        for split in (-1, 8):
            with pytest.raises(ValueError, match="split"):
                pipeline_schedule_decomposed(dims, kernels, split, [0], [0])


class TestKernelAssignment:
    def test_validation(self):
        spec = desk_model_spec("rmc3-mini")
        good = KernelAssignment.all_max(spec)
        good.validate(spec)
        assert good.bottom == ((8, 64), (64, 16))
        assert good.top == ((128, 64), (64, 1))
        with pytest.raises(ValueError, match="exceeds"):
            KernelAssignment(((16, 64), (64, 16)), good.top, (1, 16)).validate(spec)
        with pytest.raises(ValueError, match="powers of two"):
            KernelAssignment(((3, 64), (64, 16)), good.top, (1, 16)).validate(spec)
        with pytest.raises(ValueError, match="kc_e"):
            KernelAssignment(good.bottom, good.top, (1, 32)).validate(spec)
        with pytest.raises(ValueError, match="row width"):
            KernelAssignment(good.bottom, good.top, (2, 16)).validate(spec)

    def test_non_integer_entries_refused(self):
        # each entry must be an integer; int() would truncate 2.9 to 2
        for bottom, top, ev in [(((2.9, 4),), ((4, 4),), (1, 2)),
                                (((2, 4),), ((True, 4),), (1, 2)),
                                (((2, 4),), ((4, 4),), (1, 2.0))]:
            with pytest.raises(ValueError, match="must be an integer"):
                KernelAssignment(bottom, top, ev)
        a = KernelAssignment(((np.int64(2), np.int32(4)),), ((4, 4),), (1, np.uint8(2)))
        assert a.flat() == ((2, 4), (4, 4), (1, 2))
        assert all(type(v) is int for k in a.flat() for v in k)

    def test_objective(self):
        spec = desk_model_spec("rmc3-mini")
        a = KernelAssignment(((1, 1), (1, 1)), ((1, 1), (1, 1)), (1, 1))
        assert a.objective() == 5
        assert KernelAssignment.all_max(spec).objective() == \
            8 * 64 + 64 * 16 + 128 * 64 + 64 * 1 + 16
