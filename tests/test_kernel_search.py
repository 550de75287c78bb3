import heapq
import itertools
import math

import numpy as np
import pytest

from recssd.kernel_search import (ResourceModel, SearchSpace, _Stage, bram_placement,
                                  emb_budgets, estimate_times, kernel_options,
                                  layer_weight_bytes, resource_usage, search,
                                  verify_constraints)
from recssd.mlp_engine import KernelAssignment, fc_cycles
from recssd.recmodel import (DESK_PRESETS, ModelSpec, TableSpec, WorkloadConfig, build_model,
                             desk_model_spec, generate_workload)
from recssd.storage import Durations, SsdGeometry, TimingParams

from oracles import (adder_oracle, cycles_ns, flash_schedule_oracle, page_phases_ns,
                     pipeline_oracle)
from search_oracle import emb_ns, enumerate_search, search_scenario

GEO = SsdGeometry(8, 4, 4096)
TP = TimingParams()
RM = ResourceModel()
# the default timing's record; the stage walk reads only its clock
D = Durations.of(TP, GEO, desk_model_spec("rmc3-mini"))


def tiny_model(bot=(8, 8), top_hidden=None, ev_dim=8, tables=1, rows=4096, seed=0):
    top_in = bot[-1] + tables * ev_dim
    top = (top_in,) + (top_hidden or ()) + (1,)
    spec = ModelSpec(tables=tuple(TableSpec(rows, ev_dim) for _ in range(tables)),
                     bottom_mlp_dims=bot, top_mlp_dims=top, dense_dim=bot[0])
    return build_model(spec, seed)


class TestEstimateTimes:
    def test_full_kernels_are_fastest(self):
        model = desk_model_spec("rmc3-mini")
        m = build_model(model, 3)
        s = search_scenario(m, RM, GEO, TP, WorkloadConfig())
        fast = estimate_times(s, KernelAssignment.all_max(model), 2, 3)
        slow = estimate_times(s, KernelAssignment(((1, 1), (1, 1)), ((1, 1), (1, 1)), (1, 1)),
                              2, 3)
        assert fast.bottom_ns <= slow.bottom_ns
        assert fast.top_ns <= slow.top_ns

    def test_batch_doubling_roughly_doubles(self):
        m = tiny_model()
        s = search_scenario(m, RM, GEO, TP, WorkloadConfig(pooling=4))
        a = KernelAssignment(((2, 2),), ((2, 1),), (1, 2))
        one = estimate_times(s, a, 1, 5)
        two = estimate_times(s, a, 2, 5)
        # MLP cycles are exactly work*B + fill
        assert two.bottom_ns < 2 * one.bottom_ns
        assert two.bottom_ns > 2 * one.bottom_ns - 100
        assert 1.0 <= two.emb_ns / one.emb_ns <= 2.5

    def test_matches_composed_oracles(self):
        spec = desk_model_spec("rmc3-mini")
        m = build_model(spec, 3)
        a = KernelAssignment(((4, 16), (8, 8)), ((16, 16), (8, 1)), (1, 4))
        batch = 2
        got = estimate_times(search_scenario(m, RM, GEO, TP, WorkloadConfig(pooling=8)), a,
                             batch, 3)

        # embedding side: layout arithmetic + flash oracle + adder oracle
        qs = generate_workload(spec, "uniform", 8, batch, 3)
        rpp = 64
        ppt = 16384 // rpp
        page_of, order, items, seq = {}, [], [], 0
        for qid, q in enumerate(qs):
            for t, idx in enumerate(q.indices):
                for i in idx:
                    g = t * ppt + i // rpp
                    if g not in page_of:
                        page_of[g] = len(order)
                        order.append(g)
                    items.append((qid, t, seq, g))
                    seq += 1
        pages = [(0, 0, g % 8, (g // 8) % 4, k) for k, g in enumerate(order)]
        times, _ = flash_schedule_oracle(pages, *page_phases_ns(TP, GEO))
        arrivals = {g: times[page_of[g]][3] for g in order}
        done = adder_oracle([(arrivals[g], s, (qid, t)) for qid, t, s, g in items],
                            cycles_ns(TP, 4), group=lambda k: k[0])
        want_emb = max(done.values())
        assert got.emb_ns == want_emb

        # MLP side: pipeline oracle in cycles
        comps_b, _ = pipeline_oracle([(13, 64), (64, 16)], a.bottom, [0] * batch)
        comps_t, _ = pipeline_oracle([(144, 64), (64, 1)], a.top, [0] * batch)
        assert got.bottom_ns == cycles_ns(TP, max(comps_b))
        assert got.top_ns == cycles_ns(TP, max(comps_t))


class TestResourceUsage:
    def test_dsp_linear_in_kernel_area(self):
        spec = desk_model_spec("rmc3-mini")
        a = KernelAssignment(((2, 4), (4, 4)), ((4, 4), (4, 1)), (1, 2))
        b = KernelAssignment(((4, 4), (4, 8)), ((8, 4), (8, 1)), (1, 4))  # every area x2
        ra, rb = resource_usage(spec, a, RM), resource_usage(spec, b, RM)
        assert rb.dsp == 2 * ra.dsp
        assert rb.lut == 2 * ra.lut and rb.ff == 2 * ra.ff

    def test_all_weights_fit(self):
        spec = desk_model_spec("rmc3-mini")
        total = (layer_weight_bytes(13, 64) + layer_weight_bytes(64, 16)
                 + layer_weight_bytes(144, 64) + layer_weight_bytes(64, 1))
        r = resource_usage(spec, KernelAssignment.all_max(spec), RM)
        assert r.bram_bytes == total
        assert r.spilled == [] and r.dram_traffic_bytes == 0

    def test_spill_adds_fetch_floor(self):
        # the 16x512 top layer (34816 weight bytes) spills; at 1 GB/s that is
        # a 34816 ns fetch floor on the layer
        spec = ModelSpec(tables=(TableSpec(4096, 8),), bottom_mlp_dims=(8, 8),
                         top_mlp_dims=(16, 512, 1), dense_dim=8)
        m = build_model(spec, 1)
        rm = ResourceModel(bram_bytes=3000, dram_bandwidth_bytes_per_s=1e9)
        a = KernelAssignment(((8, 8),), ((16, 512), (512, 1)), (1, 8))
        usage = resource_usage(spec, a, rm)
        assert usage.spilled == ["top:0"]
        nbytes = layer_weight_bytes(16, 512)
        assert nbytes == 34816
        assert usage.dram_traffic_bytes == nbytes
        wl = WorkloadConfig(pooling=2)
        with_floor = estimate_times(search_scenario(m, rm, GEO, TP, wl), a, 1, 7)
        # the default block RAM holds every layer
        without = estimate_times(search_scenario(m, RM, GEO, TP, wl), a, 1, 7)
        floor_cycles = math.ceil(nbytes / 5.0)     # 5 ns cycles at 200 MHz
        assert with_floor.top_ns > without.top_ns
        comps = pipeline_oracle([(16, 512), (512, 1)], a.top, [0],
                                floors=[floor_cycles, 0])[0]
        assert with_floor.top_ns == cycles_ns(TP, max(comps))


class TestSearch:
    @pytest.mark.parametrize("preset", DESK_PRESETS)
    def test_emb_budgets_equal_one_lookup_per_kce(self, preset):
        # the search schedules the flash once per batch and reruns only the
        # adder per kc_e; each budget must equal the serial adder oracle at
        # that kc_e over the page reads' arrivals
        m = build_model(desk_model_spec(preset), 3)
        for dist, batch in (("uniform", 2), ("zipf", 16)):
            queries = generate_workload(m.spec, dist, 8, batch, 5)
            assert emb_budgets(search_scenario(m, RM, GEO, TP, WorkloadConfig()), queries) == \
                emb_ns(m, queries, GEO, TP)

    def test_slow_flash_gives_minimal_kernels(self):
        m = tiny_model(bot=(8, 8), top_hidden=(8,))
        slow = TimingParams(page_read_us=100000.0)   # constraints never bind
        out = search(search_scenario(m, RM, GEO, slow, WorkloadConfig(pooling=2)), 1)
        assert out.feasible
        assert out.assignment.bottom == ((1, 1),)
        assert out.assignment.top == ((1, 1), (1, 1))
        assert out.assignment.ev == (1, 1)
        assert out.objective == 3 + 1   # layer count + vector-sum kernel

    def test_vanishing_emb_budget_reports_binding_constraint(self):
        m = tiny_model(bot=(8, 8), top_hidden=(8,))
        # a 1 ns sense and a 1 ns page transfer, the shortest a page read
        # takes, and a 1 ms engine clock -> the MLP can never keep up
        fast_flash = TimingParams(page_read_us=1e-3, channel_transfer_ns_per_byte=2.5e-4,
                                  fc_clock_mhz=1e-3)
        out = search(search_scenario(m, RM, GEO, fast_flash, WorkloadConfig(pooling=1),
                                     space=SearchSpace(max_batch=4)), 1)
        assert not out.feasible
        assert out.binding_constraint == "top"
        assert (out.times.emb_ns, out.times.top_ns) == (2, 12_000_000)

    def test_two_layer_model_matches_enumeration_oracle(self):
        m = tiny_model(bot=(8, 8), ev_dim=8, rows=4096)
        tp = TimingParams(fc_clock_mhz=1.0)   # make the constraints bind
        wl, space = WorkloadConfig(pooling=4), SearchSpace(max_batch=8)
        got = search(search_scenario(m, RM, GEO, tp, wl, 1, space), 11)
        want = enumerate_search(m, RM, GEO, tp, wl, 11, 1, space)
        assert want is not None and got.feasible
        assert got.assignment == want[0]
        assert got.batch == want[1]
        assert got.objective == want[2]

    def test_batch_rule_soundness(self):
        m = tiny_model(bot=(8, 8))
        wl, space = WorkloadConfig(pooling=2), SearchSpace(max_batch=16)
        out = search(search_scenario(m, RM, GEO, TP, wl, 2, space), 3)
        assert out.feasible and out.batch == 2
        # doubling never leaves a start batch below 1: the scenario refuses one
        with pytest.raises(ValueError, match="batch must be >= 1"):
            search_scenario(m, RM, GEO, TP, wl, 0, space)

    def test_batch_escalation_rescues_fill_dominated_config(self):
        # single die makes the embedding time exactly linear in batch, while
        # the MLP's adder-tree fill amortizes: infeasible at B=1 and 2,
        # feasible at 4
        geo = SsdGeometry(1, 1, 4096)
        m = tiny_model(bot=(8, 8), ev_dim=8, rows=4096)
        tp = TimingParams(fc_clock_mhz=0.05)
        wl, space = WorkloadConfig(pooling=1), SearchSpace(max_batch=16)
        s = search_scenario(m, RM, geo, tp, wl, 1, space)
        out = search(s, 2)
        assert out.feasible and out.batch == 4
        rep = verify_constraints(s, out, 2)
        assert rep.ok
        want = enumerate_search(m, RM, geo, tp, wl, 2, 1, space)
        assert (out.assignment, out.batch, out.objective) == want

    def test_monotone_in_resource_budget(self):
        spec = ModelSpec(tables=(TableSpec(8192, 8),), bottom_mlp_dims=(8, 16),
                         top_mlp_dims=(24, 16, 1), dense_dim=8)
        m = build_model(spec, 4)
        tp = TimingParams(fc_clock_mhz=2.0)
        wl = WorkloadConfig(pooling=8)
        small = ResourceModel(bram_bytes=1500, dram_bandwidth_bytes_per_s=5e8)
        large = ResourceModel(bram_bytes=64 * 1024 * 1024, dram_bandwidth_bytes_per_s=5e8)
        space = SearchSpace(max_batch=4)
        out_small = search(search_scenario(m, small, GEO, tp, wl, 1, space), 6)
        out_large = search(search_scenario(m, large, GEO, tp, wl, 1, space), 6)
        if out_small.feasible:
            assert out_large.feasible
            assert out_large.objective <= out_small.objective


    def test_infeasible_under_max_kernel_names_binding_stage(self):
        # the kernel cap excludes the all-max kernels, so the diagnosis must
        # use the largest kernels inside the space
        m = tiny_model(bot=(64, 64), top_hidden=(64,), ev_dim=8)
        out = search(search_scenario(m, RM, GEO, TimingParams(fc_clock_mhz=2.0),
                                     WorkloadConfig(pooling=8), 1,
                                     SearchSpace(max_batch=2, max_kernel=1)), 1)
        assert not out.feasible
        assert out.binding_constraint in ("bottom", "top")
        binding_ns = {"bottom": out.times.bottom_ns, "top": out.times.top_ns}
        assert binding_ns[out.binding_constraint] > out.times.emb_ns

    @pytest.mark.parametrize("bandwidth, feasible", [(2e7, True), (5e6, False)])
    def test_spilled_layers_match_enumeration_oracle(self, bandwidth, feasible):
        # bram_bytes=100 holds only the 16x1 output layer: the rest spill
        spec = ModelSpec(tables=(TableSpec(4096, 8),), bottom_mlp_dims=(8, 16, 8),
                         top_mlp_dims=(16, 16, 1), dense_dim=8)
        m = build_model(spec, 4)
        rm = ResourceModel(bram_bytes=100, dram_bandwidth_bytes_per_s=bandwidth)
        tp = TimingParams(fc_clock_mhz=20.0)
        wl, space = WorkloadConfig(pooling=2), SearchSpace(max_batch=16)
        s = search_scenario(m, rm, GEO, tp, wl, 1, space)
        floors_b, floors_t = s.spill_floors
        assert all(floors_b) and floors_t[0] > 0
        got = search(s, 4)
        want = enumerate_search(m, rm, GEO, tp, wl, 4, 1, space, floors_b, floors_t)
        assert got.feasible == feasible
        if feasible:
            assert (got.assignment, got.batch, got.objective) == want
            assert (got.batch, got.objective) == (4, 139)
        else:
            assert want is None


STACKS = [(13, 64, 16), (8, 16, 8), (5, 7, 3, 9), (144, 64, 1)]


def layer_options(dims, max_kernel=None):
    return [[(kr, kc) for kr in kernel_options(r, max_kernel)
             for kc in kernel_options(c, max_kernel)] for r, c in zip(dims, dims[1:])]


def area_order(stage_kernels):
    return sorted(stage_kernels, key=lambda ks: (sum(kr * kc for kr, kc in ks), ks))


class TestStageWalk:
    @pytest.mark.parametrize("dims", STACKS)
    @pytest.mark.parametrize("max_kernel", [None, 4])
    def test_walk_order_is_sorted_product(self, dims, max_kernel):
        want = area_order(itertools.product(*layer_options(dims, max_kernel)))
        floors = [0] * (len(dims) - 1)
        walk = _Stage(dims, SearchSpace(max_kernel=max_kernel), 2, D, floors).candidates(10 ** 12)
        # one more than expected, so a walk that repeats candidates fails fast
        assert list(itertools.islice(walk, len(want) + 1)) == want

    @pytest.mark.parametrize("dims", STACKS)
    @pytest.mark.parametrize("floor", [40, 61])
    def test_walk_drops_only_options_that_cannot_fit_alone(self, dims, floor):
        # a floor above the budget leaves its layer, and so the stage, nothing
        floors = [0, floor] + [0] * (len(dims) - 3)
        batch, budget = 3, cycles_ns(TP, 60)

        def fits(l, k):
            return cycles_ns(TP, max(fc_cycles(dims[l], dims[l + 1], k, batch),
                                     floors[l])) <= budget

        want = area_order(ks for ks in itertools.product(*layer_options(dims))
                          if all(fits(l, k) for l, k in enumerate(ks)))
        walk = _Stage(dims, SearchSpace(), batch, D, floors).candidates(budget)
        assert list(itertools.islice(walk, len(want) + 1)) == want

    @pytest.mark.parametrize("dims", STACKS)
    def test_layer_bound_never_exceeds_stage_time(self, dims):
        # the bound the walk prunes by, checked against the independent oracle
        floors = [7, 0, 90, 0][:len(dims) - 1]
        for batch in (1, 3):
            for ks in itertools.product(*layer_options(dims)):
                comps, _ = pipeline_oracle(list(zip(dims, dims[1:])), list(ks), [0] * batch,
                                           floors=floors)
                for l, k in enumerate(ks):
                    assert max(comps) >= max(fc_cycles(dims[l], dims[l + 1], k, batch),
                                             floors[l])

    @pytest.mark.parametrize("preset", DESK_PRESETS + ("search-deep",))
    def test_one_option_list_per_batch_walks_as_a_rebuild_per_budget(self, preset):
        # one _Stage serves every kc_e budget of a batch, and an eighth of
        # each, which drops options; each walk must equal the one from option
        # lists rebuilt for its budget. The deep stacks' walks are cut short.
        spec = DEEP_SPEC if preset == "search-deep" else desk_model_spec(preset)
        m = build_model(spec, 2)
        s = search_scenario(m, RM, GEO, TP, WorkloadConfig())
        d, floors = s.durations, s.spill_floors
        longest = 4000 if preset == "search-deep" else None
        for batch in (1, 2, 4):
            queries = generate_workload(spec, "uniform", 8, batch, 9)
            budgets = list(emb_budgets(s, queries).values())
            budgets += [b // 8 for b in budgets]
            for dims, floor in zip((spec.bottom_mlp_dims, spec.top_mlp_dims), floors):
                stage = _Stage(dims, SearchSpace(), batch, d, floor)
                for budget in budgets:
                    got = list(itertools.islice(stage.candidates(budget), longest))
                    want = rebuilt_walk(dims, SearchSpace(), batch, TP, budget, floor)
                    assert got == list(itertools.islice(want, longest)), (batch, budget)


# the search-deep benchmark workload's model
DEEP_SPEC = ModelSpec(tables=tuple(TableSpec(4096, 16) for _ in range(8)),
                      bottom_mlp_dims=(64, 512, 256, 64), top_mlp_dims=(192, 512, 256, 1),
                      dense_dim=64)


def rebuilt_walk(dims, space, batch, timing, budget_ns, floors):
    """The stage walk with every layer's options built for this one budget:
    the options that fit alone, sorted by (area, kernel), walked by a heap in
    ascending (area, kernels) order."""
    per_layer = []
    for l, (r, c) in enumerate(zip(dims, dims[1:])):
        floor = floors[l] if floors else 0
        opts = [(kr, kc)
                for kr in kernel_options(r, space.max_kernel)
                for kc in kernel_options(c, space.max_kernel)
                if cycles_ns(timing, max(fc_cycles(r, c, (kr, kc), batch), floor))
                <= budget_ns]
        if not opts:
            return
        per_layer.append(sorted(opts, key=lambda k: (k[0] * k[1], k)))

    def entry(index, low):
        kernels = tuple(options[i] for options, i in zip(per_layer, index))
        return sum(kr * kc for kr, kc in kernels), kernels, index, low

    heap = [entry((0,) * len(per_layer), 0)]
    while heap:
        _, kernels, index, low = heapq.heappop(heap)
        yield kernels
        for j in range(low, len(index)):
            if index[j] + 1 < len(per_layer[j]):
                heapq.heappush(heap, entry(index[:j] + (index[j] + 1,) + index[j + 1:], j))


class TestVerifyConstraints:
    def test_search_outcome_has_no_violations(self):
        m = tiny_model(bot=(8, 8))
        s = search_scenario(m, RM, GEO, TP, WorkloadConfig(pooling=2))
        out = search(s, 3)
        rep = verify_constraints(s, out, 3)
        assert rep.ok and rep.slack_bottom_ns >= 0 and rep.slack_top_ns >= 0

    def test_oversized_mlp_outcome_flagged(self):
        from recssd.kernel_search import SearchOutcome
        m = tiny_model(bot=(8, 8))
        tp = TimingParams(fc_clock_mhz=1e-3)
        bad = SearchOutcome(feasible=True,
                            assignment=KernelAssignment(((1, 1),), ((1, 1),), (1, 1)),
                            batch=1, times=None, resources=None, objective=3)
        rep = verify_constraints(search_scenario(m, RM, GEO, tp, WorkloadConfig(pooling=1)),
                                 bad, 0)
        assert not rep.ok
        assert rep.slack_top_ns < 0 or rep.slack_bottom_ns < 0

    def test_sweep_agrees_with_direct_recomputation(self):
        from recssd.kernel_search import SearchOutcome
        rng = np.random.default_rng(61)
        m = tiny_model(bot=(8, 8), top_hidden=(8,))
        s = search_scenario(m, RM, GEO, TP, WorkloadConfig(pooling=2))
        for _ in range(50):
            def pick(r, c):
                kr = int(rng.choice(kernel_options(r)))
                kc = int(rng.choice(kernel_options(c)))
                return kr, kc
            a = KernelAssignment((pick(8, 8),), (pick(16, 8), pick(8, 1)),
                                 (1, int(rng.choice(kernel_options(8)))))
            batch = int(rng.integers(1, 4))
            out = SearchOutcome(feasible=True, assignment=a, batch=batch, times=None,
                                resources=None, objective=a.objective())
            rep = verify_constraints(s, out, 9)
            times = estimate_times(s, a, batch, 9)
            assert rep.slack_bottom_ns == times.emb_ns - times.bottom_ns
            assert rep.slack_top_ns == times.emb_ns - times.top_ns
            assert rep.ok == (rep.slack_bottom_ns >= 0 and rep.slack_top_ns >= 0)


class TestPlacement:
    def test_kernel_options(self):
        assert kernel_options(13) == [1, 2, 4, 8]
        assert kernel_options(16) == [1, 2, 4, 8, 16]
        assert kernel_options(16, cap=4) == [1, 2, 4]

    def test_placement_fills_in_model_order(self):
        spec = desk_model_spec("rmc3-mini")
        bytes_b0 = layer_weight_bytes(13, 64)
        rm = ResourceModel(bram_bytes=bytes_b0 + 10)
        resident, spilled, floors = bram_placement(spec, rm)
        assert resident == bytes_b0
        assert spilled == ["bottom:1", "top:0", "top:1"]
        assert floors["bottom"] == [0, layer_weight_bytes(64, 16)]
