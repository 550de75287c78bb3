"""Output checks for one pass, each an independent computation or a property
the method must have. None compares against stored output, and none runs
inside a timed region.

A check is a (name, ok) pair; every pass of a workload runs the same checks
in the same order, so a failing check fails once per pass.
"""

import hashlib
import math

import numpy as np

# Scores are FP32 in the simulator and float64 here, so they may differ by
# rounding. The tolerance is a share of the largest |score| of the pass (or of
# 1): a small score of the deep model carries the rounding of intermediates a
# thousand times larger. The largest gap seen over seeds 1-3 of every workload
# is 1e-6 of that scale; a wrong embedding row moves a score by more than 1e-3.
SCORE_RTOL = 1e-4


def metrics_sha256(sim, result) -> str:
    return hashlib.sha256(sim.metrics_json(result.metrics).encode()).hexdigest()


def _mlp64(x, weights, biases):
    last = len(weights) - 1
    for l, (w, b) in enumerate(zip(weights, biases)):
        x = x @ np.asarray(w, dtype=np.float64).T + np.asarray(b, dtype=np.float64)
        if l < last:
            x = np.maximum(x, 0.0)
    return x


def reference_scores(model, queries) -> np.ndarray:
    """Float64 forward pass of every query from the model's tables and weights:
    bottom MLP, per-table row sums, concatenation, top MLP."""
    bottom = _mlp64(np.array([q.dense for q in queries], dtype=np.float64),
                    model.bottom_weights, model.bottom_biases)
    parts = [bottom]
    for t, table in enumerate(model.tables):
        idx = np.array([q.indices[t] for q in queries], dtype=np.int64)
        parts.append(table.values[idx].astype(np.float64).sum(axis=1))
    return _mlp64(np.concatenate(parts, axis=1), model.top_weights, model.top_biases)[:, 0]


def _page_read_ns(scenario) -> int:
    t, g = scenario.timing, scenario.geometry
    return round(t.page_read_us * 1000.0) + round(g.page_size * t.channel_transfer_ns_per_byte)


def _baseline_horizon_ns(scenario, hits: int, misses: int, queries: int) -> int:
    """Documented ssd-baseline cost: queries run serially; a DRAM hit costs
    dram_hit_ns, a miss a page read plus the host transfer of one vector plus
    the software-stack overhead, and each query one host MLP pass."""
    t, spec = scenario.timing, scenario.model.spec
    hit = round(t.dram_hit_ns)
    miss = (_page_read_ns(scenario) + round(spec.ev_dim * 4 * t.host_interface_ns_per_byte)
            + round(t.host_block_io_overhead_us * 1000.0))
    macs = sum(dims[l] * dims[l + 1]
               for dims in (spec.bottom_mlp_dims, spec.top_mlp_dims)
               for l in range(len(dims) - 1))
    return hits * hit + misses * miss + queries * round(macs * t.host_ns_per_mac)


def _stacks(spec) -> dict:
    return {name: [(dims[l], dims[l + 1]) for l in range(len(dims) - 1)]
            for name, dims in (("bottom", spec.bottom_mlp_dims), ("top", spec.top_mlp_dims))}


def _spill_floor_cycles(stacks: dict, resource_model, period_ns: float) -> dict:
    """Layers fill block RAM whole, bottom stack then top, in model order; a
    layer that does not fit streams its weights (and bias) from DRAM once per
    batch, which floors its pass at the fetch time."""
    remaining = resource_model.bram_bytes
    floors = {}
    for name in ("bottom", "top"):
        floors[name] = []
        for r, c in stacks[name]:
            nbytes = (r * c + c) * 4
            if nbytes <= remaining:
                remaining -= nbytes
                floors[name].append(0)
            else:
                fetch_ns = round(nbytes * 1e9 / resource_model.dram_bandwidth_bytes_per_s)
                floors[name].append(math.ceil(fetch_ns / period_ns))
    return floors


def search_checks(scenario, outcome, pipeline_oracle) -> list[tuple[str, bool]]:
    """The search outcome is feasible and both stage times, recomputed with the
    pipeline oracle, fit the embedding time; halving any FC kernel dimension of
    the chosen assignment pushes its stage over that budget. The second must
    hold because the search scans stage candidates in ascending area, so every
    smaller candidate was tried first and failed."""
    if outcome is None or not outcome.feasible:
        return [("search_fit", False), ("search_minimal", False)]
    period = 1000.0 / scenario.timing.fc_clock_mhz
    stacks = _stacks(scenario.model.spec)
    floors = _spill_floor_cycles(stacks, scenario.resource_model, period)
    budget = outcome.times.emb_ns

    def stage_ns(name, kernels) -> int:
        completions, _ = pipeline_oracle(stacks[name], list(kernels), [0] * outcome.batch,
                                         floors[name])
        return round(max(completions) * period)

    chosen = {"bottom": outcome.assignment.bottom, "top": outcome.assignment.top}
    fit = all(stage_ns(name, kernels) <= budget for name, kernels in chosen.items())
    minimal = True
    for name, kernels in chosen.items():
        for l, kernel in enumerate(kernels):
            for d in (0, 1):
                if kernel[d] == 1:
                    continue
                halved = list(kernels)
                halved[l] = tuple(k // 2 if i == d else k for i, k in enumerate(kernel))
                minimal = minimal and stage_ns(name, halved) > budget
    return [("search_fit", fit), ("search_minimal", minimal)]


def scenario_checks(scenario, result, queries, reference_sha256: str, sim,
                    pipeline_oracle) -> list[tuple[str, bool]]:
    """Every check of one scenario's result in one pass."""
    m = result.metrics
    n = scenario.query_count
    checks = [("complete", m.completed == m.issued == n and m.in_flight == 0
               and len(result.scores) == n)]

    scores = np.asarray(result.scores, dtype=np.float64)
    ref = reference_scores(scenario.model, queries)
    tolerance = SCORE_RTOL * max(1.0, float(np.abs(ref).max()))
    checks.append(("scores", scores.shape == ref.shape
                   and bool(np.all(np.abs(scores - ref) <= tolerance))))

    checks.append(("throughput_percentiles", m.horizon_ns > 0
                   and math.isclose(m.throughput_qps, m.completed * 1e9 / m.horizon_ns,
                                    rel_tol=1e-12)
                   and m.latency_p50_ns <= m.latency_p95_ns <= m.latency_p99_ns
                   <= m.latency_max_ns <= m.horizon_ns))

    if scenario.mode == "ssd-baseline":
        lookups = sum(len(idx) for q in queries for idx in q.indices)
        checks.append(("baseline_accounting",
                       result.dram_hits + result.dram_misses == lookups
                       and m.horizon_ns == _baseline_horizon_ns(
                           scenario, result.dram_hits, result.dram_misses, len(queries))))
    else:
        checks.append(("latency_floor", len(result.latencies_ns) == n
                       and min(result.latencies_ns) >= _page_read_ns(scenario)))

    checks.append(("deterministic", metrics_sha256(sim, result) == reference_sha256))

    if scenario.mode == "rmssd" and scenario.auto_search:
        checks.extend(search_checks(scenario, result.search_outcome, pipeline_oracle))
    return checks


def expected_check_count(scenarios) -> int:
    """Checks per pass, fixed by the scenarios alone (so a pass whose simulator
    call raised counts the same number, all failed)."""
    return sum(5 + (2 if s.mode == "rmssd" and s.auto_search else 0) for s in scenarios)
