"""Scenario runner: full inference configurations over generated workloads.

Modes:

* ``rmssd``        — lookup engine and decomposed first top layer in the
  device; bottom MLP runs concurrently with the flash stage, the top stack
  is pipelined with alternating scans. Batches are dispatched back to back.
* ``emb-vectorsum`` — only lookup + vector sum in the device; summed vectors
  cross the host interface and the MLPs run on the host compute model.
* ``ssd-baseline``  — host-side inference with a static DRAM-resident row
  set covering ``dram_fraction`` of the table bytes; misses pay the full
  synchronous block-read path. Queries are processed serially.

Every mode runs on one batch driver, ``_drive``. Starting at time 0, it
dispatches the next batch whenever the device frees, while queries remain and
the clock is before ``duration_ns``. A mode only sets itself up and supplies
a stage function that does one batch's work: it returns each query's
completion time and score, and the time the device frees. The baseline is the
driver with batch 1, so a query is admitted when the previous one completes.

Per-query latency is measured from the dispatch of the query's batch (from
the start of its processing for the baseline). Scores of every mode are
computed with the reference summation orders; for device modes the embedding
values are read back from the flash byte image, so layout bugs surface as
score mismatches.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import ev_engine
from .ev_engine import translate_batch
from .kernel_search import (ResourceModel, SearchOutcome, SearchSpace, WorkloadProfile,
                            bram_placement, make_lookup_env, resource_usage, search,
                            spill_floor_cycles)
from .mlp_engine import (KernelAssignment, make_layers, pipeline_schedule,
                         pipeline_schedule_decomposed)
from .recmodel import Model, generate_workload, interact, mlp_forward, reference_inference
from .storage import SsdGeometry, TimingParams, page_read_time

SCHEMA_VERSION = 1

# Longest modelled duration of one operation. A run is a bounded number of
# operations, so with this cap every time stays far inside int64 nanoseconds.
MAX_OPERATION_NS = 1_000_000_000
# Shortest engine clock period, so that no cycle count exceeds its nanoseconds.
MIN_CLOCK_PERIOD_NS = 1.0

MODE_RMSSD = "rmssd"
MODE_EMB_VECTORSUM = "emb-vectorsum"
MODE_SSD_BASELINE = "ssd-baseline"
MODES = (MODE_RMSSD, MODE_EMB_VECTORSUM, MODE_SSD_BASELINE)


class InfeasibleSearchError(RuntimeError):
    def __init__(self, outcome: SearchOutcome):
        super().__init__(f"kernel search infeasible, binding constraint: "
                         f"{outcome.binding_constraint}")
        self.outcome = outcome


@dataclass(frozen=True)
class WorkloadConfig:
    distribution: str = "uniform"
    pooling: int = 8
    zipf_s: float = 1.0


@dataclass
class Scenario:
    mode: str
    model: Model
    geometry: SsdGeometry
    timing: TimingParams
    workload: WorkloadConfig
    query_count: int
    batch: int = 2
    dram_fraction: float = 0.25
    kernels: KernelAssignment | None = None
    auto_search: bool = False
    resource_model: ResourceModel = field(default_factory=ResourceModel)
    space: SearchSpace | None = None
    duration_ns: int | None = None

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.query_count < 0:
            raise ValueError("query_count must be >= 0")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if self.mode == MODE_SSD_BASELINE and not 0 < self.dram_fraction <= 1:
            raise ValueError(f"dram_fraction must be in (0, 1], got {self.dram_fraction}")
        if self.mode == MODE_RMSSD and self.kernels is None and not self.auto_search:
            raise ValueError("rmssd mode needs a kernel assignment or auto_search")
        if self.kernels is not None:
            self.kernels.validate(self.model.spec)
        if self.duration_ns is not None and self.duration_ns < 0:
            raise ValueError("duration_ns must be >= 0")
        t, g, rm = self.timing, self.geometry, self.resource_model
        _, _, spill = bram_placement(self.model.spec, rm)
        for name, ns in (("a page sense", t.page_read_us * 1000.0),
                         ("a page transfer", g.page_size * t.channel_transfer_ns_per_byte),
                         ("the host I/O overhead", t.host_block_io_overhead_us * 1000.0),
                         ("a DRAM hit", t.dram_hit_ns),
                         ("a page over the host interface",
                          g.page_size * t.host_interface_ns_per_byte),
                         ("a host MAC", t.host_ns_per_mac),
                         ("an engine clock period", t.clock_period_ns),
                         ("a spilled layer's weight fetch from DRAM",
                          max(spill["bottom"] + spill["top"]) * 1e9
                          / rm.dram_bandwidth_bytes_per_s)):
            if not ns <= MAX_OPERATION_NS:
                raise ValueError(f"{name} takes {ns:g} ns, over the limit of "
                                 f"{MAX_OPERATION_NS} ns (1 s)")
        if t.clock_period_ns < MIN_CLOCK_PERIOD_NS:
            raise ValueError(f"the engine clock period is {t.clock_period_ns:g} ns, under "
                             f"the limit of {MIN_CLOCK_PERIOD_NS:g} ns (fc_clock_mhz <= 1000)")
        sense, xfer = t.sense_ns, t.xfer_ns(g.page_size)
        if sense < 1 or xfer < 1:
            raise ValueError(f"a page read needs a sense and a transfer of >= 1 ns, "
                             f"got {sense} ns and {xfer} ns")
        wl = self.workload
        if wl.distribution not in ("uniform", "zipf"):
            raise ValueError(f"unknown distribution {wl.distribution!r}")
        if wl.pooling < 1:
            raise ValueError(f"pooling must be >= 1, got {wl.pooling}")
        if not wl.zipf_s > 0:
            raise ValueError(f"zipf_s must be > 0, got {wl.zipf_s}")
        ev_bytes = self.model.spec.ev_dim * 4
        if ev_bytes > g.page_size:
            raise ValueError(f"an embedding vector of {ev_bytes} bytes does not fit "
                             f"in a page of {g.page_size} bytes")


@dataclass
class Metrics:
    schema_version: int
    mode: str
    issued: int
    completed: int
    in_flight: int
    horizon_ns: int
    throughput_qps: float
    latency_p50_ns: int
    latency_p95_ns: int
    latency_p99_ns: int
    latency_max_ns: int
    channel_utilization: list[float]
    resources: dict | None
    event_count: int
    """Completed queries, plus dispatched batches in the device modes."""

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "mode": self.mode,
            "issued": self.issued,
            "completed": self.completed,
            "in_flight": self.in_flight,
            "horizon_ns": self.horizon_ns,
            "throughput_qps": self.throughput_qps,
            "latency_ns": {
                "p50": self.latency_p50_ns,
                "p95": self.latency_p95_ns,
                "p99": self.latency_p99_ns,
                "max": self.latency_max_ns,
            },
            "channel_utilization": self.channel_utilization,
            "resources": self.resources,
            "event_count": self.event_count,
        }


def metrics_json(metrics: Metrics) -> str:
    return json.dumps(metrics.to_dict(), indent=2, sort_keys=True) + "\n"


def percentile_nearest_rank(sorted_values: list[int], q: float) -> int:
    if not sorted_values:
        return 0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


@dataclass
class RunResult:
    metrics: Metrics
    scores: list[float]
    latencies_ns: list[int]
    spans: list[tuple[int, str, int, int]]     # (query_id, stage, start_ns, end_ns)
    search_outcome: SearchOutcome | None = None
    dram_hits: int = 0
    dram_misses: int = 0


def spans_to_csv(spans) -> str:
    lines = ["query_id,stage,start_ns,end_ns"]
    for qid, stage, s, e in spans:
        lines.append(f"{qid},{stage},{s},{e}")
    return "\n".join(lines) + "\n"


def _host_mlp_ns(spec, timing: TimingParams) -> int:
    macs = 0
    for dims in (spec.bottom_mlp_dims, spec.top_mlp_dims):
        for l in range(len(dims) - 1):
            macs += dims[l] * dims[l + 1]
    return round(macs * timing.host_ns_per_mac)


def _drive(scenario: Scenario, queries, batch: int, stage,
           dispatch_events: bool = True) -> RunResult:
    """The batch loop of every mode. `stage(t0, first_qid, batch_queries, spans,
    busy)` does one batch dispatched at t0: it appends the batch's spans, adds
    its per-channel busy time to `busy`, and returns each query's
    (completion_ns, score) and the time the device frees. `dispatch_events`
    counts each dispatch in `event_count`, besides each completion."""
    spans: list[tuple[int, str, int, int]] = []
    busy = [0] * scenario.geometry.channels
    scores: list[float] = []
    latencies: list[int] = []
    horizon = issued = batches = 0
    t0 = 0
    for first in range(0, len(queries), batch):
        if scenario.duration_ns is not None and t0 >= scenario.duration_ns:
            break
        bq = queries[first:first + batch]
        done, device_free = stage(t0, first, bq, spans, busy)
        issued += len(bq)
        batches += 1
        for end, score in done:
            scores.append(score)
            latencies.append(end - t0)
            horizon = max(horizon, end)
        t0 = device_free

    completed = len(latencies)
    lat = sorted(latencies)
    metrics = Metrics(
        schema_version=SCHEMA_VERSION,
        mode=scenario.mode,
        issued=issued,
        completed=completed,
        in_flight=issued - completed,
        horizon_ns=horizon,
        throughput_qps=completed * 1e9 / horizon if horizon > 0 else 0.0,
        latency_p50_ns=percentile_nearest_rank(lat, 0.50),
        latency_p95_ns=percentile_nearest_rank(lat, 0.95),
        latency_p99_ns=percentile_nearest_rank(lat, 0.99),
        latency_max_ns=lat[-1] if lat else 0,
        channel_utilization=([b / horizon for b in busy] if horizon > 0
                             else [0.0] * len(busy)),
        resources=None,
        event_count=completed + (batches if dispatch_events else 0),
    )
    return RunResult(metrics, scores, latencies, spans)


def run(scenario: Scenario, seed: int) -> RunResult:
    scenario.validate()
    model = scenario.model
    spec = model.spec
    wl = scenario.workload
    queries = []
    if scenario.query_count >= 1:
        queries = generate_workload(spec, wl.distribution, wl.pooling,
                                    scenario.query_count, seed, wl.zipf_s)
    env = make_lookup_env(model, scenario.geometry)
    runner = {MODE_RMSSD: _run_rmssd, MODE_EMB_VECTORSUM: _run_emb_vectorsum,
              MODE_SSD_BASELINE: _run_baseline}[scenario.mode]
    return runner(scenario, queries, seed, env)


def _score_device(model, query, ev_concat) -> float:
    spec = model.spec
    bottom = mlp_forward(spec.bottom_mlp_dims, model.bottom_weights, model.bottom_biases,
                         query.dense)
    top_in = interact(bottom, [ev_concat[t * spec.ev_dim:(t + 1) * spec.ev_dim]
                               for t in range(spec.num_tables)])
    out = mlp_forward(spec.top_mlp_dims, model.top_weights, model.top_biases, top_in)
    return float(out[0])


def _device_lookup(scenario: Scenario, env, kc_e: int):
    """Build the flash byte image; return the device modes' batch lookup on it,
    which also adds the batch's channel busy time to `busy`."""
    emap, ftl = env
    flash = ev_engine.build_flash_image(scenario.model.tables, emap, scenario.geometry)

    def lookup(bq, busy):
        result = ev_engine.simulate_lookup(scenario.model, bq, scenario.geometry,
                                           scenario.timing, emap, ftl, flash=flash, kc_e=kc_e)
        for c, b in enumerate(result.channel_busy_ns):
            busy[c] += b
        return result

    return lookup


def _run_rmssd(scenario: Scenario, queries, seed: int, env) -> RunResult:
    model, spec = scenario.model, scenario.model.spec
    timing = scenario.timing
    assignment, batch, outcome = scenario.kernels, scenario.batch, None
    if scenario.auto_search and scenario.kernels is None:
        profile = WorkloadProfile(scenario.workload.distribution, scenario.workload.pooling,
                                  scenario.workload.zipf_s, seed)
        space = scenario.space or SearchSpace(initial_batch=scenario.batch,
                                              max_batch=max(scenario.batch, 16))
        outcome = search(model, scenario.resource_model, scenario.geometry, timing, profile,
                         space)
        if not outcome.feasible:
            raise InfeasibleSearchError(outcome)
        assignment, batch = outcome.assignment, outcome.batch

    lookup = _device_lookup(scenario, env, assignment.ev[1])
    bottom_layers = make_layers(spec.bottom_mlp_dims)
    top_layers = make_layers(spec.top_mlp_dims)
    floors_b, floors_t = spill_floor_cycles(spec, scenario.resource_model, timing)
    period = timing.clock_period_ns

    def stage(t0, first, bq, spans, busy):
        emb = lookup(bq, busy)
        bot = pipeline_schedule(bottom_layers, assignment.bottom, period,
                                inputs_at_cycles=[0] * len(bq), floor_cycles=floors_b)
        e_cycles = [timing.ns_to_cycles(e) for e in emb.e_ns]
        top = pipeline_schedule_decomposed(top_layers, assignment.top, period,
                                           spec.bottom_out_width, spec.emb_out_width,
                                           bot.completions, e_cycles, floor_cycles=floors_t)
        b_ns = bot.completions_ns()
        s_ns = top.completions_ns()
        l0_start = {e.query: top.to_ns(e.start_cycle) for e in top.entries if e.layer == 0}
        done = []
        for i, q in enumerate(bq):
            qid = first + i
            done.append((t0 + s_ns[i], _score_device(model, q, emb.ev_concat[i])))
            spans.append((qid, "emb", t0 + emb.flash_start_ns[i], t0 + emb.e_ns[i]))
            spans.append((qid, "bottom_mlp", t0, t0 + b_ns[i]))
            spans.append((qid, "top_mlp", t0 + l0_start[i], t0 + s_ns[i]))
        return done, t0 + max(max(s_ns), emb.t_emb_ns)

    result = _drive(scenario, queries, batch, stage)
    result.metrics.resources = resource_usage(spec, assignment, scenario.resource_model).to_dict()
    result.search_outcome = outcome
    return result


def _run_emb_vectorsum(scenario: Scenario, queries, seed: int, env) -> RunResult:
    model, spec = scenario.model, scenario.model.spec
    timing = scenario.timing
    kc_e = scenario.kernels.ev[1] if scenario.kernels is not None else spec.ev_dim
    lookup = _device_lookup(scenario, env, kc_e)
    host_mlp = _host_mlp_ns(spec, timing)
    xfer = timing.host_iface_ns(spec.emb_out_width * 4) + timing.host_overhead_ns
    host_free = 0

    def stage(t0, first, bq, spans, busy):
        # the host MLP serves queries in order; it may still be busy with this
        # batch when the device takes the next one
        nonlocal host_free
        emb = lookup(bq, busy)
        done = []
        for i, q in enumerate(bq):
            qid = first + i
            ready = t0 + emb.e_ns[i] + xfer
            start = max(ready, host_free)
            host_free = start + host_mlp
            done.append((host_free, _score_device(model, q, emb.ev_concat[i])))
            spans.append((qid, "emb", t0 + emb.flash_start_ns[i], t0 + emb.e_ns[i]))
            spans.append((qid, "host_xfer", t0 + emb.e_ns[i], ready))
            spans.append((qid, "host_mlp", start, host_free))
        return done, t0 + emb.t_emb_ns

    return _drive(scenario, queries, scenario.batch, stage)


def resident_sets(spec, dram_fraction: float, distribution: str, seed: int):
    """Static per-table resident row sets: the hottest rows under zipf, a
    seeded uniform sample otherwise. Budget is dram_fraction of table rows."""
    sets = []
    rng = np.random.default_rng([int(seed), 0xD5A])
    for ts in spec.tables:
        m = int(ts.rows * dram_fraction)
        mask = np.zeros(ts.rows, dtype=bool)
        if distribution == "zipf":
            mask[:m] = True
        elif m > 0:
            picks = rng.choice(ts.rows, size=m, replace=False)
            mask[picks] = True
        sets.append(mask)
    return sets


def _run_baseline(scenario: Scenario, queries, seed: int, env) -> RunResult:
    model, spec = scenario.model, scenario.model.spec
    geometry, timing = scenario.geometry, scenario.timing
    emap, ftl = env
    resident = resident_sets(spec, scenario.dram_fraction, scenario.workload.distribution,
                             seed)
    host_mlp = _host_mlp_ns(spec, timing)
    page_busy = page_read_time(geometry, timing)
    # an embedding row never straddles a page, so every miss is one page read
    miss_ns = page_busy + timing.host_iface_ns(spec.ev_dim * 4) + timing.host_overhead_ns
    hit_ns = timing.dram_hit_ns_int
    # every lookup of the run, its residency, and its page's channel; these are
    # host reads, so the call does not go through the `ev_engine` attribute
    # that the benchmark's tracer counts as device requests
    lookups = translate_batch(emap, ftl, queries)
    hit = np.zeros(len(lookups), dtype=bool)
    for tbl, mask in enumerate(resident):
        mine = lookups.table == tbl
        hit[mine] = mask[lookups.index[mine]]
    count = len(queries)
    query_hits = np.bincount(lookups.query[hit], minlength=count).tolist()
    query_lookups = lookups.pooling.sum(axis=1).tolist()
    miss_slot = lookups.query[~hit] * geometry.channels + lookups.channel[~hit]
    query_channel_misses = np.bincount(miss_slot, minlength=count * geometry.channels) \
        .reshape(count, geometry.channels).tolist()
    hits = misses = 0

    def stage(t0, qid, bq, spans, busy):
        nonlocal hits, misses
        (q,) = bq
        q_hits = query_hits[qid]
        q_misses = query_lookups[qid] - q_hits
        hits += q_hits
        misses += q_misses
        for c, n in enumerate(query_channel_misses[qid]):
            busy[c] += n * page_busy
        emb_end = t0 + q_hits * hit_ns + q_misses * miss_ns
        t = emb_end + host_mlp
        spans.append((qid, "emb", t0, emb_end))
        spans.append((qid, "host_mlp", emb_end, t))
        return [(t, reference_inference(model, q))], t

    # queries run serially: one per dispatch, and a dispatch is not an event
    result = _drive(scenario, queries, 1, stage, dispatch_events=False)
    result.dram_hits, result.dram_misses = hits, misses
    return result


@dataclass
class ComparisonRow:
    mode: str
    throughput_qps: float
    throughput_x: float
    latency_p99_ns: int
    p99_reduction_pct: float
    latency_p50_ns: int
    p50_reduction_pct: float


@dataclass
class ComparisonReport:
    rows: list[ComparisonRow]

    def to_dict(self):
        return {"baseline": self.rows[0].mode,
                "rows": [vars(r) for r in self.rows]}


def compare(scenarios: list[Scenario], seed: int) -> tuple[ComparisonReport, list[RunResult]]:
    """Run all scenarios with one seed; ratios are against the first one."""
    if len(scenarios) < 2:
        raise ValueError("compare needs at least two scenarios")
    ref = scenarios[0]
    for s in scenarios[1:]:
        if s.model.spec != ref.model.spec:
            raise ValueError("scenarios must share one model")
        if s.workload != ref.workload or s.query_count != ref.query_count:
            raise ValueError("scenarios must share one workload")
    results = [run(s, seed) for s in scenarios]
    base = results[0].metrics
    rows = []
    for s, r in zip(scenarios, results):
        m = r.metrics
        thr_x = m.throughput_qps / base.throughput_qps if base.throughput_qps > 0 else 0.0
        p99_red = (100.0 * (1.0 - m.latency_p99_ns / base.latency_p99_ns)
                   if base.latency_p99_ns > 0 else 0.0)
        p50_red = (100.0 * (1.0 - m.latency_p50_ns / base.latency_p50_ns)
                   if base.latency_p50_ns > 0 else 0.0)
        rows.append(ComparisonRow(s.mode, m.throughput_qps, thr_x, m.latency_p99_ns,
                                  p99_red, m.latency_p50_ns, p50_red))
    return ComparisonReport(rows), results
