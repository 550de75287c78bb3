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

A ``Scenario`` is frozen and valid once built: it checks the rules that join
its fields, each record it holds has checked its own, and its table layout
(``Scenario.layout``, no vector larger than a page), integer durations
(``Scenario.durations``, no time over its limits) and spill floors
(``Scenario.spill_floors``, no weight fetch over 1 s) are computed then,
once. The runs and the kernel search (``search(scenario, seed)``) read these
records and build none of their own.

The device modes share one batch loop, ``_drive``. Each batch starts on an
idle device, so batches interact only through their dispatch times: from time
0, each batch's ``t0`` is the sum of the device times before it, and a batch
is dispatched while queries remain and its ``t0`` is before ``duration_ns``.
The loop looks up fixed-size chunks of batches through one call chain each,
``translate_batch`` -> ``read_timeline`` -> ``simulate_lookup``, one batch per
lane of the page scheduler (each of the lane's channel buses serves its
dies in rounds, the k-th read of every die in the order of the dies' first
reads), and the mode's stage function gives each batch's device time and
its own per-query columns. rmssd
schedules the bottom MLP once per run and the top MLP once per chunk, one
batch per lane of the pipeline scheduler. What follows the device is
closed-form over the run's columns: emb-vectorsum's in-order host MLP queue
is a max-plus scan, and the baseline's serial queries start at the running
sum of their times, so ``duration_ns`` admits a prefix of them.
A run's workload, and what runs on it share, is one ``Session``: the
workload's arrays (a ``recmodel.Workload``), of which the batch loop's chunks
and the scored prefix are views sliced on the query axis; each chunk's
translation and read timeline, which read neither the tables nor the adder's
width, under what they do read, (geometry, sense, transfer, batch, chunk
start), so every device run with that key reuses them and finishes the lookup
(``simulate_lookup``) from its own flash image at its own ``kc_e``, whatever
its engine or host times; and the scoring's MLP passes, which a
later pass reuses only on byte-equal weights, biases and input. Neither key
names the model, so a session admits scenarios of one model spec (and so one
table layout) and one ``WorkloadConfig`` whose query count and
pooling are its workload's, and refuses others before they run. ``compare``
admits every scenario to one session, then runs each on it: the bottom MLP
runs once (once per admitted prefix, when ``duration_ns`` cuts), and the top
MLP once while every mode's summed vectors equal the baseline's; a mode whose
gather or sum went wrong scores on its own input. Models are compared by
content, not by object, since each scenario may hold its own copy. A lone
``run`` draws a session of its own.

Per-query latency is measured from the dispatch of the query's batch (from
the start of its processing for the baseline). A run is scored in one forward
pass, one bottom-MLP and one top-MLP pass over every admitted query, with the
reference summation orders. The device modes read the embedding values back
from the flash byte image, so layout bugs surface as score mismatches; the
baseline gathers the host's table rows, one gather per table, and sums them
in one call of the device's index-order vector sum. Every query looks up the
same number of rows of each table (the workload's pooling), so a lookup is a
(queries, tables, pooling) array throughout.
"""

import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import ev_engine
from .ev_engine import translate_batch
from .kernel_search import (ResourceModel, SearchOutcome, SearchSpace, bram_placement,
                            resource_usage, search)
from .mlp_engine import KernelAssignment, pipeline_schedule, pipeline_schedule_decomposed
from .recmodel import Model, Workload, WorkloadConfig, generate_workload, interact, mlp_forward
# unused here, but the benchmark's tracer (perfbench/tracing.py) wraps it by name
from .recmodel import reference_inference  # noqa: F401
from .storage import MAX_OPERATION_NS, Durations, SsdGeometry, TimingParams, page_location

SCHEMA_VERSION = 1

# Queries per lookup (one call chain) of the batch loop, rounded down to
# whole batches (at least one): it bounds the size of one lookup's arrays on
# long runs.
CHUNK_QUERIES = 512

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
class Scenario:
    """One run's inputs, checked when built (so `dataclasses.replace` checks again)."""
    mode: str
    model: Model
    geometry: SsdGeometry
    timing: TimingParams
    workload: WorkloadConfig
    query_count: int
    batch: int = 2
    dram_fraction: float = 0.25
    kernels: KernelAssignment | None = None     # None: rmssd runs the kernel search
    resource_model: ResourceModel = field(default_factory=ResourceModel)
    space: SearchSpace = field(default_factory=SearchSpace)
    duration_ns: int | None = None

    @property
    def auto_search(self) -> bool:
        """Whether rmssd runs the kernel search: it does when no kernels are given."""
        return self.kernels is None

    @cached_property
    def durations(self) -> Durations:
        """The scenario's integer times, each rounded once (`Durations.of`)."""
        return Durations.of(self.timing, self.geometry, self.model.spec)

    @cached_property
    def layout(self) -> ev_engine.TableLayout:
        """Where the model's rows lie on the geometry's pages."""
        return ev_engine.table_layout(self.model.spec, self.geometry)

    @cached_property
    def spill_floors(self) -> tuple[list[int], list[int]]:
        """Per-layer weight-fetch floors, in engine cycles, of the bottom and
        the top stack: the DRAM fetch time of each layer that `bram_placement`
        spills (0 if resident), checked against `MAX_OPERATION_NS` unrounded."""
        rm = self.resource_model
        _, _, spill = bram_placement(self.model.spec, rm)
        fetch = [[nbytes * 1e9 / rm.dram_bandwidth_bytes_per_s for nbytes in spill[stack]]
                 for stack in ("bottom", "top")]
        worst = max(fetch[0] + fetch[1])
        if not worst <= MAX_OPERATION_NS:
            raise ValueError(f"a spilled layer's weight fetch from DRAM takes {worst!r} ns, "
                             f"over the limit of {MAX_OPERATION_NS} ns (1 s)")
        return tuple([self.durations.ns_to_cycles(ns) for ns in stack] for stack in fetch)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.query_count < 0:
            raise ValueError("query_count must be >= 0")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if self.mode == MODE_SSD_BASELINE and not 0 < self.dram_fraction <= 1:
            raise ValueError(f"dram_fraction must be in (0, 1], got {self.dram_fraction}")
        if self.kernels is not None:
            self.kernels.validate(self.model.spec)
        if self.duration_ns is not None and self.duration_ns < 0:
            raise ValueError("duration_ns must be >= 0")
        self.durations      # refuses a time outside the limits of `Durations.of`
        self.spill_floors   # refuses a weight fetch over `MAX_OPERATION_NS`
        self.layout         # refuses an embedding vector larger than a page


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
        out = {k: v for k, v in vars(self).items() if not k.startswith("latency_")}
        out["latency_ns"] = {k: getattr(self, f"latency_{k}_ns")
                             for k in ("p50", "p95", "p99", "max")}
        return out


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
    spans: list[tuple[str, np.ndarray, np.ndarray]]     # (stage, start_ns, end_ns) columns
    search_outcome: SearchOutcome | None = None
    dram_hits: int = 0
    dram_misses: int = 0


def spans_to_csv(spans) -> str:
    """One row per query and stage of a run's spans, query by query."""
    cols = [(name, s.tolist(), e.tolist()) for name, s, e in spans]
    rows = (f"{q},{name},{s[q]},{e[q]}" for q in range(len(spans[0][1])) for name, s, e in cols)
    return "\n".join(["query_id,stage,start_ns,end_ns", *rows]) + "\n"


def _same(a, b) -> bool:
    """Whether two arrays hold the same bytes in the same shape and dtype: -0.0
    and 0.0 differ, and a NaN equals only its own bit pattern."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class Session:
    """A workload and what the runs on it share; see the module docstring.

    A drawn session knows the `WorkloadConfig` it was drawn from. One built
    by hand from arrays trusts them: it takes the first admitted scenario's
    `WorkloadConfig` as its own, and checks only the query count and pooling
    against the arrays."""

    def __init__(self, queries: Workload):
        self.queries = queries
        self._spec = self._workload = None
        self._lookups = {}
        self._passes = []

    @classmethod
    def draw(cls, scenario: Scenario, seed: int) -> "Session":
        """A session on the scenario's workload drawn with `seed`."""
        wl = scenario.workload
        session = cls(generate_workload(scenario.model.spec, wl.distribution, wl.pooling,
                                        scenario.query_count, seed, wl.zipf_s))
        session._workload = wl
        return session

    def admit(self, scenario: Scenario) -> None:
        if scenario.query_count != len(self.queries) or \
                scenario.workload.pooling != self.queries.pooling or \
                self._workload not in (None, scenario.workload):
            raise ValueError("scenarios must share one workload")
        if self._spec not in (None, scenario.model.spec):
            raise ValueError("scenarios must share one model")
        self._spec, self._workload = scenario.model.spec, scenario.workload

    def lookup(self, layout, durations: Durations, batch: int, first: int, count: int):
        """The translation and read timeline of queries [first, first + count)."""
        geometry, sense, xfer = layout.geometry, durations.sense_ns, durations.xfer_ns
        key = (geometry, sense, xfer, batch, first)
        if key not in self._lookups:
            reqs = ev_engine.translate_batch(layout, self.queries[first:first + count])
            self._lookups[key] = reqs, ev_engine.read_timeline(reqs, batch, geometry, sense, xfer)
        return self._lookups[key]

    def forward(self, dims, weights, biases, x) -> np.ndarray:
        """`mlp_forward` of the (queries, inputs) matrix `x`, or the output of
        an earlier pass whose dims, weights, biases and input were byte-equal
        to these. Dims are compared first, so other stacks copy no bytes."""
        for d, w, b, x0, y0 in self._passes:
            if d == dims and _same(x0, x) and all(map(_same, w, weights)) and \
                    all(map(_same, b, biases)):
                return y0
        y = mlp_forward(dims, weights, biases, x)
        self._passes.append((dims, weights, biases, x, y))
        return y


def _drive(scenario: Scenario, session: Session, batch: int, kc_e: int, stage):
    """The device modes' batch loop. Batches run back to back from time 0,
    each on an idle device, so they share only their dispatch times: a
    batch's `t0` is the sum of the device times before it, and the batch is
    dispatched while `t0` is before `duration_ns`. One lookup covers a chunk
    of whole batches (`CHUNK_QUERIES`), one batch per lane, and
    `stage(emb, batch)` returns the chunk's per-batch device times and the
    mode's per-query columns, relative to each batch's dispatch. The chunk's
    translation and read timeline come from the session (`Session.lookup`).
    Returns the dispatched queries' ns columns (`t0`, `emb_start`, `emb_end`,
    then the stage's; a column no batch made reads as empty), their summed
    vectors, the channels' busy times and the batch count."""
    model, geometry, durations = scenario.model, scenario.geometry, scenario.durations
    flash = ev_engine.build_flash_image(model.tables, scenario.layout)
    t_add = durations.add_ns(kc_e)
    chunk = max(1, CHUNK_QUERIES // batch) * batch
    # an empty first entry, so that a run with no batch concatenates
    times, ev = defaultdict(list), [np.zeros((0, model.spec.emb_out_width), np.float32)]
    busy = np.zeros(geometry.channels, dtype=np.int64)
    t0 = batches = 0
    for first in range(0, len(session.queries), chunk):
        if scenario.duration_ns is not None and t0 >= scenario.duration_ns:
            break
        requests, timeline = session.lookup(scenario.layout, durations, batch, first, chunk)
        emb = ev_engine.simulate_lookup(flash, requests, timeline, t_add, batch)
        device_ns, cols = stage(emb, batch)
        dispatch = t0 + np.cumsum(device_ns) - device_ns
        admitted = len(dispatch) if scenario.duration_ns is None else \
            int(np.searchsorted(dispatch, scenario.duration_ns))
        n = min(admitted * batch, len(emb.e_ns))
        start = np.repeat(dispatch[:admitted], batch)[:n]
        for name, col in {"t0": 0 * emb.e_ns, "emb_start": timeline.first_sense_ns,
                          "emb_end": emb.e_ns, **cols}.items():
            times[name].append(start + col[:n])
        ev.append(emb.ev_concat[:n])
        busy += timeline.channel_busy_ns[:admitted].sum(axis=0)
        batches += admitted
        t0 = int(dispatch[-1] + device_ns[-1])
        if admitted < len(dispatch):
            break
    return (defaultdict(lambda: np.zeros(0, dtype=np.int64),
                        {k: np.concatenate(v) for k, v in times.items()}),
            np.concatenate(ev), busy, batches)


def _result(scenario: Scenario, session: Session, ev, start, done, stages, busy,
            events: int) -> RunResult:
    """Score the session's first len(start) queries and summarize their
    timeline, each running from `start` to `done`, with spans the (stage,
    start, end) columns `stages`. `ev` holds each query's summed vectors.
    Scoring is one bottom-MLP and one top-MLP pass over (queries, width)
    matrices, each reusing an earlier one of the session on the same bytes
    (`Session.forward`): a compare's modes score the same dense rows, and
    their summed vectors are equal unless a mode gathered or summed wrongly,
    which then shows as a score mismatch."""
    n = len(start)
    latencies = (done - start).tolist()
    lat = sorted(latencies)
    horizon = int(done.max(initial=0))
    metrics = Metrics(
        schema_version=SCHEMA_VERSION,
        mode=scenario.mode,
        issued=n,
        completed=n,
        in_flight=0,
        horizon_ns=horizon,
        throughput_qps=n * 1e9 / horizon if horizon > 0 else 0.0,
        latency_p50_ns=percentile_nearest_rank(lat, 0.50),
        latency_p95_ns=percentile_nearest_rank(lat, 0.95),
        latency_p99_ns=percentile_nearest_rank(lat, 0.99),
        latency_max_ns=lat[-1] if lat else 0,
        channel_utilization=([b / horizon for b in busy.tolist()] if horizon > 0
                             else [0.0] * len(busy)),
        resources=None,
        event_count=events,
    )
    model, spec = scenario.model, scenario.model.spec
    bottom = session.forward(spec.bottom_mlp_dims, model.bottom_weights, model.bottom_biases,
                             session.queries[:n].dense)
    ev = np.asarray(ev, dtype=np.float32).reshape(n, spec.emb_out_width)
    top = session.forward(spec.top_mlp_dims, model.top_weights, model.top_biases,
                          interact(bottom, [ev]))
    return RunResult(metrics, top[:, 0].tolist(), latencies, stages)


def run(scenario: Scenario, seed: int, session: Session | None = None) -> RunResult:
    """Simulate the scenario with `seed` on the session's workload, sharing
    the session's lookups and scoring passes with the runs before it on that
    session (see `Session`). None draws a new session, on the scenario's
    workload drawn with `seed`. A session refuses a scenario whose query count
    or pooling differs from its workload's, or whose `WorkloadConfig` or model
    spec differs from the one it has drawn or admitted."""
    if session is None:
        session = Session.draw(scenario, seed)
    session.admit(scenario)
    runner = {MODE_RMSSD: _run_rmssd, MODE_EMB_VECTORSUM: _run_emb_vectorsum,
              MODE_SSD_BASELINE: _run_baseline}[scenario.mode]
    return runner(scenario, session, seed)


def _run_rmssd(scenario: Scenario, session: Session, seed: int) -> RunResult:
    spec, durations = scenario.model.spec, scenario.durations
    assignment, batch, outcome = scenario.kernels, scenario.batch, None
    if assignment is None:
        outcome = search(scenario, seed)
        if not outcome.feasible:
            raise InfeasibleSearchError(outcome)
        assignment, batch = outcome.assignment, outcome.batch

    floors_b, floors_t = scenario.spill_floors
    # a query's schedule depends only on the queries before it in its batch,
    # and the bottom MLP's inputs are all at cycle 0: one bottom schedule
    # serves every batch, a partial one reading its prefix
    bottom = pipeline_schedule(spec.bottom_mlp_dims, assignment.bottom,
                               inputs_at_cycles=[0] * batch, floor_cycles=floors_b).completions[0]
    bottom_ns = durations.cycles_to_ns(bottom)

    def stage(emb, batch):
        # one top-MLP lane per batch, the partial last batch padded
        n = len(emb.e_ns)
        lanes = -(-n // batch)
        emb_cycles = np.zeros(lanes * batch, dtype=np.int64)
        emb_cycles[:n] = durations.ns_to_cycles(emb.e_ns)
        top = pipeline_schedule_decomposed(spec.top_mlp_dims, assignment.top,
                                           spec.bottom_out_width, bottom,
                                           emb_cycles.reshape(lanes, batch),
                                           floor_cycles=floors_t)
        done, top_start = (durations.cycles_to_ns(c).ravel()[:n]
                           for c in (top.completions, top.starts))
        device = np.maximum(np.maximum.reduceat(done, np.arange(0, n, batch)), emb.t_emb_ns)
        return device, {"bottom_end": np.tile(bottom_ns, lanes)[:n], "top_start": top_start,
                        "done": done}

    times, ev, busy, batches = _drive(scenario, session, batch, assignment.ev[1], stage)
    t0, done = times["t0"], times["done"]
    result = _result(scenario, session, ev, t0, done,
                     [("emb", times["emb_start"], times["emb_end"]),
                      ("bottom_mlp", t0, times["bottom_end"]),
                      ("top_mlp", times["top_start"], done)], busy, len(t0) + batches)
    result.metrics.resources = resource_usage(spec, assignment, scenario.resource_model).to_dict()
    result.search_outcome = outcome
    return result


def _run_emb_vectorsum(scenario: Scenario, session: Session, seed: int) -> RunResult:
    spec, durations = scenario.model.spec, scenario.durations
    kc_e = scenario.kernels.ev[1] if scenario.kernels is not None else spec.ev_dim
    host_mlp, xfer = durations.host_mlp_ns, durations.host_xfer_ns
    # the device frees when the batch's lookups end
    times, ev, busy, batches = _drive(scenario, session, scenario.batch, kc_e,
                                      lambda emb, batch: (emb.t_emb_ns, {}))
    t0, emb_end = times["t0"], times["emb_end"]
    ready = emb_end + xfer
    # the host MLP serves queries in order, so done_i = max(ready_i, done_{i-1})
    # + host_mlp, a max-plus scan: done_i = (i+1)·h + max_{k<=i}(ready_k - k·h)
    before = host_mlp * np.arange(len(ready))
    done = np.maximum.accumulate(ready - before) + before + host_mlp
    return _result(scenario, session, ev, t0, done,
                   [("emb", times["emb_start"], emb_end), ("host_xfer", emb_end, ready),
                    ("host_mlp", done - host_mlp, done)], busy, len(t0) + batches)


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


def _run_baseline(scenario: Scenario, session: Session, seed: int) -> RunResult:
    model, spec = scenario.model, scenario.model.spec
    geometry, durations = scenario.geometry, scenario.durations
    resident = resident_sets(spec, scenario.dram_fraction, scenario.workload.distribution,
                             seed)
    host_mlp, page_busy = durations.host_mlp_ns, durations.sense_ns + durations.xfer_ns
    index = session.queries.index
    hit = np.empty(index.shape, dtype=bool)
    for t, mask in enumerate(resident):
        hit[:, t] = mask[index[:, t]]
    hits = hit.sum(axis=(1, 2))
    misses = (~hit).sum(axis=(1, 2))
    # queries run serially, each starting when the previous one completes;
    # one is admitted while the clock is before duration_ns
    emb = hits * durations.dram_hit_ns + misses * durations.miss_ns
    done = np.cumsum(emb + host_mlp)
    start = done - (emb + host_mlp)
    n = len(start) if scenario.duration_ns is None else \
        int(np.searchsorted(start, scenario.duration_ns))
    start, emb, done = start[:n], emb[:n], done[:n]
    # the admitted lookups' pages; these are host reads, so the call does not
    # go through the `ev_engine` attribute that the benchmark's tracer counts
    # as device requests
    lookups = translate_batch(scenario.layout, session.queries[:n])
    channel = page_location(geometry, lookups.page[~hit[:n]])[0]
    busy = np.bincount(channel, minlength=geometry.channels) * page_busy
    # the host sums each table's rows in index order, as the device's vector sum
    ev = ev_engine.lookup_sums(ev_engine.gather_rows(model.tables, index[:n]))
    # a dispatch is not an event: each query is one completion
    result = _result(scenario, session, ev, start, done,
                     [("emb", start, start + emb), ("host_mlp", start + emb, done)], busy, n)
    result.dram_hits, result.dram_misses = int(hits[:n].sum()), int(misses[:n].sum())
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
    # one session: the workload, drawn once, each chunk's lookup and each
    # distinct scoring pass; it admits every scenario before any runs
    session = Session.draw(scenarios[0], seed)
    for s in scenarios:
        session.admit(s)
    results = [run(s, seed, session) for s in scenarios]
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
