"""Constrained search for kernel assignments that keep both MLP stages within
the embedding-stage time while minimizing total kernel area.

Constraints for a candidate at batch B:

    bottom-stage time <= embedding-stage time
    top-stage time    <= embedding-stage time

Objective: sum of kr*kc over every FC kernel plus the vector-sum kernel.
Stage time is not monotone in kernel size: a larger kr lengthens the
adder-tree fill and makes a row-scan layer wait for wider input chunks. The
stack (33, 33), (33, 1) at batch 2 takes 19 cycles with kernels (32, 32),
(32, 1) and 18 with (32, 32), (16, 1). So no candidate is skipped on the
belief that larger kernels are never slower. Exactness rests on two facts
instead. Each stage is walked in ascending (area, kernel list) order, so the
first candidate that fits is the stage's minimum. And the walk only drops
layer options that cannot fit on their own: a layer unit serves the batch
back to back and its first pass also waits for the layer's spill floor, so
every stage holding option k of a layer takes at least
max(fc_cycles(layer, k, B), floor) cycles. Across vector-sum kernels, ties
break by smaller DSP count, then the lexicographically smallest flat kernel
list. If nothing is feasible at B the batch doubles up to a cap.

Weight placement: layers fill block RAM in model order until capacity, the
remainder spills to DRAM; a spilled layer pays its weight-fetch time once per
batch as a streaming floor.
"""

import heapq
from dataclasses import dataclass, field

from . import ev_engine
from .mlp_engine import KernelAssignment, fc_cycles, make_layers, pipeline_schedule
from .recmodel import Model, generate_workload
from .storage import Ftl, SsdGeometry, TimingParams


@dataclass(frozen=True)
class ResourceModel:
    lut_per_mac: float = 50.0
    ff_per_mac: float = 60.0
    dsp_per_mac: float = 2.0
    bram_bytes: int = 4 * 1024 * 1024
    dram_bandwidth_bytes_per_s: float = 1e9

    def __post_init__(self):
        for name in ("lut_per_mac", "ff_per_mac", "dsp_per_mac", "dram_bandwidth_bytes_per_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.bram_bytes <= 0:
            raise ValueError("bram_bytes must be > 0")


@dataclass(frozen=True)
class WorkloadProfile:
    distribution: str = "uniform"
    pooling: int = 8
    zipf_s: float = 1.0
    seed: int = 0


@dataclass(frozen=True)
class SearchSpace:
    initial_batch: int = 1
    max_batch: int = 16
    max_kernel: int | None = None   # optional cap on kr and kc

    def __post_init__(self):
        if self.initial_batch < 1 or self.max_batch < self.initial_batch:
            raise ValueError("need 1 <= initial_batch <= max_batch")


@dataclass(frozen=True)
class StageTimes:
    bottom_ns: int
    top_ns: int
    emb_ns: int


@dataclass
class ResourceUsage:
    lut: float
    ff: float
    dsp: float
    bram_bytes: int
    spilled: list[str]            # "bottom:0" style layer labels
    dram_traffic_bytes: int

    def to_dict(self):
        return {"lut": self.lut, "ff": self.ff, "dsp": self.dsp,
                "bram_bytes": self.bram_bytes, "spilled": list(self.spilled),
                "dram_traffic_bytes": self.dram_traffic_bytes}


@dataclass
class SearchOutcome:
    feasible: bool
    assignment: KernelAssignment | None
    batch: int
    times: StageTimes | None
    resources: ResourceUsage | None
    objective: int | None
    binding_constraint: str | None = None

    def slack_ns(self) -> dict[str, int] | None:
        if self.times is None:
            return None
        return {"bottom": self.times.emb_ns - self.times.bottom_ns,
                "top": self.times.emb_ns - self.times.top_ns}

    def to_dict(self):
        return {
            "feasible": self.feasible,
            "assignment": None if self.assignment is None else {
                "bottom": [list(k) for k in self.assignment.bottom],
                "top": [list(k) for k in self.assignment.top],
                "ev": list(self.assignment.ev),
            },
            "batch": self.batch,
            "times_ns": None if self.times is None else {
                "bottom": self.times.bottom_ns, "top": self.times.top_ns,
                "emb": self.times.emb_ns},
            "resources": None if self.resources is None else self.resources.to_dict(),
            "objective": self.objective,
            "slack_ns": self.slack_ns(),
            "binding_constraint": self.binding_constraint,
        }


def layer_weight_bytes(in_width: int, out_width: int) -> int:
    return (in_width * out_width + out_width) * 4


def bram_placement(spec, resource_model: ResourceModel):
    """Fill BRAM with whole layers in model order (bottom stack then top),
    spilling the rest to DRAM. Returns (resident_bytes, spilled labels,
    per-stack spill byte lists)."""
    remaining = resource_model.bram_bytes
    resident = 0
    spilled = []
    floors = {"bottom": [0] * (len(spec.bottom_mlp_dims) - 1),
              "top": [0] * (len(spec.top_mlp_dims) - 1)}
    for stack_name, dims in (("bottom", spec.bottom_mlp_dims), ("top", spec.top_mlp_dims)):
        for l, (r, c) in enumerate(zip(dims, dims[1:])):
            nbytes = layer_weight_bytes(r, c)
            if nbytes <= remaining:
                remaining -= nbytes
                resident += nbytes
            else:
                spilled.append(f"{stack_name}:{l}")
                floors[stack_name][l] = nbytes
    return resident, spilled, floors


def resource_usage(spec, assignment: KernelAssignment,
                   resource_model: ResourceModel) -> ResourceUsage:
    assignment.validate(spec)
    area = assignment.objective()
    resident, spilled, floors = bram_placement(spec, resource_model)
    traffic = sum(floors["bottom"]) + sum(floors["top"])
    return ResourceUsage(
        lut=resource_model.lut_per_mac * area,
        ff=resource_model.ff_per_mac * area,
        dsp=resource_model.dsp_per_mac * area,
        bram_bytes=resident,
        spilled=spilled,
        dram_traffic_bytes=traffic,
    )


def spill_floor_cycles(spec, resource_model: ResourceModel,
                       timing: TimingParams) -> tuple[list[int], list[int]]:
    """Per-layer weight-fetch floors, in engine cycles, of the bottom and the
    top stack: the DRAM fetch time of each layer that `bram_placement`
    spills, 0 for resident layers."""
    _, _, spill = bram_placement(spec, resource_model)

    def cycles(nbytes: int) -> int:
        if nbytes == 0:
            return 0
        fetch_ns = round(nbytes * 1e9 / resource_model.dram_bandwidth_bytes_per_s)
        return timing.ns_to_cycles(fetch_ns)

    return [cycles(b) for b in spill["bottom"]], [cycles(b) for b in spill["top"]]


def make_lookup_env(model: Model, geometry: SsdGeometry):
    """Default contiguous flash layout for the model's tables."""
    layout = ev_engine.default_extent_layout(model.spec, geometry)
    emap = ev_engine.build_extent_map(model.spec, layout, geometry)
    total_pages = max(1, emap.max_lba_end() // geometry.lbas_per_page)
    return emap, Ftl(geometry, total_pages)


def _stage_makespan_ns(layers, kernels, batch, timing: TimingParams, floor_cycles) -> int:
    sched = pipeline_schedule(layers, kernels, timing.clock_period_ns,
                              inputs_at_cycles=[0] * batch, floor_cycles=floor_cycles)
    return sched.makespan_ns


def estimate_times(model: Model, assignment: KernelAssignment, batch: int,
                   geometry: SsdGeometry, timing: TimingParams,
                   profile: WorkloadProfile,
                   resource_model: ResourceModel | None = None) -> StageTimes:
    """Stage times for one profile-representative batch: the embedding time
    comes from a seeded lookup simulation, the MLP times from the pipeline
    cycle model (with spill floors when a resource model is given)."""
    spec = model.spec
    assignment.validate(spec)
    if batch < 1:
        raise ValueError("batch must be >= 1")
    emap, ftl = make_lookup_env(model, geometry)
    queries = generate_workload(spec, profile.distribution, profile.pooling, batch,
                                profile.seed, profile.zipf_s)
    lookup = ev_engine.simulate_lookup(model, queries, geometry, timing, emap, ftl,
                                       kc_e=assignment.ev[1])
    floors_b = floors_t = None
    if resource_model is not None:
        floors_b, floors_t = spill_floor_cycles(spec, resource_model, timing)
    bot_ns = _stage_makespan_ns(make_layers(spec.bottom_mlp_dims), assignment.bottom, batch,
                                timing, floors_b)
    top_ns = _stage_makespan_ns(make_layers(spec.top_mlp_dims), assignment.top, batch,
                                timing, floors_t)
    return StageTimes(bottom_ns=bot_ns, top_ns=top_ns, emb_ns=lookup.t_emb_ns)


def kernel_options(dim: int, cap: int | None = None) -> list[int]:
    limit = dim if cap is None else min(dim, cap)
    return [1 << k for k in range(limit.bit_length()) if (1 << k) <= limit]


def emb_budgets(model: Model, queries, geometry: SsdGeometry, timing: TimingParams,
                emap, ftl) -> dict[int, int]:
    """The batch's embedding time for each adder width kc_e. The width changes
    only the adder, so the flash is scheduled once for all of them."""
    ev_dim = model.spec.ev_dim
    lookup = ev_engine.simulate_lookup(model, queries, geometry, timing, emap, ftl)
    return {kc_e: int(ev_engine.adder_done_ns(lookup.requests.pooling, lookup.arrival_ns,
                                              ev_dim, timing, kc_e).max())
            for kc_e in kernel_options(ev_dim)}


def _stage_candidates(layers, space: SearchSpace, batch: int, timing: TimingParams,
                      budget_ns: int, floors):
    """Yield the stage's kernel lists in ascending (area, kernels) order,
    skipping every layer option that cannot fit the budget on its own.

    Each layer's options are sorted by (area, kernel), and a heap pops index
    vectors over that lattice. A vector's successors advance one layer at or
    after the last advanced one, so every vector is pushed once, and each
    successor's key is strictly greater than its parent's: the pops come out
    in exact sorted order."""
    per_layer = []
    for l, layer in enumerate(layers):
        floor = floors[l] if floors else 0
        opts = [(kr, kc)
                for kr in kernel_options(layer.in_width, space.max_kernel)
                for kc in kernel_options(layer.out_width, space.max_kernel)
                if timing.cycles_to_ns(max(fc_cycles(layer, (kr, kc), batch), floor))
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


def _best_stage(layers, space, batch, timing, budget_ns, floors, makespans):
    """The first candidate of the walk that fits the budget, or None.
    `makespans` caches each candidate's time across the budgets of a batch."""
    for kernels in _stage_candidates(layers, space, batch, timing, budget_ns, floors):
        if kernels not in makespans:
            makespans[kernels] = _stage_makespan_ns(layers, kernels, batch, timing, floors)
        if makespans[kernels] <= budget_ns:
            return kernels
    return None


def search(model: Model, resource_model: ResourceModel, geometry: SsdGeometry,
           timing: TimingParams, profile: WorkloadProfile,
           space: SearchSpace = SearchSpace()) -> SearchOutcome:
    """Find the cheapest feasible assignment, escalating batch size when
    nothing fits. Returns an infeasible outcome naming the binding constraint
    when even the largest kernels of the space cannot keep up at the batch
    cap."""
    spec = model.spec
    emap, ftl = make_lookup_env(model, geometry)
    bottom, top = make_layers(spec.bottom_mlp_dims), make_layers(spec.top_mlp_dims)
    floors_b, floors_t = spill_floor_cycles(spec, resource_model, timing)

    batch = space.initial_batch
    while True:
        queries = generate_workload(spec, profile.distribution, profile.pooling, batch,
                                    profile.seed, profile.zipf_s)
        emb_by_kce = emb_budgets(model, queries, geometry, timing, emap, ftl)
        makespans_b, makespans_t = {}, {}
        best = None
        for kc_e, emb_ns in emb_by_kce.items():
            bot = _best_stage(bottom, space, batch, timing, emb_ns, floors_b, makespans_b)
            if bot is None:
                continue
            topk = _best_stage(top, space, batch, timing, emb_ns, floors_t, makespans_t)
            if topk is None:
                continue
            cand = KernelAssignment(bot, topk, (1, kc_e))
            key = (cand.objective(), resource_model.dsp_per_mac * cand.objective(),
                   cand.flat())
            if best is None or key < best[0]:
                best = (key, cand, StageTimes(makespans_b[bot], makespans_t[topk], emb_ns))
        if best is not None:
            _, assignment, times = best
            return SearchOutcome(
                feasible=True, assignment=assignment, batch=batch, times=times,
                resources=resource_usage(spec, assignment, resource_model),
                objective=assignment.objective(),
            )
        if batch * 2 > space.max_batch:
            break
        batch *= 2

    # Diagnose with each layer's largest kernel in the space against the
    # budget of the slowest adder (kc_e = 1). No candidate fit that budget, so
    # these kernels miss it in at least one stage; the larger miss binds.
    def largest(layers):
        return tuple((kernel_options(l.in_width, space.max_kernel)[-1],
                      kernel_options(l.out_width, space.max_kernel)[-1]) for l in layers)

    budget = emb_by_kce[1]
    bot_ns = _stage_makespan_ns(bottom, largest(bottom), batch, timing, floors_b)
    top_ns = _stage_makespan_ns(top, largest(top), batch, timing, floors_t)
    return SearchOutcome(
        feasible=False, assignment=None, batch=batch,
        times=StageTimes(bot_ns, top_ns, budget), resources=None, objective=None,
        binding_constraint="bottom" if bot_ns >= top_ns else "top",
    )


@dataclass
class ConstraintReport:
    times: StageTimes
    slack_bottom_ns: int
    slack_top_ns: int
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_constraints(model: Model, outcome: SearchOutcome, geometry: SsdGeometry,
                       timing: TimingParams, profile: WorkloadProfile,
                       resource_model: ResourceModel | None = None) -> ConstraintReport:
    """Re-derive the stage times for an outcome and report per-constraint slack."""
    if outcome.assignment is None:
        raise ValueError("outcome carries no assignment to verify")
    times = estimate_times(model, outcome.assignment, outcome.batch, geometry, timing,
                           profile, resource_model)
    slack_b = times.emb_ns - times.bottom_ns
    slack_t = times.emb_ns - times.top_ns
    violations = []
    if slack_b < 0:
        violations.append("bottom")
    if slack_t < 0:
        violations.append("top")
    return ConstraintReport(times, slack_b, slack_t, violations)
