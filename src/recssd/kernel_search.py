"""Constrained search for kernel assignments that keep both MLP stages within
the embedding-stage time while minimizing total kernel area.

Constraints for a candidate at batch B:

    bottom-stage time <= embedding-stage time
    top-stage time    <= embedding-stage time

Objective: sum of kr*kc over every FC kernel plus the vector-sum kernel.
Feasibility is monotone (growing any kernel never slows its stage), so the
per-stage minimum is found exactly by scanning stage candidates in ascending
area; ties break by smaller DSP count, then the lexicographically smallest
flat kernel list. If nothing is feasible at B the batch doubles up to a cap.

Weight placement: layers fill block RAM in model order until capacity, the
remainder spills to DRAM; a spilled layer pays its weight-fetch time once per
batch as a streaming floor.
"""

import itertools
import math
from dataclasses import dataclass, field

from . import ev_engine
from .mlp_engine import KernelAssignment, make_layers, pipeline_schedule
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
    max_candidates: int = 2_000_000

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


def _stack_dims(spec):
    bottom = [(spec.bottom_mlp_dims[l], spec.bottom_mlp_dims[l + 1])
              for l in range(len(spec.bottom_mlp_dims) - 1)]
    top = [(spec.top_mlp_dims[l], spec.top_mlp_dims[l + 1])
           for l in range(len(spec.top_mlp_dims) - 1)]
    return bottom, top


def bram_placement(spec, resource_model: ResourceModel):
    """Fill BRAM with whole layers in model order (bottom stack then top),
    spilling the rest to DRAM. Returns (resident_bytes, spilled labels,
    per-stack spill byte lists)."""
    bottom, top = _stack_dims(spec)
    remaining = resource_model.bram_bytes
    resident = 0
    spilled = []
    floors = {"bottom": [0] * len(bottom), "top": [0] * len(top)}
    for stack_name, dims in (("bottom", bottom), ("top", top)):
        for l, (r, c) in enumerate(dims):
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


def _stage_makespan_ns(dims, kernels, batch, timing: TimingParams, floor_cycles) -> int:
    layers = make_layers([dims[0][0]] + [c for _, c in dims])
    sched = pipeline_schedule(layers, kernels, timing.clock_period_ns,
                              inputs_at_cycles=[0] * batch, floor_cycles=floor_cycles)
    return sched.makespan_ns


def estimate_times(model: Model, assignment: KernelAssignment, batch: int,
                   geometry: SsdGeometry, timing: TimingParams,
                   profile: WorkloadProfile, resource_model: ResourceModel | None = None,
                   env=None) -> StageTimes:
    """Stage times for one profile-representative batch: the embedding time
    comes from a seeded lookup simulation, the MLP times from the pipeline
    cycle model (with spill floors when a resource model is given)."""
    spec = model.spec
    assignment.validate(spec)
    if batch < 1:
        raise ValueError("batch must be >= 1")
    emap, ftl = env if env is not None else make_lookup_env(model, geometry)
    queries = generate_workload(spec, profile.distribution, profile.pooling, batch,
                                profile.seed, profile.zipf_s)
    lookup = ev_engine.simulate_lookup(model, queries, geometry, timing, emap, ftl,
                                       kc_e=assignment.ev[1])
    bottom, top = _stack_dims(spec)
    floors_b = floors_t = None
    if resource_model is not None:
        floors_b, floors_t = spill_floor_cycles(spec, resource_model, timing)
    bot_ns = _stage_makespan_ns(bottom, assignment.bottom, batch, timing, floors_b)
    top_ns = _stage_makespan_ns(top, assignment.top, batch, timing, floors_t)
    return StageTimes(bottom_ns=bot_ns, top_ns=top_ns, emb_ns=lookup.t_emb_ns)


def kernel_options(dim: int, cap: int | None = None) -> list[int]:
    limit = dim if cap is None else min(dim, cap)
    return [1 << k for k in range(limit.bit_length()) if (1 << k) <= limit]


def _stage_candidates(dims, space: SearchSpace):
    per_layer = []
    for r, c in dims:
        opts = [(kr, kc)
                for kr in kernel_options(r, space.max_kernel)
                for kc in kernel_options(c, space.max_kernel)]
        per_layer.append(opts)
    count = math.prod(len(o) for o in per_layer)
    if count > space.max_candidates:
        raise ValueError(f"stage search space of {count} candidates exceeds cap")
    combos = list(itertools.product(*per_layer))
    combos.sort(key=lambda ks: (sum(kr * kc for kr, kc in ks), ks))
    return combos


def _best_stage(dims, space, batch, timing, budget_ns, floors):
    for combo in _stage_candidates(dims, space):
        if _stage_makespan_ns(dims, combo, batch, timing, floors) <= budget_ns:
            return combo
    return None


def search(model: Model, resource_model: ResourceModel, geometry: SsdGeometry,
           timing: TimingParams, profile: WorkloadProfile,
           space: SearchSpace = SearchSpace()) -> SearchOutcome:
    """Find the cheapest feasible assignment, escalating batch size when
    nothing fits. Returns an infeasible outcome naming the binding constraint
    when even the fastest kernels cannot keep up at the batch cap."""
    spec = model.spec
    env = make_lookup_env(model, geometry)
    bottom, top = _stack_dims(spec)
    floors_b, floors_t = spill_floor_cycles(spec, resource_model, timing)
    kce_options = kernel_options(spec.ev_dim)

    batch = space.initial_batch
    last_diag = None
    while True:
        queries = generate_workload(spec, profile.distribution, profile.pooling, batch,
                                    profile.seed, profile.zipf_s)
        best = None
        emb_by_kce = {}
        for kc_e in kce_options:
            lookup = ev_engine.simulate_lookup(model, queries, geometry, timing,
                                               env[0], env[1], kc_e=kc_e)
            emb_by_kce[kc_e] = lookup.t_emb_ns
            bot = _best_stage(bottom, space, batch, timing, lookup.t_emb_ns, floors_b)
            if bot is None:
                continue
            topk = _best_stage(top, space, batch, timing, lookup.t_emb_ns, floors_t)
            if topk is None:
                continue
            cand = KernelAssignment(bot, topk, (1, kc_e))
            key = (cand.objective(), resource_model.dsp_per_mac * cand.objective(),
                   cand.flat())
            if best is None or key < best[0]:
                best = (key, cand)
        if best is not None:
            assignment = best[1]
            times = estimate_times(model, assignment, batch, geometry, timing, profile,
                                   resource_model, env=env)
            return SearchOutcome(
                feasible=True, assignment=assignment, batch=batch, times=times,
                resources=resource_usage(spec, assignment, resource_model),
                objective=assignment.objective(),
            )
        # diagnose with the fastest kernels against the loosest budget
        fastest = KernelAssignment.all_max(spec)
        budget = emb_by_kce[1]
        bot_ns = _stage_makespan_ns(bottom, fastest.bottom, batch, timing, floors_b)
        top_ns = _stage_makespan_ns(top, fastest.top, batch, timing, floors_t)
        last_diag = (batch, bot_ns, top_ns, budget)
        if batch * 2 > space.max_batch:
            break
        batch *= 2

    batch, bot_ns, top_ns, budget = last_diag
    violations = []
    if bot_ns > budget:
        violations.append(("bottom", bot_ns - budget))
    if top_ns > budget:
        violations.append(("top", top_ns - budget))
    binding = max(violations, key=lambda v: v[1])[0] if violations else "none"
    return SearchOutcome(
        feasible=False, assignment=None, batch=batch,
        times=StageTimes(bot_ns, top_ns, budget), resources=None, objective=None,
        binding_constraint=binding,
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

    def to_dict(self):
        return {"times_ns": {"bottom": self.times.bottom_ns, "top": self.times.top_ns,
                             "emb": self.times.emb_ns},
                "slack_ns": {"bottom": self.slack_bottom_ns, "top": self.slack_top_ns},
                "violations": list(self.violations), "ok": self.ok}


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
