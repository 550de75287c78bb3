"""Constrained search for kernel assignments that keep both MLP stages within
the embedding-stage time while minimizing total kernel area.

Constraints for a candidate at batch B:

    bottom-stage time <= embedding-stage time
    top-stage time    <= embedding-stage time

The public entries take a `sim.Scenario` and read the integer durations,
table layout and spill floors that it builds once.

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
max(fc_cycles(r, c, k, B), floor) cycles. Across vector-sum kernels, ties
break by the lexicographically smallest flat kernel list. The search starts
at the scenario's batch; if nothing is feasible at B the batch doubles while
it stays within a cap, so a cap below the starting batch tries that batch
alone.

Weight placement: layers fill block RAM in model order until capacity, the
remainder spills to DRAM; a spilled layer pays its weight-fetch time once per
batch as a streaming floor (`Scenario.spill_floors`).
"""

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from . import ev_engine
from .mlp_engine import KernelAssignment, fc_cycles, pipeline_schedule
from .recmodel import generate_workload
from .storage import Durations

if TYPE_CHECKING:   # `sim` imports this module
    from .sim import Scenario


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
class SearchSpace:
    max_batch: int = 16             # the batch doubles while it stays within this
    max_kernel: int | None = None   # optional cap on kr and kc

    def __post_init__(self):
        if self.max_kernel is not None and self.max_kernel < 1:
            raise ValueError(f"max_kernel must be >= 1, got {self.max_kernel}")


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


def _stage_makespan_ns(dims, kernels, batch, durations: Durations, floor_cycles) -> int:
    sched = pipeline_schedule(dims, kernels, inputs_at_cycles=[0] * batch,
                              floor_cycles=floor_cycles)
    return durations.cycles_to_ns(int(sched.completions.max()))


def estimate_times(scenario: "Scenario", assignment: KernelAssignment, batch: int,
                   seed: int) -> StageTimes:
    """Stage times for one batch of the scenario's workload drawn with `seed`:
    the embedding time is that batch's `emb_budgets` at the assignment's
    kc_e, the MLP times come from the pipeline cycle model with the
    scenario's spill floors."""
    spec, wl = scenario.model.spec, scenario.workload
    assignment.validate(spec)
    if batch < 1:
        raise ValueError("batch must be >= 1")
    durations, (floors_b, floors_t) = scenario.durations, scenario.spill_floors
    queries = generate_workload(spec, wl.distribution, wl.pooling, batch, seed, wl.zipf_s)
    emb_ns = emb_budgets(scenario, queries)[assignment.ev[1]]
    bot_ns = _stage_makespan_ns(spec.bottom_mlp_dims, assignment.bottom, batch, durations,
                                floors_b)
    top_ns = _stage_makespan_ns(spec.top_mlp_dims, assignment.top, batch, durations, floors_t)
    return StageTimes(bottom_ns=bot_ns, top_ns=top_ns, emb_ns=emb_ns)


def kernel_options(dim: int, cap: int | None = None) -> list[int]:
    limit = dim if cap is None else min(dim, cap)
    return [1 << k for k in range(limit.bit_length()) if (1 << k) <= limit]


def emb_budgets(scenario: "Scenario", queries) -> dict[int, int]:
    """The embedding time of `queries` on the scenario's device, looked up as
    one batch, for each adder width kc_e. The width changes only the adder's
    add time, so the page reads and the adder's order of their arrivals are
    computed once for all of them."""
    durations = scenario.durations
    requests = ev_engine.translate_batch(scenario.layout, queries)
    adder = ev_engine.read_timeline(requests, len(queries), scenario.geometry,
                                    durations.sense_ns, durations.xfer_ns).adder
    return {kc_e: int(adder.done_ns(durations.add_ns(kc_e)).max())
            for kc_e in kernel_options(scenario.model.spec.ev_dim)}


class _Stage:
    """One MLP stack's candidates at one batch, shared by the batch's
    embedding budgets: each layer's (kr, kc) options in ascending (area,
    kernel) order, each with the least time of any stage holding it (its
    max(fc_cycles(r, c, k, B), floor), in ns), and each candidate's makespan
    once it has been scheduled. A budget only filters the options. `dims`
    are the stack's widths, input width first, and `floors` its layers'
    spill floors in cycles."""

    def __init__(self, dims, space: SearchSpace, batch: int, durations: Durations, floors):
        self.dims, self.batch, self.durations, self.floors = dims, batch, durations, floors
        self.options = []
        for r, c, floor in zip(dims, dims[1:], floors):
            kernels = sorted(((kr, kc) for kr in kernel_options(r, space.max_kernel)
                              for kc in kernel_options(c, space.max_kernel)),
                             key=lambda k: (k[0] * k[1], k))
            self.options.append([(k, durations.cycles_to_ns(max(fc_cycles(r, c, k, batch), floor)))
                                 for k in kernels])
        self.makespans = {}

    def candidates(self, budget_ns: int):
        """Yield the stage's kernel lists in ascending (area, kernels) order,
        skipping every layer option that cannot fit the budget on its own.

        A heap pops index vectors over the lattice of the layers' fitting
        options. A vector's successors advance one layer at or after the last
        advanced one, so every vector is pushed once, and each successor's key
        is strictly greater than its parent's: the pops come out in exact
        sorted order."""
        per_layer = []
        for options in self.options:
            fits = [k for k, ns in options if ns <= budget_ns]
            if not fits:
                return
            per_layer.append(fits)

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

    def best(self, budget_ns: int):
        """The first candidate of the walk that fits the budget, or None."""
        for kernels in self.candidates(budget_ns):
            if kernels not in self.makespans:
                self.makespans[kernels] = _stage_makespan_ns(self.dims, kernels, self.batch,
                                                             self.durations, self.floors)
            if self.makespans[kernels] <= budget_ns:
                return kernels
        return None


def search(scenario: "Scenario", seed: int) -> SearchOutcome:
    """Find the scenario's cheapest feasible assignment, starting at its batch
    and doubling it while nothing fits and the double stays within its
    `space.max_batch`. The embedding budget at a batch is the lookup time of
    that many queries of the scenario's workload drawn with `seed`. Returns
    an infeasible outcome naming the binding constraint when even the largest
    kernels of the space cannot keep up at the last batch tried."""
    spec, wl, space, batch = (scenario.model.spec, scenario.workload, scenario.space,
                              scenario.batch)
    bottom, top = spec.bottom_mlp_dims, spec.top_mlp_dims
    durations, (floors_b, floors_t) = scenario.durations, scenario.spill_floors

    while True:
        queries = generate_workload(spec, wl.distribution, wl.pooling, batch, seed, wl.zipf_s)
        emb_by_kce = emb_budgets(scenario, queries)
        stage_b = _Stage(bottom, space, batch, durations, floors_b)
        stage_t = _Stage(top, space, batch, durations, floors_t)
        best = None
        for kc_e, emb_ns in emb_by_kce.items():
            bot = stage_b.best(emb_ns)
            if bot is None:
                continue
            topk = stage_t.best(emb_ns)
            if topk is None:
                continue
            cand = KernelAssignment(bot, topk, (1, kc_e))
            key = (cand.objective(), cand.flat())
            if best is None or key < best[0]:
                best = (key, cand, StageTimes(stage_b.makespans[bot], stage_t.makespans[topk],
                                              emb_ns))
        if best is not None:
            _, assignment, times = best
            return SearchOutcome(
                feasible=True, assignment=assignment, batch=batch, times=times,
                resources=resource_usage(spec, assignment, scenario.resource_model),
                objective=assignment.objective(),
            )
        if batch * 2 > space.max_batch:
            break
        batch *= 2

    # Diagnose with each layer's largest kernel in the space against the
    # budget of the slowest adder (kc_e = 1). No candidate fit that budget, so
    # these kernels miss it in at least one stage; the larger miss binds.
    def largest(dims):
        return tuple((kernel_options(r, space.max_kernel)[-1],
                      kernel_options(c, space.max_kernel)[-1]) for r, c in zip(dims, dims[1:]))

    budget = emb_by_kce[1]
    bot_ns = _stage_makespan_ns(bottom, largest(bottom), batch, durations, floors_b)
    top_ns = _stage_makespan_ns(top, largest(top), batch, durations, floors_t)
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


def verify_constraints(scenario: "Scenario", outcome: SearchOutcome,
                       seed: int) -> ConstraintReport:
    """Re-derive the stage times for an outcome on the scenario and report
    per-constraint slack."""
    if outcome.assignment is None:
        raise ValueError("outcome carries no assignment to verify")
    times = estimate_times(scenario, outcome.assignment, outcome.batch, seed)
    slack_b = times.emb_ns - times.bottom_ns
    slack_t = times.emb_ns - times.top_ns
    violations = []
    if slack_b < 0:
        violations.append("bottom")
    if slack_t < 0:
        violations.append("top")
    return ConstraintReport(times, slack_b, slack_t, violations)
