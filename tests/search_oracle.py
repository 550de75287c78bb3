"""Exhaustive enumeration oracle for the kernel search strategy.

Brute-forces the full cartesian kernel space (bottom x top x vector-sum
kernel) at each batch size, sharing the package's constraint evaluator but
none of its search logic: every candidate is checked, the argmin is taken
under the documented key (objective, dsp, flat kernel list). The embedding
budgets come from the adder oracle over the lookup's page-read arrivals."""

import itertools

import numpy as np

from recssd.ev_engine import table_layout
from recssd.kernel_search import SearchSpace, kernel_options
from recssd.mlp_engine import KernelAssignment, pipeline_schedule
from recssd.recmodel import generate_workload
from recssd.sim import MODE_RMSSD, Scenario

from oracles import adder_oracle, cycles_ns, lookup_reads


def emb_ns(model, queries, geometry, timing) -> dict:
    """The embedding time of `queries`, looked up as one batch, for each adder
    width kc_e: the serial adder oracle, one adder per query and a free load
    per (query, table), over the arrivals of the lookup's page reads."""
    ev_dim = model.spec.ev_dim
    reads = lookup_reads(table_layout(model.spec, geometry), queries, geometry, timing)
    query, table, _ = np.indices(reads.requests.page.shape)
    keys = zip(query.ravel().tolist(), table.ravel().tolist())
    items = [(ready, seq, key) for seq, (ready, key)
             in enumerate(zip(reads.arrival_ns.ravel().tolist(), keys))]
    return {kc_e: max(adder_oracle(items, cycles_ns(timing, -(-ev_dim // kc_e)),
                                   group=lambda key: key[0]).values())
            for kc_e in kernel_options(ev_dim)}


def _stage_time(dims, kernels, batch, timing, floors):
    sched = pipeline_schedule(dims, kernels, inputs_at_cycles=[0] * batch,
                              floor_cycles=floors)
    return cycles_ns(timing, int(sched.completions.max()))


def enumerate_search(model, resource_model, geometry, timing, workload, seed, batch, space,
                     floors_b=None, floors_t=None):
    """Returns (assignment, batch, objective) or None if infeasible at every
    batch from `batch` up to the cap."""
    spec = model.spec
    bottom, top = spec.bottom_mlp_dims, spec.top_mlp_dims

    def stage_combos(dims):
        per_layer = []
        for r, c in zip(dims, dims[1:]):
            per_layer.append([(kr, kc)
                              for kr in kernel_options(r, space.max_kernel)
                              for kc in kernel_options(c, space.max_kernel)])
        return list(itertools.product(*per_layer))

    bot_combos = stage_combos(bottom)
    top_combos = stage_combos(top)

    while True:
        queries = generate_workload(spec, workload.distribution, workload.pooling, batch, seed,
                                    workload.zipf_s)
        best = None
        for kc_e, budget in emb_ns(model, queries, geometry, timing).items():
            bot_times = {c: _stage_time(bottom, c, batch, timing, floors_b)
                         for c in bot_combos}
            top_times = {c: _stage_time(top, c, batch, timing, floors_t)
                         for c in top_combos}
            for bc in bot_combos:
                if bot_times[bc] > budget:
                    continue
                for tc in top_combos:
                    if top_times[tc] > budget:
                        continue
                    cand = KernelAssignment(bc, tc, (1, kc_e))
                    key = (cand.objective(),
                           resource_model.dsp_per_mac * cand.objective(), cand.flat())
                    if best is None or key < best[0]:
                        best = (key, cand)
        if best is not None:
            return best[1], batch, best[1].objective()
        if batch * 2 > space.max_batch:
            return None
        batch *= 2


def search_scenario(model, resource_model, geometry, timing, workload, batch=1,
                    space=SearchSpace()):
    """The rmssd `Scenario` of the kernel search's inputs, the raw fields
    `enumerate_search` takes, with no queries of its own: the search draws
    its own."""
    return Scenario(MODE_RMSSD, model, geometry, timing, workload, query_count=0,
                    batch=batch, resource_model=resource_model, space=space)
