"""Spans around calls into the simulator's modules, for the per-layer metrics.

The tracer replaces a module attribute with a wrapper for the duration of a
traced run. It patches the name where the caller looks it up: `sim` imports
`pipeline_schedule` into its own namespace, so the `sim` binding is the one
that sees the scenario runner's calls, while `kernel_search`'s binding sees
only the search's stage evaluations.

Spans (name, start, end, parent) stay in memory until the pass ends. Self
time is a span's duration minus its children's; the calls are sequential, so
children never overlap.
"""

import functools
import statistics
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: list = []           # (name, start_s, end_s, parent index or None)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list = []

    def patch(self, module, attr: str, name, count=None) -> None:
        """Wrap module.attr in a span. `name` is a string or a function of the
        call's arguments; `count(args, result)` yields (counter, amount) pairs."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args)
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (span_name, start, end, parent)
            if count is not None:
                for key, amount in count(args, result):
                    self.counts[key] += amount
            return result

        self._saved.append((module, attr, fn))
        setattr(module, attr, traced)

    def restore(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def take(self) -> tuple[dict, dict, Counter]:
        """Per-name total and self seconds and the counters since the last
        take; clears them."""
        total: dict = defaultdict(float)
        children: dict = defaultdict(float)
        for span_name, start, end, parent in self.spans:
            total[span_name] += end - start
            if parent is not None:
                children[parent] += end - start
        self_s: dict = defaultdict(float)
        for i, (span_name, start, end, _) in enumerate(self.spans):
            self_s[span_name] += (end - start) - children.get(i, 0.0)
        counts = self.counts
        self.spans, self.counts = [], Counter()
        return total, self_s, counts


def install(tracer: Tracer, recssd) -> None:
    """Span every layer boundary the per-layer metrics name."""
    config, sim = recssd.config, recssd.sim
    ev_engine, kernel_search = recssd.ev_engine, recssd.kernel_search
    tracer.patch(config, "build_scenario", "config.build_scenario")
    tracer.patch(sim, "run", lambda args: f"sim.run.{args[0].mode}")
    tracer.patch(sim, "search", "kernel_search.search")
    for attr in ("pipeline_schedule", "pipeline_schedule_decomposed"):
        tracer.patch(sim, attr, "mlp_engine.pipeline_schedule")
    for attr in ("mlp_forward", "reference_inference"):
        tracer.patch(sim, attr, "recmodel.scoring")
    for module in (sim, kernel_search):
        tracer.patch(module, "generate_workload", "recmodel.generate_workload")
    tracer.patch(kernel_search, "pipeline_schedule", "kernel_search.stage_eval",
                 count=lambda args, result: [("stage_evals", 1)])
    tracer.patch(ev_engine, "simulate_lookup", "ev_engine.simulate_lookup")
    tracer.patch(ev_engine, "build_flash_image", "ev_engine.build_flash_image")
    tracer.patch(ev_engine, "translate_batch", "ev_engine.translate_batch",
                 count=lambda args, result: [("requests", len(result))])
    tracer.patch(ev_engine, "dispatch", "ev_engine.dispatch")
    tracer.patch(ev_engine, "schedule_page_reads", "storage.schedule_page_reads",
                 count=lambda args, result: [("page_reads", len(args[0]))])


def pass_metrics(total: dict, self_s: dict, counts: Counter, event_count: int) -> dict:
    """Per-layer metrics of one traced pass, by their benchmark names."""
    page_reads = counts["page_reads"]
    out = {
        "storage.schedule_page_reads_s": total["storage.schedule_page_reads"],
        "storage.page_reads": page_reads,
        "ev_engine.translate_batch_s": total["ev_engine.translate_batch"],
        "ev_engine.dispatch_s": total["ev_engine.dispatch"],
        "ev_engine.lookup_self_s": self_s["ev_engine.simulate_lookup"],
        "ev_engine.requests": counts["requests"],
        "ev_engine.requests_per_page": counts["requests"] / page_reads if page_reads else 0.0,
        "ev_engine.build_flash_image_s": total["ev_engine.build_flash_image"],
        "mlp_engine.pipeline_schedule_s": total["mlp_engine.pipeline_schedule"],
        "kernel_search.search_s": total["kernel_search.search"],
        "kernel_search.search_self_s": self_s["kernel_search.search"],
        "kernel_search.stage_eval_s": total["kernel_search.stage_eval"],
        "kernel_search.stage_evals": counts["stage_evals"],
        "recmodel.generate_workload_s": total["recmodel.generate_workload"],
        "recmodel.scoring_s": total["recmodel.scoring"],
    }
    for mode in ("rmssd", "emb-vectorsum", "ssd-baseline"):
        out[f"sim.run_s.{mode}"] = total[f"sim.run.{mode}"]
    out["sim.run_self_s"] = sum(v for k, v in self_s.items() if k.startswith("sim.run."))
    out["events.event_count"] = event_count
    return out


def medians(per_pass: list[dict]) -> dict:
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
