"""Host-time benchmark of the recssd simulator.

    python3 perfbench/run.py --workload lookup-uniform --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --smoke

A run makes one untimed warm-up pass whose `metrics.json` hashes are the
determinism reference, then repeats rounds for `--seconds` seconds. A round
builds the workload's scenarios from their config documents (set-up, timed
build by build, repeated for at least 50 ms), collects garbage so every pass
starts from the same heap, makes one timed pass of the simulator calls on the
fresh scenarios, and then, outside the timed regions, checks the outputs
(see checks.py). Set-up is sampled across the whole run, as the passes are,
so that both see the same host. The last line of standard output is one
JSON object: `correct`, `attempted` and `failed` count checks, and `metrics`
holds the end-to-end metrics (`--trace 0`) or the per-layer metrics of a
traced run (`--trace 1`), each a median over the run's passes.

The modelled outputs and hashes of every scenario go to
`perfbench/out/<workload>-seed<seed>.json`. `--smoke` runs every workload
with 20 queries and one timed pass, to exercise every check in seconds.

The program is imported from `src/` beside this directory, never from an
installed copy; without it the benchmark exits with code 2.
"""

import os

# One thread of simulation: the checks' matrix products would otherwise start
# BLAS worker threads that keep spinning on the other core into the next pass.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from checks import expected_check_count, metrics_sha256, scenario_checks
from tracing import Tracer, install, medians, pass_metrics
from workloads import WORKLOADS, build, simulate

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SETUP_ROUND_S = 0.05
MIN_PASSES = 3
SMOKE_QUERIES = 20


def import_program():
    """The recssd package and the pipeline oracle from this checkout."""
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "recssd" / "__init__.py").is_file() or not (tests / "oracles.py").is_file():
        raise FileNotFoundError(f"recssd sources not found under {ROOT}")
    sys.path[:0] = [str(src), str(tests)]
    import recssd.config
    import recssd.ev_engine
    import recssd.kernel_search
    import recssd.recmodel
    import recssd.sim
    from oracles import pipeline_oracle
    return recssd, pipeline_oracle


def modelled_outputs(sim, results) -> list[dict]:
    out = []
    for r in results:
        m = r.metrics
        out.append({"mode": m.mode, "metrics_sha256": metrics_sha256(sim, r),
                    "throughput_qps": m.throughput_qps,
                    "latency_ns": {"p50": m.latency_p50_ns, "p95": m.latency_p95_ns,
                                   "p99": m.latency_p99_ns},
                    "channel_utilization": m.channel_utilization,
                    "event_count": m.event_count,
                    "search": None if r.search_outcome is None else r.search_outcome.to_dict()})
    return out


def run_workload(recssd, pipeline_oracle, workload, seed: int, seconds: float, trace: bool,
                 query_count=None, setup_round_s=SETUP_ROUND_S, min_passes=MIN_PASSES) -> dict:
    config, sim = recssd.config, recssd.sim
    docs = workload.documents(seed, query_count)
    tracer = Tracer() if trace else None
    if tracer:
        install(tracer, recssd)
    try:
        setup_s, build_s = [], []

        def set_up():
            """Build the scenarios until set-up has taken `setup_round_s`, at
            least once; return the last build. The caller drops its scenarios
            first, so only one build is alive at a time and peak memory stays
            that of one user run."""
            round_start = time.perf_counter()
            while True:
                built = None
                t0 = time.perf_counter()
                built = build(config, docs)
                setup_s.append(time.perf_counter() - t0)
                if tracer:
                    build_s.append(tracer.take()[0]["config.build_scenario"])
                if time.perf_counter() - round_start >= setup_round_s:
                    return built

        scenarios = set_up()
        wl = scenarios[0].workload
        queries = recssd.recmodel.generate_workload(
            scenarios[0].model.spec, wl.distribution, wl.pooling, scenarios[0].query_count,
            workload.sim_seed(seed), wl.zipf_s)

        reference, outputs = [None] * len(scenarios), None
        try:
            warm = simulate(sim, workload, scenarios, seed)
            reference = [metrics_sha256(sim, r) for r in warm]
            outputs = modelled_outputs(sim, warm)
        except Exception:
            traceback.print_exc()
        if tracer:
            tracer.take()

        n_checks = expected_check_count(scenarios)
        host_s, layers, failures = [], [], set()
        attempted = failed = rounds = 0
        start = time.perf_counter()
        while rounds < min_passes or time.perf_counter() - start < seconds:
            rounds += 1
            attempted += n_checks
            scenarios = None
            scenarios = set_up()
            gc.collect()
            t0 = time.perf_counter()
            try:
                results = simulate(sim, workload, scenarios, seed)
            except Exception:
                if not failures:
                    traceback.print_exc()
                failures.add("simulator call raised")
                failed += n_checks
                if tracer:
                    tracer.take()
                continue
            elapsed = time.perf_counter() - t0
            checks = []
            for s, r, ref in zip(scenarios, results, reference):
                checks.extend((f"{s.mode}:{name}", ok) for name, ok in
                              scenario_checks(s, r, queries, ref, sim, pipeline_oracle))
            bad = [name for name, ok in checks if not ok]
            failures.update(bad)
            failed += len(bad)
            host_s.append(elapsed)
            if tracer:
                layers.append(pass_metrics(*tracer.take(),
                                           sum(r.metrics.event_count for r in results)))
    finally:
        if tracer:
            tracer.restore()

    if failures:
        print(f"{workload.name}: failed checks: {sorted(failures)}", file=sys.stderr)
    if trace:
        metrics = medians(layers) if layers else {}
        metrics["config.build_scenario_s"] = statistics.median(build_s)
    else:
        metrics = {"setup_s": statistics.median(setup_s),
                   "host_s": statistics.median(host_s) if host_s else 0.0,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    return {"workload": workload.name, "seed": seed, "trace": trace,
            "correct": failed == 0 and bool(host_s), "attempted": attempted,
            "failed": failed, "host_s": host_s, "setup_s": setup_s, "metrics": metrics,
            "scenarios": outputs}


def write_record(record: dict) -> None:
    OUT.mkdir(exist_ok=True)
    suffix = "-trace" if record["trace"] else ""
    path = OUT / f"{record['workload']}-seed{record['seed']}{suffix}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run every workload's checks on 20 queries, one timed pass each")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required unless --smoke is given")
    try:
        recssd, pipeline_oracle = import_program()
    except (FileNotFoundError, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    if args.smoke:
        ok = True
        for workload in WORKLOADS.values():
            rec = run_workload(recssd, pipeline_oracle, workload, args.seed, 0, bool(args.trace),
                               query_count=SMOKE_QUERIES, setup_round_s=0, min_passes=1)
            ok = ok and rec["correct"]
            print(json.dumps({k: rec[k] for k in ("workload", "correct", "attempted", "failed",
                                                   "metrics")}))
        return 0 if ok else 1

    rec = run_workload(recssd, pipeline_oracle, WORKLOADS[args.workload], args.seed,
                       args.seconds, bool(args.trace))
    write_record(rec)
    if args.trace:
        traced = statistics.median(rec["host_s"]) if rec["host_s"] else 0.0
        print(f"traced host_s median: {traced:.6f} s", file=sys.stderr)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in rec["metrics"].items()}
    print(json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    return 0


def load_spec() -> dict:
    """BENCHMARK.json: the run length and every metric's unit."""
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


if __name__ == "__main__":
    sys.exit(main())
