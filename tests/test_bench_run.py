"""The benchmark (perfbench/run.py) imports the program and the test oracles
from this checkout when it starts, so a stale import in either makes every
benchmark run exit 2. The first test loads it by path, as `python3
perfbench/run.py` does, and imports the program through it; the second runs
its smoke pass, so that a change that fails one of its checks fails here."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import recssd

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def test_benchmark_imports_the_program(monkeypatch):
    # run.py pins the BLAS thread counts when it loads; import_program adds
    # src/ and tests/ to sys.path. monkeypatch restores both, and the oracles
    # module, which is dropped so that run.py imports it afresh.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "oracles", raising=False)
    loaded = [name for name in ("checks", "tracing", "workloads") if name not in sys.modules]
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        program, pipeline_oracle = run.import_program()
    finally:
        for name in loaded:
            sys.modules.pop(name, None)
    assert program is recssd
    assert pipeline_oracle is sys.modules["oracles"].pipeline_oracle
    assert Path(sys.modules["oracles"].__file__) == ROOT / "tests" / "oracles.py"


def test_benchmark_smoke_pass_checks_every_workload():
    # --smoke runs every workload on 20 queries, one timed pass each, and
    # writes no files
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert sorted(line["workload"] for line in lines) == sorted(names)
    for line in lines:
        assert line["correct"] is True and line["failed"] == 0, line
