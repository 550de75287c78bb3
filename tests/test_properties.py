"""Hypothesis property checks for the central structural invariants, a fuzz
of configuration documents, and metamorphic relations of the simulator."""

import os
import tempfile

import numpy as np
import yaml
from hypothesis import example, given, settings, strategies as st

from recssd.cli import main
from recssd.config import default_config_text
from recssd.ev_engine import dispatch, table_layout, translate_batch
from recssd.mlp_engine import KernelAssignment
from recssd.recmodel import (ModelSpec, Query, TableSpec, Workload, WorkloadConfig, build_model,
                             desk_model_spec, ev_lookup_sum)
from recssd.sim import MODES
from recssd.storage import SsdGeometry, TimingParams, page_location

from oracles import host_block_read

GEO = SsdGeometry(8, 4, 4096)

_model_cache = {}


def tiny_lookup_env(rows):
    if rows not in _model_cache:
        spec = ModelSpec(tables=(TableSpec(rows, 16),), bottom_mlp_dims=(2, 2),
                         top_mlp_dims=(18, 1), dense_dim=2)
        model = build_model(spec, 0)
        _model_cache[rows] = model, table_layout(spec, GEO)
    return _model_cache[rows]


@given(st.integers(1, 8), st.integers(1, 4), st.integers(1, 256))
def test_ftl_translate_is_page_bijection(channels, dies, total_pages):
    geo = SsdGeometry(channels, dies, 4096)
    locs = {page_location(geo, p) for p in range(total_pages)}
    assert len(locs) == total_pages


@given(st.lists(st.integers(0, 64 * 16 - 1), min_size=1, max_size=40))
def test_coalescing_never_increases_page_reads(indices):
    _, layout = tiny_lookup_env(64 * 16)
    reqs = translate_batch(layout,
                           Workload.from_queries([Query([indices], np.zeros(2, np.float32))]))
    reads = len(dispatch(reqs, np.zeros(1, np.int64)))
    assert reads <= len(indices)
    assert (reads == len(indices)) == (len({i // 64 for i in indices}) == len(indices))


@given(st.lists(st.integers(0, 31), min_size=1, max_size=12),
       st.lists(st.integers(0, 31), min_size=1, max_size=12))
def test_lookup_sum_concatenation_linearity(a, b):
    model, _ = tiny_lookup_env(32)
    table = model.tables[0]
    got = ev_lookup_sum(table, a + b)
    assert np.array_equal(got, ev_lookup_sum(table, list(a) + list(b)))
    permuted = ev_lookup_sum(table, b + a)
    assert np.allclose(got, permuted, rtol=1e-5, atol=1e-6)


@settings(max_examples=50)
@given(st.floats(1.0, 200.0), st.floats(0.01, 2.0), st.floats(0.01, 2.0),
       st.floats(0.1, 50.0), st.integers(1, 6))
def test_host_read_monotone_in_latency_params(read_us, xfer, iface, overhead_us, pages):
    base = TimingParams(page_read_us=read_us, channel_transfer_ns_per_byte=xfer,
                        host_interface_ns_per_byte=iface,
                        host_block_io_overhead_us=overhead_us)
    t0 = host_block_read(GEO, 64, 0, pages * 4096, base)
    for bump in ({"page_read_us": read_us * 1.5},
                 {"channel_transfer_ns_per_byte": xfer * 1.5},
                 {"host_interface_ns_per_byte": iface * 1.5},
                 {"host_block_io_overhead_us": overhead_us * 1.5}):
        kw = dict(page_read_us=read_us, channel_transfer_ns_per_byte=xfer,
                  host_interface_ns_per_byte=iface, host_block_io_overhead_us=overhead_us)
        kw.update(bump)
        assert host_block_read(GEO, 64, 0, pages * 4096, TimingParams(**kw)) >= t0


# Fields that size allocations, and the value the fuzz gives them in place of
# 1e300: table bytes, flash image, batch and query count stay small.
SIZE_CAPS = {"channels": 8, "dies_per_channel": 4, "page_size": 8192, "table_rows": 256,
             "ev_dim": 2048, "dense_dim": 64, "bottom_mlp_dims": 64, "top_mlp_dims": 64,
             "query_count": 8, "pooling": 8, "batch": 8, "max_batch": 16}


def extremes(key, default):
    """A wrong-type value, 0, -1, 1e-300 or 1e300 (the cap, for a size field)."""
    wrong = 1 if isinstance(default, str) else "x"
    return [wrong, 0, -1, 1e-300, SIZE_CAPS.get(key, 1e300)]


def list_value(key):
    entry = st.sampled_from(extremes(key, 0) + [1, 2, 16])
    if key == "kernels":
        pairs = st.lists(st.lists(entry, min_size=2, max_size=2), max_size=3)
        return st.fixed_dictionaries({"bottom": pairs, "top": pairs,
                                      "ev": st.lists(entry, max_size=3)})
    return st.lists(entry, max_size=3)


def document(**sections):
    """The default document with 8 queries, its optional fields set to null,
    and the given sections updated (or replaced, for `kernels`)."""
    doc = yaml.safe_load(default_config_text())
    doc["scenario"].update(query_count=8, duration_us=None)
    doc["search_space"]["max_kernel"] = None
    for section, values in sections.items():
        if isinstance(doc[section], dict):
            doc[section].update(values)
        else:
            doc[section] = values
    return doc


@st.composite
def base_document(draw):
    """The default document in any mode, with a preset or a small consistent
    custom model. An ev_dim above 1024 gives vectors larger than the default
    4 KiB page."""
    doc = document(scenario={"mode": draw(st.sampled_from(MODES))})
    if draw(st.booleans()):
        tables = draw(st.integers(1, 3))
        ev_dim = draw(st.integers(1, 2048))
        doc["model"].update(preset="custom", dense_dim=13, bottom_mlp_dims=[13, 16],
                            top_mlp_dims=[16 + tables * ev_dim, 8, 1], ev_dim=ev_dim,
                            table_rows=[draw(st.integers(1, 256)) for _ in range(tables)])
    return doc


@st.composite
def fuzzed_document(draw):
    doc = draw(base_document())
    for _ in range(draw(st.integers(1, 3))):
        section = draw(st.sampled_from(sorted(doc)))
        if isinstance(doc[section], dict):
            parent, key = doc[section], draw(st.sampled_from(sorted(doc[section])))
        else:
            parent, key = doc, section
        default = parent[key]
        if key == "kernels" or isinstance(default, list):
            value = draw(st.one_of(st.just(extremes(key, default)[0]), list_value(key)))
        else:
            value = draw(st.sampled_from(extremes(key, default)))
        parent[key] = value
    return doc


@settings(max_examples=200, deadline=None, derandomize=True)
@given(fuzzed_document())
@example(document(kernels={"bottom": [[8, 64], [16, 16]], "top": [[128, 64], [64, 1]],
                           "ev": [1]}))
@example(document(search_space={"max_kernel": 0}))
@example(document(geometry={"page_size": 32}))
@example(document(timing={"page_read_us": 1e300}))
@example(document(timing={"fc_clock_mhz": 1e300}))
@example(document(resource_model={"dram_bandwidth_gbps": 1e-300, "bram_bytes": 1000},
                  kernels={"bottom": [[8, 64], [16, 16]], "top": [[128, 64], [64, 1]],
                           "ev": [1, 16]}))
def test_config_fuzz_never_exits_internal_error(doc):
    """`validate` and `run` exit 0, 2 or 3 on documents with 1-3 fields set to
    a wrong type, 0, -1, 1e-300 or 1e300, and list fields (kernels included)
    given 0-3 entries. The fields that size allocations are capped
    (`SIZE_CAPS`), so every example fits in memory and runs in milliseconds:
    the fuzz targets type, range and shape errors, not resource exhaustion.
    Timing magnitudes are not capped. The explicit examples are one document
    of each of six kinds that drawn documents reach only rarely: a kernels
    block with a short `ev`, `max_kernel: 0`, a vector larger than a page,
    a 1e300 us page sense, a 1e300 MHz engine clock, and explicit kernels
    with a spilled layer fetched at 1e-300 GB/s."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.yaml")
        with open(path, "w") as f:
            yaml.safe_dump(doc, f)
        assert main(["validate", path]) in (0, 2, 3)
        assert main(["run", path, "--out", tmp, "--quiet"]) in (0, 2, 3)


# ---------------------------------------------------------------------------
# Metamorphic relations of the simulator.

def test_run_of_a_prefix_is_the_prefix_of_a_longer_run(monkeypatch):
    """A workload of n queries is the first n of a longer draw with the same
    seed, and a batch depends only on the batches before it, so a run of
    n*batch queries equals the first n*batch queries of a longer run: scores,
    latencies and every span column. Chunks of 5 queries (whole batches) make
    both runs cross several chunk boundaries."""
    from recssd import sim
    monkeypatch.setattr(sim, "CHUNK_QUERIES", 5)
    for name in ("rmc3-mini", "ncf-mini"):
        model = build_model(desk_model_spec(name), 3)
        for distribution in ("uniform", "zipf"):
            for batch in (1, 3):
                for mode, kernels in ((sim.MODE_SSD_BASELINE, None),
                                      (sim.MODE_EMB_VECTORSUM, None),
                                      (sim.MODE_RMSSD, KernelAssignment.all_max(model.spec)),
                                      (sim.MODE_RMSSD, None)):
                    runs = [sim.run(sim.Scenario(mode=mode, model=model, geometry=GEO,
                                                 timing=TimingParams(),
                                                 workload=WorkloadConfig(distribution, 4),
                                                 query_count=count, batch=batch,
                                                 kernels=kernels), 11)
                            for count in (4 * batch, 7 * batch + 2)]
                    short, long = runs
                    case = (name, distribution, batch, mode, kernels)
                    n = 4 * batch
                    assert len(short.scores) == n and len(long.scores) > n, case
                    assert short.scores == long.scores[:n], case
                    assert short.latencies_ns == long.latencies_ns[:n], case
                    assert [s for s, _, _ in short.spans] == [s for s, _, _ in long.spans], case
                    for (stage, s0, e0), (_, s1, e1) in zip(short.spans, long.spans):
                        assert s0.tolist() == s1[:n].tolist(), (case, stage)
                        assert e0.tolist() == e1[:n].tolist(), (case, stage)


def test_slower_flash_never_shortens_a_query():
    """With fixed kernels, a longer page sense or page transfer never shortens
    a query's latency or its emb span's end (both from its dispatch), nor the
    run's horizon, in rmssd and in the baseline: every batch starts on an
    idle device, and each later time is a max-plus function of the sense and
    transfer times. Three workload shapes: about one page read per lookup
    (uniform, batch 2 and 5), and shared pages (zipf, batch 16). Not covered:
    the kernel search (its budget picks the kernels), the engine clock and
    emb-vectorsum's end-to-end latency, which are not monotone."""
    from recssd import sim
    model = build_model(desk_model_spec("rmc3-mini"), 3)
    axes = ([{"page_read_us": us} for us in (20.0, 50.0, 80.0)],
            [{"channel_transfer_ns_per_byte": b} for b in (0.1, 0.4, 1.3)])
    for distribution, batch in (("uniform", 2), ("zipf", 16), ("uniform", 5)):
        for mode, kernels in ((sim.MODE_RMSSD, KernelAssignment.all_max(model.spec)),
                              (sim.MODE_SSD_BASELINE, None)):
            session = None
            for axis in axes:
                before = None
                for step in axis:
                    s = sim.Scenario(mode=mode, model=model, geometry=GEO,
                                     timing=TimingParams(**step),
                                     workload=WorkloadConfig(distribution, 8), query_count=120,
                                     batch=batch, kernels=kernels)
                    session = session or sim.Session.draw(s, 7)
                    r = sim.run(s, 7, session)
                    latency = np.array(r.latencies_ns)
                    dispatch = r.spans[-1][2] - latency     # the last span ends when done
                    now = (latency, r.spans[0][2] - dispatch, r.metrics.horizon_ns)
                    assert len(latency) == 120 and r.spans[0][0] == "emb"
                    if before is not None:
                        assert all(np.all(a >= b) for a, b in zip(now, before)), \
                            (distribution, batch, mode, step)
                    before = now
