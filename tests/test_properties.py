"""Hypothesis property checks for the central structural invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from recssd.ev_engine import dispatch, translate_batch
from recssd.kernel_search import make_lookup_env
from recssd.recmodel import ModelSpec, Query, TableSpec, build_model, ev_lookup_sum
from recssd.storage import Ftl, SsdGeometry, TimingParams, host_block_read

GEO = SsdGeometry(8, 4, 4096)

_model_cache = {}


def tiny_lookup_env(rows):
    if rows not in _model_cache:
        spec = ModelSpec(tables=(TableSpec(rows, 16),), bottom_mlp_dims=(2, 2),
                         top_mlp_dims=(18, 1), dense_dim=2)
        model = build_model(spec, 0)
        _model_cache[rows] = (model, *make_lookup_env(model, GEO))
    return _model_cache[rows]


@given(st.integers(1, 8), st.integers(1, 4), st.integers(1, 256))
def test_ftl_translate_is_page_bijection(channels, dies, total_pages):
    ftl = Ftl(SsdGeometry(channels, dies, 4096), total_pages)
    locs = {ftl.page_location(p) for p in range(total_pages)}
    assert len(locs) == total_pages


@given(st.lists(st.integers(0, 64 * 16 - 1), min_size=1, max_size=40))
def test_coalescing_never_increases_page_reads(indices):
    model, emap, ftl = tiny_lookup_env(64 * 16)
    reqs = translate_batch(emap, ftl, [Query([indices], np.zeros(2, np.float32))])
    reads = len(dispatch(reqs))
    assert reads <= len(indices)
    assert (reads == len(indices)) == (len({i // 64 for i in indices}) == len(indices))


@given(st.lists(st.integers(0, 31), min_size=1, max_size=12),
       st.lists(st.integers(0, 31), min_size=1, max_size=12))
def test_lookup_sum_concatenation_linearity(a, b):
    model, _, _ = tiny_lookup_env(32)
    table = model.tables[0]
    got = ev_lookup_sum(table, a + b)
    assert np.array_equal(got, ev_lookup_sum(table, list(a) + list(b)))
    permuted = ev_lookup_sum(table, b + a)
    assert np.allclose(got, permuted, rtol=1e-5, atol=1e-6)


@settings(max_examples=50)
@given(st.floats(1.0, 200.0), st.floats(0.01, 2.0), st.floats(0.01, 2.0),
       st.floats(0.1, 50.0), st.integers(1, 6))
def test_host_read_monotone_in_latency_params(read_us, xfer, iface, overhead_us, pages):
    ftl = Ftl(GEO, total_pages=64)
    base = TimingParams(page_read_us=read_us, channel_transfer_ns_per_byte=xfer,
                        host_interface_ns_per_byte=iface,
                        host_block_io_overhead_us=overhead_us)
    t0 = host_block_read(ftl, 0, pages * 4096, base)
    for bump in ({"page_read_us": read_us * 1.5},
                 {"channel_transfer_ns_per_byte": xfer * 1.5},
                 {"host_interface_ns_per_byte": iface * 1.5},
                 {"host_block_io_overhead_us": overhead_us * 1.5}):
        kw = dict(page_read_us=read_us, channel_transfer_ns_per_byte=xfer,
                  host_interface_ns_per_byte=iface, host_block_io_overhead_us=overhead_us)
        kw.update(bump)
        assert host_block_read(ftl, 0, pages * 4096, TimingParams(**kw)) >= t0
