"""Pinned digests of modelled outputs: each mode's `metrics.json`, `trace.csv`
and scores, and rmssd's search JSON under `kernels: auto`, on rmc3-mini at
60 queries, batch 3 and seed 5, at two engine clocks: 200 MHz, and 300 MHz
with 20,000 bytes of block RAM, which spills top layer 0 to DRAM.

A change meant to keep every output byte-identical must leave these digests
as they are; a change that moves outputs on purpose updates the digests it
moves and says which."""

import hashlib
import json

import pytest

from recssd.config import build_scenario
from recssd.kernel_search import search
from recssd.sim import MODES, metrics_json, run, spans_to_csv

CLOCKS = {
    "200MHz": {"timing": {"fc_clock_mhz": 200.0}},
    "300MHz-spill": {"timing": {"fc_clock_mhz": 300.0},
                     "resource_model": {"bram_bytes": 20000}},
}

# every mode scores the same model on the same queries
SCORES = "97c20e3d762705b9c9c8a4fde7b2a5a72d94650b72630d6dd86064f94fc30dd2"

PINNED = {
    ("200MHz", "rmssd"): (
        "5c89076e5430f072bc9807ac33de64938e8a5307a99a225c920567b354de7928",
        "49a4bcd32a18850106c348da5522a1810d07c43e9b08e7022b2f9bcfcc12a962", SCORES),
    ("200MHz", "emb-vectorsum"): (
        "16ff6f6e22061fa69c6e6e22ed0fc9f0abefe4c9b3892ca6056c54b7da534ca4",
        "c3ec48eeb4a33bfadcd79be336245a602d0f7d1add8fb802c7f2c03f0dc26ffe", SCORES),
    ("200MHz", "ssd-baseline"): (
        "ba4ac9dc734093bf8a8343a2aea4cb6fa8377228191d456903474220661befbb",
        "58c2bb23406bdefdd56f5a7f4adf1b01ed968a7469a5d140572aa325de155784", SCORES),
    ("300MHz-spill", "rmssd"): (
        "7a1d76da0d4e101313d07351012bb985405deee43f360008f5b415a4137fab2f",
        "5e0b365f7405f4713428c0b793f66aa623c381b7b31453488503cce7b5bdb76a", SCORES),
    ("300MHz-spill", "emb-vectorsum"): (
        "c1662fa55306ede3f6b5ba1a8ac0f1264050e422594f29b22a388b6e5b9452de",
        "552637374d471502979ea93505d76d651689b7a11406e46dad3be37c9d1360df", SCORES),
    ("300MHz-spill", "ssd-baseline"): (
        "ba4ac9dc734093bf8a8343a2aea4cb6fa8377228191d456903474220661befbb",
        "58c2bb23406bdefdd56f5a7f4adf1b01ed968a7469a5d140572aa325de155784", SCORES),
}

PINNED_SEARCH = {
    "200MHz": "b2d253c46f07927e4251de5257d0438fd742f70c5ba664d1851ec726fa4989e9",
    "300MHz-spill": "dfbdfe1aab51895ce021514bcfae74eadbbe5f0f3bf63222da93948c8b710458",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _scenario(clock: str, mode: str):
    return build_scenario({"model": {"preset": "rmc3-mini"},
                           "scenario": {"mode": mode, "query_count": 60, "batch": 3},
                           "kernels": "auto", **CLOCKS[clock]})


@pytest.mark.parametrize("clock, mode", [(c, m) for c in CLOCKS for m in MODES])
def test_run_outputs_are_pinned(clock, mode):
    result = run(_scenario(clock, mode), 5)
    got = (_sha(metrics_json(result.metrics)), _sha(spans_to_csv(result.spans)),
           _sha(json.dumps(result.scores)))
    assert got == PINNED[clock, mode]


@pytest.mark.parametrize("clock", CLOCKS)
def test_search_json_is_pinned(clock):
    s = _scenario(clock, "rmssd")
    outcome = search(s.model, s.resource_model, s.geometry, s.timing, s.workload, 5,
                     s.batch, s.space)
    assert _sha(json.dumps(outcome.to_dict(), indent=2, sort_keys=True)) == PINNED_SEARCH[clock]
