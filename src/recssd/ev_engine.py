"""Embedding lookup engine: index-to-page translation, coalescing dispatch
across flash channels/dies, and the vector-sum unit.

Layout rule: the tables lie back to back from page 0. Rows are packed
floor(page_size / ev_bytes) per page with the page tail padded, and each
table starts on a page of its own, so no vector straddles a page and one
vector costs at most one page read. Page p lies on channel p mod C, die
(p div C) mod D (`storage.page_location`).

Timing vs values: fetch and adder timing follow arrival order out of flash;
the summed values are always accumulated in the query's index order so they
match the reference path bit-for-bit.

A lookup's requests, arrivals and vectors are (queries, tables, pooling)
arrays, every query looking up the workload's pooling of rows in each
table, so the sums and the adder's order work along fixed axes of them.

A lookup is one call chain: `translate_batch` places each request on its
page and slot, `read_timeline` coalesces the requests into (lane, page)
reads, has `storage.schedule_page_reads` place and schedule them and orders
their arrivals at the adder, and `simulate_lookup` finishes the lookup for
one mode. Nothing here computes a channel or a die: the scheduler places
each page. The first two read neither the table values nor the adder's
width, and of the device's times only a sense and a page transfer, so modes
that look up the same requests on the same flash can share them. The read
of the rows, the sums and the adder's finish at its add time are each
mode's own.

The device reads its rows from flash pages (`FlashPages`), addressed by
(page, slot) and mapped back to a table row through the layout's inverse,
not through the translation that computed the page and slot. So a
translation bug reads another row, or a slot that holds none and raises,
and shows as a score mismatch or an error. The pages hold the tables
themselves: a device run copies no table bytes.
"""

from dataclasses import dataclass

import numpy as np

from .recmodel import Workload
from .storage import SsdGeometry, schedule_page_reads


@dataclass(frozen=True)
class TableLayout:
    """Where the tables' rows lie in flash: back to back from page 0, each
    table padded to whole pages, so row r of table t sits in slot
    r % rows_per_page of page first_page[t] + r // rows_per_page, and that
    page on the geometry's channel and die of `storage.page_location`."""
    rows: np.ndarray            # per table: its row count
    first_page: np.ndarray      # per table: its first page
    rows_per_page: int
    ev_bytes: int
    geometry: SsdGeometry

    @property
    def pages(self) -> int:
        return int(self.first_page[-1] + -(-self.rows[-1] // self.rows_per_page))


def table_layout(model_spec, geometry: SsdGeometry) -> TableLayout:
    ev_bytes = model_spec.ev_dim * 4
    if ev_bytes > geometry.page_size:
        raise ValueError(f"ev_bytes {ev_bytes} exceeds page size {geometry.page_size}")
    rows_per_page = geometry.page_size // ev_bytes
    rows = np.array([ts.rows for ts in model_spec.tables], dtype=np.int64)
    pages = -(-rows // rows_per_page)
    return TableLayout(rows, np.cumsum(pages) - pages, rows_per_page, ev_bytes, geometry)


def _locate(layout: TableLayout, table: np.ndarray, index: np.ndarray):
    """Page and row slot within the page of each (table, row), the two arrays
    broadcast against each other."""
    rows = layout.rows
    bad = (table < 0) | (table >= len(rows))
    if bad.any():
        raise ValueError(f"table {table.flat[np.argmax(bad)]} not in the layout")
    bad = (index < 0) | (index >= rows[table])
    if bad.any():
        t, i = (np.broadcast_to(a, bad.shape).flat[np.argmax(bad)] for a in (table, index))
        raise ValueError(f"table {t}: index {i} out of range [0, {rows[t]})")
    return layout.first_page[table] + index // layout.rows_per_page, index % layout.rows_per_page


@dataclass(frozen=True)
class Requests:
    """Embedding lookups as (queries, tables, pooling) arrays, in the shape of
    the workload's index: request [q, t, j] is the row `index[q, t, j]` of
    table t, in slot `slot[q, t, j]` of page `page[q, t, j]`. Request order is
    the arrays' order: query, then table, then the query's index list."""
    page: np.ndarray        # global physical page
    slot: np.ndarray        # row slot within the page

    def __len__(self) -> int:
        return self.page.size


def translate_batch(layout: TableLayout, queries: Workload) -> Requests:
    index = queries.index
    if len(queries) and index.shape[1] != len(layout.rows):
        raise ValueError(f"query has {index.shape[1]} index lists, "
                         f"the layout has {len(layout.rows)} tables")
    return Requests(*_locate(layout, np.arange(index.shape[1])[:, None], index))


@dataclass(frozen=True)
class CoalescedReads:
    """One read per distinct (lane, page), in the order of each one's first
    request."""
    lane: np.ndarray
    page: np.ndarray
    read: np.ndarray        # per request, in its shape: the position of its page's read

    def __len__(self) -> int:
        return len(self.page)


def dispatch(requests: Requests, lane: np.ndarray) -> CoalescedReads:
    """Coalesce requests into unique page reads per lane, `lane` giving each
    query's, in first-arrival order."""
    page = requests.page
    key = (lane[:, None, None] * (int(page.max(initial=0)) + 1) + page).ravel()
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    first = first[order]
    query = np.unravel_index(first, page.shape)[0]
    return CoalescedReads(lane[query], page.ravel()[first], rank[inverse].reshape(page.shape))


@dataclass(frozen=True)
class FlashPages:
    """The device's flash pages, read through the layout's inverse: slot s of
    page p in table t's page range holds row (p - first_page[t]) *
    rows_per_page + s of table t. It holds the tables themselves and copies
    none of their values, so a page the layout computes wrongly reads another
    row, or none."""
    tables: tuple
    layout: TableLayout

    def read(self, requests: Requests) -> np.ndarray:
        """The rows that `requests` name by (page, slot), request [q, t, j]
        reading table t, as a (queries, tables, pooling, ev_dim) array. A slot
        at or past `rows_per_page`, or a page and slot outside the table's
        rows, raises `ValueError`."""
        layout, page, slot = self.layout, requests.page, requests.slot
        table = np.arange(page.shape[1])[:, None]
        row = (page - layout.first_page[table]) * layout.rows_per_page + slot
        # checked before the gather, which would wrap a negative row
        bad = (slot < 0) | (slot >= layout.rows_per_page) | (row < 0) | \
            (row >= layout.rows[table])
        if bad.any():
            q, t, j = np.unravel_index(np.argmax(bad), bad.shape)
            raise ValueError(f"table {t}: page {page[q, t, j]} slot {slot[q, t, j]} holds "
                             f"none of its {layout.rows[t]} rows")
        return gather_rows(self.tables, row)


def build_flash_image(tables, layout: TableLayout) -> FlashPages:
    """The flash pages holding `tables` as `layout` lays them out."""
    if [t.values.shape[0] for t in tables] != layout.rows.tolist():
        raise ValueError("the tables' row counts are not the layout's")
    return FlashPages(tuple(tables), layout)


@dataclass(frozen=True)
class AdderOrder:
    """A lookup's fetched vectors in the order each query's serial adder takes
    them: all of the adder's schedule but its time per add.

    The adder takes a query's vectors in arrival order. The first vector of a
    table is a free load; every later one is an add that occupies the adder
    for one add time, starting no earlier than its arrival. So a query with K
    adds at arrivals r_1 <= ... <= r_K finishes them at
    max_j r_j + (K - j + 1) * t_add, and completes when that and its last free
    load are done."""
    load_done_ns: np.ndarray    # per query: the arrival of its last free load
    add_ready_ns: np.ndarray    # (queries, K): each query's add arrivals, ascending

    def done_ns(self, t_add: int) -> np.ndarray:
        """Per-query completion of the adder at `t_add` ns per add."""
        adds = self.add_ready_ns.shape[1]
        ends = self.add_ready_ns + np.arange(adds, 0, -1) * t_add
        return np.column_stack((self.load_done_ns, ends)).max(axis=1)


def adder_order(arrival_ns: np.ndarray) -> AdderOrder:
    """The adder's order of the vectors arriving at `arrival_ns`, a (queries,
    tables, pooling) array in request order."""
    queries, tables, pooling = arrival_ns.shape
    by_table = np.sort(arrival_ns, axis=2)
    adds = np.sort(by_table[:, :, 1:].reshape(queries, tables * (pooling - 1)), axis=1)
    return AdderOrder(by_table[:, :, 0].max(axis=1), adds)


def lookup_sums(vectors: np.ndarray) -> np.ndarray:
    """Each query's per-table sums of its (queries, tables, pooling, ev_dim)
    float32 vectors in table order, each folded left to right in index order:
    a copy of every first vector, then one in-place float32 add per pooling
    step, never writing `vectors`."""
    queries, tables, pooling, ev_dim = vectors.shape
    sums = vectors[:, :, 0].astype(np.float32)
    for j in range(1, pooling):
        sums += vectors[:, :, j]
    return sums.reshape(queries, tables * ev_dim)


@dataclass(frozen=True)
class ReadTimeline:
    """What the modes read of a lookup's page reads. It depends on the
    requests, the batch, the geometry and the sense and page-transfer times
    alone, not on the table values or the adder's width, so modes that look up
    the same requests on the same device share it."""
    first_sense_ns: np.ndarray           # per query: its first sense start
    channel_busy_ns: np.ndarray          # (batches, channels)
    adder: AdderOrder


def read_timeline(requests: Requests, batch: int, geometry: SsdGeometry, sense: int,
                  xfer: int) -> ReadTimeline:
    """Coalesce and schedule the page reads of `requests`, one batch of
    `batch` queries per lane, a sense taking `sense` ns and a page transfer
    `xfer` ns, and keep only the columns the modes read: each query's first
    sense start, the channels' busy times and the adder's order of the
    requests' arrivals (each its page's transfer end)."""
    reads = dispatch(requests, np.arange(len(requests.page)) // batch)
    sched = schedule_page_reads(reads.lane, reads.page, geometry, sense, xfer)
    # every query has a request, so every lane has a read and a row of busy times
    return ReadTimeline(sched.sense_start_ns[reads.read].min(axis=(1, 2)),
                        sched.channel_busy_ns, adder_order(sched.xfer_end_ns[reads.read]))


@dataclass
class LookupResult:
    ev_concat: np.ndarray                # (queries, M * ev_dim)
    e_ns: np.ndarray                     # per query EV-sum completion


def gather_rows(tables, index: np.ndarray) -> np.ndarray:
    """Row `index[q, t, j]` of table t for every request of a (queries,
    tables, pooling) index array, as a (queries, tables, pooling, ev_dim)
    array: the one gather of the host's reads and the device's, which
    `FlashPages.read` reaches through the layout's inverse."""
    vectors = np.empty(index.shape + tables[0].values.shape[1:], dtype=np.float32)
    for t, tab in enumerate(tables):
        vectors[:, t] = np.take(tab.values, index[:, t], axis=0)
    return vectors


def simulate_lookup(flash: FlashPages, requests: Requests, timeline: ReadTimeline,
                    t_add: int) -> LookupResult:
    """Finish a lookup of `requests`, given their `read_timeline`: read the
    vectors from the flash pages, sum them, and finish the adder's order at
    `t_add` ns per add. Each query's end is relative to its batch's start,
    as the timeline's times are."""
    # one vector-sum unit per query, so queries do not serialize on one adder
    ev_concat = lookup_sums(flash.read(requests))
    return LookupResult(ev_concat, timeline.adder.done_ns(t_add))
