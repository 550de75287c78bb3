"""Embedding lookup engine: index-to-LBA translation, coalescing dispatch
across flash channels/dies, and the vector-sum unit.

Layout rule: rows are packed floor(page_size / ev_bytes) per page with the
page tail padded, so no vector straddles a page and one vector costs at most
one page read. File extents must be whole pages for the same reason.

Timing vs values: fetch and adder timing follow arrival order out of flash;
the summed values are always accumulated in the query's index order so they
match the reference path bit-for-bit.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .recmodel import Model, Query
from .storage import (EV_PRIORITY, Ftl, PageReads, PageSchedule,
                      SsdGeometry, TimingParams, schedule_page_reads)


@dataclass(frozen=True)
class FileExtent:
    """A page-aligned run of LBAs backing part of one table's file."""
    start_lba: int
    lba_count: int


@dataclass(frozen=True)
class Extent:
    index_start: int
    index_count: int
    start_lba: int


@dataclass
class ExtentMap:
    table_extents: list[list[Extent]]
    rows: list[int]
    ev_dim: int
    rows_per_page: int
    page_size: int
    lbas_per_page: int

    @property
    def ev_bytes(self) -> int:
        return self.ev_dim * 4

    @cached_property
    def extent_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each table's first row in one numbering of all tables' rows, and
        each extent's first row in that numbering and its start LBA, in
        ascending row order."""
        row_base = np.cumsum([0] + self.rows[:-1]).astype(np.int64)
        ext_row = [row_base[t] + e.index_start
                   for t, extents in enumerate(self.table_extents) for e in extents]
        ext_lba = [e.start_lba for extents in self.table_extents for e in extents]
        return row_base, np.array(ext_row, dtype=np.int64), np.array(ext_lba, dtype=np.int64)

    def max_lba_end(self) -> int:
        end = 0
        for extents in self.table_extents:
            for e in extents:
                pages = -(-e.index_count // self.rows_per_page)
                end = max(end, e.start_lba + pages * self.lbas_per_page)
        return end


def _table_extents(rows: int, ev_dim: int, file_extents: list[FileExtent],
                   geometry: SsdGeometry) -> list[Extent]:
    ev_bytes = ev_dim * 4
    if ev_bytes > geometry.page_size:
        raise ValueError(f"ev_bytes {ev_bytes} exceeds page size {geometry.page_size}")
    rows_per_page = geometry.page_size // ev_bytes
    needed_pages = -(-rows // rows_per_page)
    out = []
    cursor = 0
    for fe in file_extents:
        if cursor >= rows:
            break
        start_bytes = fe.start_lba * geometry.lba_size
        len_bytes = fe.lba_count * geometry.lba_size
        if start_bytes % geometry.page_size or len_bytes % geometry.page_size:
            raise ValueError(f"file extent {fe} is not page-aligned")
        extent_pages = len_bytes // geometry.page_size
        count = min(extent_pages * rows_per_page, rows - cursor)
        if count > 0:
            out.append(Extent(cursor, count, fe.start_lba))
            cursor += count
    if cursor < rows:
        have = sum(fe.lba_count * geometry.lba_size // geometry.page_size for fe in file_extents)
        raise ValueError(
            f"file extents cover {have} pages, table needs {needed_pages}"
        )
    return out


def build_extent_map(model_spec, per_table_file_extents: list[list[FileExtent]],
                     geometry: SsdGeometry) -> ExtentMap:
    if len(per_table_file_extents) != model_spec.num_tables:
        raise ValueError("one file-extent list per table required")
    ev_dim = model_spec.ev_dim
    table_extents = [
        _table_extents(ts.rows, ev_dim, fes, geometry)
        for ts, fes in zip(model_spec.tables, per_table_file_extents)
    ]
    return ExtentMap(
        table_extents=table_extents,
        rows=[ts.rows for ts in model_spec.tables],
        ev_dim=ev_dim,
        rows_per_page=geometry.page_size // (ev_dim * 4),
        page_size=geometry.page_size,
        lbas_per_page=geometry.lbas_per_page,
    )


def default_extent_layout(model_spec, geometry: SsdGeometry,
                          start_page: int = 0) -> list[list[FileExtent]]:
    """Contiguous page-aligned allocation, tables back to back."""
    ev_bytes = model_spec.ev_dim * 4
    rows_per_page = geometry.page_size // ev_bytes
    layouts = []
    page = start_page
    for ts in model_spec.tables:
        pages = -(-ts.rows // rows_per_page)
        layouts.append([FileExtent(page * geometry.lbas_per_page, pages * geometry.lbas_per_page)])
        page += pages
    return layouts


def _locate(emap: ExtentMap, table: np.ndarray, index: np.ndarray):
    """Page-start LBA and byte offset within the page of each (table, row)."""
    rows = np.asarray(emap.rows, dtype=np.int64)
    bad = (table < 0) | (table >= len(rows))
    if bad.any():
        raise ValueError(f"table {table[np.argmax(bad)]} not in extent map")
    bad = (index < 0) | (index >= rows[table])
    if bad.any():
        k = np.argmax(bad)
        raise ValueError(f"table {table[k]}: index {index[k]} out of range [0, {rows[table[k]]})")
    row_base, ext_row, ext_lba = emap.extent_columns
    row = row_base[table] + index
    ext = np.searchsorted(ext_row, row, side="right") - 1
    rel = row - ext_row[ext]
    lba = ext_lba[ext] + rel // emap.rows_per_page * emap.lbas_per_page
    return lba, rel % emap.rows_per_page * emap.ev_bytes


@dataclass(frozen=True)
class Requests:
    """A batch's embedding lookups as columns, in query order, then table
    order, then the order of each query's index list."""
    pooling: np.ndarray     # (queries, tables): lookups per query and table
    query: np.ndarray
    table: np.ndarray
    index: np.ndarray
    lba: np.ndarray
    offset: np.ndarray      # byte offset within the page
    page: np.ndarray        # global physical page
    channel: np.ndarray
    die: np.ndarray

    def __len__(self) -> int:
        return len(self.index)


def translate_batch(emap: ExtentMap, ftl: Ftl, queries: list[Query]) -> Requests:
    tables = len(emap.rows)
    for q in queries:
        if len(q.indices) != tables:
            raise ValueError(f"query has {len(q.indices)} index lists, extent map has {tables}")
    pooling = np.array([[len(idx) for idx in q.indices] for q in queries],
                       dtype=np.int64).reshape(len(queries), tables)
    index = np.fromiter(chain.from_iterable(idx for q in queries for idx in q.indices),
                        dtype=np.int64, count=int(pooling.sum()))
    table = np.repeat(np.tile(np.arange(tables), len(queries)), pooling.ravel())
    query = np.repeat(np.arange(len(queries)), pooling.sum(axis=1))
    lba, offset = _locate(emap, table, index)
    page = lba // emap.lbas_per_page
    channel, die, _ = ftl.page_location(page)
    return Requests(pooling, query, table, index, lba, offset, page, channel, die)


@dataclass(frozen=True)
class CoalescedReads:
    """One read per distinct page, in the order of each page's first request."""
    page: np.ndarray
    channel: np.ndarray
    die: np.ndarray
    read: np.ndarray        # per request: the position of its page's read

    def __len__(self) -> int:
        return len(self.page)


def dispatch(requests: Requests) -> CoalescedReads:
    """Coalesce requests into unique page reads, in first-arrival order."""
    pages, first, inverse = np.unique(requests.page, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    first = first[order]
    return CoalescedReads(pages[order], requests.channel[first], requests.die[first],
                          rank[inverse.ravel()])


class FlashImage:
    """Byte image of the provisioned LBA space holding the padded table files.
    `rows[page, slot]` views the vector in row slot `slot` of a global page."""

    def __init__(self, buf: bytearray, page_size: int, ev_dim: int):
        self.buf = buf
        ev_bytes = ev_dim * 4
        slots = page_size // ev_bytes * ev_bytes
        pages = np.frombuffer(buf, dtype=np.uint8).reshape(-1, page_size)
        self.rows = pages[:, :slots].reshape(len(pages), -1, ev_bytes).view("<f4")


def build_flash_image(tables, emap: ExtentMap, geometry: SsdGeometry) -> FlashImage:
    buf = bytearray(emap.max_lba_end() * geometry.lba_size)
    rpp = emap.rows_per_page
    for t, extents in enumerate(emap.table_extents):
        values = tables[t].values
        pages = -(-emap.rows[t] // rpp)
        padded = np.zeros((pages * rpp, emap.ev_dim), dtype="<f4")
        padded[: emap.rows[t]] = values
        for e in extents:
            epages = -(-e.index_count // rpp)
            first_page = e.index_start // rpp
            chunk = padded[first_page * rpp: (first_page + epages) * rpp]
            start = e.start_lba * geometry.lba_size
            raw = chunk.tobytes()
            # pad the page tail beyond rows_per_page * ev_bytes, if any
            page_rows_bytes = rpp * emap.ev_bytes
            if page_rows_bytes == geometry.page_size:
                buf[start: start + len(raw)] = raw
            else:
                for p in range(epages):
                    s = p * page_rows_bytes
                    buf[start + p * geometry.page_size:
                        start + p * geometry.page_size + page_rows_bytes] = raw[s: s + page_rows_bytes]
    return FlashImage(buf, geometry.page_size, emap.ev_dim)


def adder_done_ns(pooling: np.ndarray, arrival_ns: np.ndarray, ev_dim: int,
                  timing: TimingParams, kc_e: int | None = None) -> np.ndarray:
    """Per-query completion of the query's serial adder.

    `arrival_ns` holds each fetched vector's arrival, in request order, and
    `pooling[q, t]` counts query q's vectors of table t. The adder takes a
    query's vectors in (arrival, request order) order. The first vector of a
    table is a free load; every later one occupies the adder for
    ceil(ev_dim / kc_e) clock cycles, starting no earlier than its arrival. So
    a query with K adds at arrivals r_1 <= ... <= r_K finishes them at
    max_j r_j + (K - j + 1) * t_add, and completes when that and its last
    free load are done.
    """
    if kc_e is None:
        kc_e = ev_dim
    t_add = timing.cycles_to_ns(-(-ev_dim // kc_e))
    queries, tables = pooling.shape
    query = np.repeat(np.arange(queries), pooling.sum(axis=1))
    group = np.repeat(np.arange(queries * tables), pooling.ravel())
    order = np.lexsort((arrival_ns, query))
    ready, group, query = arrival_ns[order], group[order], query[order]
    load = np.zeros(len(order), dtype=bool)
    load[np.unique(group, return_index=True)[1]] = True
    done = np.zeros(queries, dtype=np.int64)
    np.maximum.at(done, query[load], ready[load])
    add_query = query[~load]
    adds = np.bincount(add_query, minlength=queries)
    rank = np.arange(len(add_query)) - np.repeat(np.cumsum(adds) - adds, adds)
    np.maximum.at(done, add_query, ready[~load] + (adds[add_query] - rank) * t_add)
    return done


def lookup_sums(pooling: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Each query's per-table sums of its vectors (given in request order) in
    table order, each folded left to right in index order as a float32 cumsum."""
    queries, tables = pooling.shape
    sizes = pooling.ravel()
    if (sizes == 0).any():
        raise ValueError(f"table {np.argmax(sizes == 0) % tables}: no fetched vectors")
    ev_dim = vectors.shape[1]
    group = np.repeat(np.arange(len(sizes)), sizes)
    pos = np.arange(len(group)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    padded = np.zeros((len(sizes), int(sizes.max(initial=0)), ev_dim), dtype=np.float32)
    padded[group, pos] = vectors
    sums = padded.cumsum(axis=1, dtype=np.float32)[np.arange(len(sizes)), sizes - 1]
    return sums.reshape(queries, tables * ev_dim)


def ev_sum_engine(pooling: np.ndarray, arrival_ns: np.ndarray, vectors: np.ndarray,
                  timing: TimingParams, kc_e: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """A batch's fetched vectors, given in request order, aggregated: each
    query's per-table sums (`lookup_sums`) and completion (`adder_done_ns`)."""
    return (lookup_sums(pooling, vectors),
            adder_done_ns(pooling, arrival_ns, vectors.shape[1], timing, kc_e))


@dataclass
class LookupResult:
    ev_concat: np.ndarray                # (queries, M * ev_dim)
    e_ns: list[int]                      # per query EV-sum completion
    flash_start_ns: list[int]            # per query first sense start
    t_emb_ns: int                        # completion of the last EV sum
    requests: Requests
    reads: CoalescedReads
    schedule: PageSchedule               # the coalesced reads, in their order
    arrival_ns: np.ndarray               # per request: its page's transfer end
    channel_busy_ns: list[int]


def simulate_lookup(model: Model, queries: list[Query], geometry: SsdGeometry,
                    timing: TimingParams, emap: ExtentMap, ftl: Ftl,
                    flash: FlashImage | None = None,
                    kc_e: int | None = None) -> LookupResult:
    """Run one batch through translate -> dispatch -> page reads -> vector sum."""
    for q in queries:
        model.validate_query(q)
    ev_dim = model.spec.ev_dim
    requests = translate_batch(emap, ftl, queries)
    reads = dispatch(requests)

    zeros = np.zeros(len(reads), dtype=np.int64)
    sched = schedule_page_reads(PageReads(reads.channel, reads.die, zeros,
                                          zeros + EV_PRIORITY), geometry, timing)
    arrival = sched.xfer_end_ns[reads.read]

    if flash is not None:
        vectors = flash.rows[requests.page, requests.offset // (ev_dim * 4)]
    else:
        vectors = np.empty((len(requests), ev_dim), dtype=np.float32)
        for t, table in enumerate(model.tables):
            mine = requests.table == t
            vectors[mine] = table.values[requests.index[mine]]
    # one vector-sum unit per query, so queries do not serialize on one adder
    ev_concat, e_ns = ev_sum_engine(requests.pooling, arrival, vectors, timing, kc_e)
    query_start = np.cumsum(requests.pooling.sum(axis=1)) - requests.pooling.sum(axis=1)
    first_sense = np.minimum.reduceat(sched.sense_start_ns[reads.read], query_start) \
        if len(requests) else np.zeros(0, dtype=np.int64)

    return LookupResult(
        ev_concat=ev_concat,
        e_ns=e_ns.tolist(),
        flash_start_ns=first_sense.tolist(),
        t_emb_ns=int(e_ns.max(initial=0)),
        requests=requests,
        reads=reads,
        schedule=sched,
        arrival_ns=arrival,
        channel_busy_ns=sched.channel_busy_ns(geometry.channels),
    )
