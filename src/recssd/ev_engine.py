"""Embedding lookup engine: index-to-LBA translation, coalescing dispatch
across flash channels/dies, and the vector-sum unit.

Layout rule: rows are packed floor(page_size / ev_bytes) per page with the
page tail padded, so no vector straddles a page and one vector costs at most
one page read. File extents must be whole pages for the same reason.

Timing vs values: fetch and adder timing follow arrival order out of flash;
the summed values are always accumulated in the query's index order so they
match the reference path bit-for-bit.

A lookup splits in two. Its read timeline (`read_timeline`: the page reads'
schedule and the adder's order of their arrivals) reads neither the table
values nor the adder's width, so modes that look up the same requests on the
same device can share it. The gather, the sums and the adder's finish at its
add time are each mode's own.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .recmodel import Model, Workload
from .storage import Ftl, PageReads, SsdGeometry, TimingParams, schedule_page_reads


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
    """Embedding lookups as columns, in query order, then table order, then
    the order of each query's index list."""
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


def translate_batch(emap: ExtentMap, ftl: Ftl, queries: Workload) -> Requests:
    tables = len(emap.rows)
    if len(queries) and queries.pooling.shape[1] != tables:
        raise ValueError(f"query has {queries.pooling.shape[1]} index lists, "
                         f"extent map has {tables}")
    pooling, index = queries.pooling, queries.index
    table = np.repeat(np.tile(np.arange(tables), len(queries)), pooling.ravel())
    query = np.repeat(np.arange(len(queries)), pooling.sum(axis=1))
    lba, offset = _locate(emap, table, index)
    page = lba // emap.lbas_per_page
    channel, die, _ = ftl.page_location(page)
    return Requests(pooling, query, table, index, lba, offset, page, channel, die)


@dataclass(frozen=True)
class CoalescedReads:
    """One read per distinct (lane, page), in the order of each one's first
    request."""
    lane: np.ndarray
    page: np.ndarray
    channel: np.ndarray
    die: np.ndarray
    read: np.ndarray        # per request: the position of its page's read

    def __len__(self) -> int:
        return len(self.page)


def dispatch(requests: Requests, lane: np.ndarray | None = None) -> CoalescedReads:
    """Coalesce requests into unique page reads per lane (per request; None
    puts every request in lane 0), in first-arrival order."""
    lane = np.zeros(len(requests), dtype=np.int64) if lane is None else lane
    key = lane * (int(requests.page.max(initial=0)) + 1) + requests.page
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    first = first[order]
    return CoalescedReads(lane[first], requests.page[first], requests.channel[first],
                          requests.die[first], rank[inverse.ravel()])


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
    image = FlashImage(bytearray(emap.max_lba_end() * geometry.lba_size), geometry.page_size,
                       emap.ev_dim)
    rpp = emap.rows_per_page
    # each extent's rows go straight into their page slots: the full pages,
    # then the last page's rows; slots past a table's end and page tails stay
    # zero. `image.rows` is a view of the buffer, so slicing it writes through.
    for t, extents in enumerate(emap.table_extents):
        values = tables[t].values
        for e in extents:
            page = e.start_lba // emap.lbas_per_page
            full, tail = divmod(e.index_count, rpp)
            rows = values[e.index_start: e.index_start + e.index_count]
            image.rows[page: page + full] = rows[:full * rpp].reshape(full, rpp, emap.ev_dim)
            if tail:
                image.rows[page + full, :tail] = rows[full * rpp:]
    return image


@dataclass(frozen=True)
class AdderOrder:
    """A lookup's fetched vectors in the order each query's serial adder takes
    them: all of the adder's schedule but its time per add.

    The adder takes a query's vectors in (arrival, request order) order. The
    first vector of a table is a free load; every later one is an add that
    occupies the adder for one add time, starting no earlier than its arrival.
    So a query with K adds at arrivals r_1 <= ... <= r_K finishes them at
    max_j r_j + (K - j + 1) * t_add, and completes when that and its last free
    load are done."""
    load_done_ns: np.ndarray    # per query: the arrival of its last free load
    add_query: np.ndarray       # per add, in the adder's order: its query
    add_ready_ns: np.ndarray    # per add: its vector's arrival
    adds_left: np.ndarray       # per add: K - j + 1, the query's adds from it on

    def done_ns(self, t_add: int) -> np.ndarray:
        """Per-query completion of the adder at `t_add` ns per add."""
        done = self.load_done_ns.copy()
        np.maximum.at(done, self.add_query, self.add_ready_ns + self.adds_left * t_add)
        return done


def adder_order(pooling: np.ndarray, arrival_ns: np.ndarray) -> AdderOrder:
    """The adder's order of the vectors arriving at `arrival_ns`, given in
    request order; `pooling[q, t]` counts query q's vectors of table t."""
    queries, tables = pooling.shape
    query = np.repeat(np.arange(queries), pooling.sum(axis=1))
    group = np.repeat(np.arange(queries * tables), pooling.ravel())
    order = np.lexsort((arrival_ns, query))
    ready, group, query = arrival_ns[order], group[order], query[order]
    load = np.zeros(len(order), dtype=bool)
    load[np.unique(group, return_index=True)[1]] = True
    load_done = np.zeros(queries, dtype=np.int64)
    np.maximum.at(load_done, query[load], ready[load])
    add_query = query[~load]
    adds = np.bincount(add_query, minlength=queries)
    rank = np.arange(len(add_query)) - np.repeat(np.cumsum(adds) - adds, adds)
    return AdderOrder(load_done, add_query, ready[~load], adds[add_query] - rank)


def add_ns(ev_dim: int, timing: TimingParams, kc_e: int | None = None) -> int:
    """One add of an ev_dim-wide vector on a kc_e-wide adder (default: ev_dim
    wide): ceil(ev_dim / kc_e) clock cycles."""
    if kc_e is None:
        kc_e = ev_dim
    return timing.cycles_to_ns(-(-ev_dim // kc_e))


def _require_vectors(pooling: np.ndarray) -> None:
    sizes = pooling.ravel()
    if (sizes == 0).any():
        raise ValueError(f"table {np.argmax(sizes == 0) % pooling.shape[1]}: no fetched vectors")


def lookup_sums(pooling: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Each query's per-table sums of its vectors (given in request order) in
    table order, each folded left to right in index order as a float32 cumsum."""
    _require_vectors(pooling)
    queries, tables = pooling.shape
    sizes = pooling.ravel()
    ev_dim = vectors.shape[1]
    group = np.repeat(np.arange(len(sizes)), sizes)
    pos = np.arange(len(group)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    padded = np.zeros((len(sizes), int(sizes.max(initial=0)), ev_dim), dtype=np.float32)
    padded[group, pos] = vectors
    sums = np.cumsum(padded, axis=1, out=padded)[np.arange(len(sizes)), sizes - 1]
    return sums.reshape(queries, tables * ev_dim)


@dataclass(frozen=True)
class ReadTimeline:
    """What the modes read of a lookup's page reads. It depends on the
    requests, the batch, the geometry and the timing alone, not on the table
    values or the adder's width, so modes that look up the same requests on
    the same device share it."""
    first_sense_ns: np.ndarray           # per query: its first sense start
    channel_busy_ns: np.ndarray          # (batches, channels)
    adder: AdderOrder


def read_timeline(requests: Requests, batch: int, geometry: SsdGeometry,
                  timing: TimingParams) -> ReadTimeline:
    """Coalesce and schedule the page reads of `requests`, one batch of
    `batch` queries per lane, and keep only the columns the modes read: each
    query's first sense start, the channels' busy times and the adder's order
    of the requests' arrivals (each its page's transfer end)."""
    _require_vectors(requests.pooling)
    reads = dispatch(requests, requests.query // batch)
    sched = schedule_page_reads(PageReads(reads.channel, reads.die, reads.lane),
                                geometry, timing)
    arrival = sched.xfer_end_ns[reads.read]
    per_query = requests.pooling.sum(axis=1)
    first_sense = np.minimum.reduceat(sched.sense_start_ns[reads.read],
                                      np.cumsum(per_query) - per_query)
    lanes = -(-len(per_query) // batch)
    return ReadTimeline(first_sense, sched.channel_busy_ns(geometry.channels, lanes),
                        adder_order(requests.pooling, arrival))


@dataclass
class LookupResult:
    ev_concat: np.ndarray                # (queries, M * ev_dim)
    e_ns: np.ndarray                     # per query EV-sum completion
    flash_start_ns: np.ndarray           # per query first sense start
    t_emb_ns: np.ndarray                 # per batch completion of its last EV sum
    channel_busy_ns: np.ndarray          # (batches, channels)


def gather_rows(tables, table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Row `index[k]` of table `table[k]` for every k, in that order."""
    vectors = np.empty((len(index), tables[0].values.shape[1]), dtype=np.float32)
    for t, tab in enumerate(tables):
        mine = table == t
        vectors[mine] = tab.values[index[mine]]
    return vectors


def simulate_lookup(model: Model, queries: Workload, geometry: SsdGeometry,
                    timing: TimingParams, emap: ExtentMap, ftl: Ftl,
                    flash: FlashImage | None = None, kc_e: int | None = None,
                    batch: int | None = None,
                    shared: tuple[Requests, ReadTimeline] | None = None) -> LookupResult:
    """Run batches of `batch` queries (default: one batch of all) through
    translate -> read timeline -> gather -> vector sum, each batch on an idle
    device from time 0; every time is relative to its batch's start.

    The translation and the read timeline read neither the tables nor
    `kc_e`: `shared` holds them (`translate_batch` of these queries and
    `read_timeline` of that at `batch`) when the caller has them already. The
    gather reads the flash image (the tables when `flash` is None), and the
    adder finishes the timeline's order at the add time of `kc_e`."""
    dense_dim = model.spec.dense_dim
    if len(queries) and queries.dense.shape[1] != dense_dim:
        raise ValueError(f"dense vector shape ({queries.dense.shape[1]},) != ({dense_dim},)")
    ev_dim = model.spec.ev_dim
    batch = batch or max(len(queries), 1)
    if shared is None:
        requests = translate_batch(emap, ftl, queries)
        shared = requests, read_timeline(requests, batch, geometry, timing)
    requests, timeline = shared

    if flash is not None:
        vectors = flash.rows[requests.page, requests.offset // (ev_dim * 4)]
    else:
        vectors = gather_rows(model.tables, requests.table, requests.index)
    # one vector-sum unit per query, so queries do not serialize on one adder
    ev_concat = lookup_sums(requests.pooling, vectors)
    e_ns = timeline.adder.done_ns(add_ns(ev_dim, timing, kc_e))
    return LookupResult(
        ev_concat=ev_concat,
        e_ns=e_ns,
        flash_start_ns=timeline.first_sense_ns,
        t_emb_ns=np.maximum.reduceat(e_ns, np.arange(0, len(queries), batch))
        if len(queries) else e_ns,
        channel_busy_ns=timeline.channel_busy_ns,
    )
