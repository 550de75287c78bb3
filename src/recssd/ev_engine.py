"""Embedding lookup engine: index-to-LBA translation, coalescing dispatch
across flash channels/dies, and the vector-sum unit.

Layout rule: rows are packed floor(page_size / ev_bytes) per page with the
page tail padded, so no vector straddles a page and one vector costs at most
one page read. File extents must be whole pages for the same reason.

Timing vs values: fetch and adder timing follow arrival order out of flash;
the summed values are always accumulated in the query's index order so they
match the reference path bit-for-bit.
"""

import bisect
from dataclasses import dataclass, field

import numpy as np

from .recmodel import Model, Query
from .storage import (EV_PRIORITY, BLOCK_PRIORITY, Ftl, PageReadRequest, PageSchedule,
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

    def pages_per_table(self) -> list[int]:
        return [-(-r // self.rows_per_page) for r in self.rows]

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


def translate_index(emap: ExtentMap, table_id: int, index: int) -> tuple[int, int]:
    """Map (table, row index) to (page-start LBA, byte offset within the page)."""
    if not 0 <= table_id < len(emap.table_extents):
        raise ValueError(f"table {table_id} not in extent map")
    if not 0 <= index < emap.rows[table_id]:
        raise ValueError(f"table {table_id}: index {index} out of range [0, {emap.rows[table_id]})")
    extents = emap.table_extents[table_id]
    starts = [e.index_start for e in extents]
    pos = bisect.bisect_right(starts, index) - 1
    ext = extents[pos]
    rel = index - ext.index_start
    page_in_extent = rel // emap.rows_per_page
    slot = rel % emap.rows_per_page
    lba = ext.start_lba + page_in_extent * emap.lbas_per_page
    return lba, slot * emap.ev_bytes


@dataclass(frozen=True)
class EvRequest:
    seq: int
    query_id: int
    table_id: int
    index: int
    lba: int
    page_offset: int
    page_index: int     # global physical page
    channel: int
    die: int
    issue_ns: int = 0


@dataclass
class PageTask:
    """One coalesced page read carrying every EV request that maps into it."""
    seq: int
    page_index: int
    lba: int
    channel: int
    die: int
    requests: list[EvRequest] = field(default_factory=list)


@dataclass
class PathBuffer:
    """Pending page set per (channel, die); a page appears exactly once."""
    by_page: dict[int, PageTask] = field(default_factory=dict)
    per_die: dict[tuple[int, int], list[PageTask]] = field(default_factory=dict)

    def add(self, req: EvRequest, next_seq: int) -> int:
        task = self.by_page.get(req.page_index)
        if task is None:
            task = PageTask(next_seq, req.page_index, req.lba, req.channel, req.die)
            self.by_page[req.page_index] = task
            self.per_die.setdefault((req.channel, req.die), []).append(task)
            next_seq += 1
        task.requests.append(req)
        return next_seq


def translate_batch(emap: ExtentMap, ftl: Ftl, queries: list[Query],
                    issue_ns: int = 0) -> list[EvRequest]:
    reqs = []
    seq = 0
    for q_id, q in enumerate(queries):
        for t, idx_list in enumerate(q.indices):
            for index in idx_list:
                lba, off = translate_index(emap, t, index)
                loc = ftl.translate(lba)
                page_index = (lba * ftl.geometry.lba_size) // ftl.geometry.page_size
                reqs.append(EvRequest(seq, q_id, t, index, lba, off, page_index,
                                      loc.channel, loc.die, issue_ns))
                seq += 1
    return reqs


def dispatch(requests: list[EvRequest], geometry: SsdGeometry) -> PathBuffer:
    """Coalesce requests into unique page reads, queued per (channel, die) in
    first-arrival order."""
    path = PathBuffer()
    next_seq = 0
    for req in requests:
        next_seq = path.add(req, next_seq)
    return path


class FlashImage:
    """Byte image of the provisioned LBA space holding the padded table files."""

    def __init__(self, buf: bytearray, lba_size: int):
        self.buf = buf
        self.lba_size = lba_size

    def read_ev(self, lba: int, offset: int, ev_dim: int) -> np.ndarray:
        byte = lba * self.lba_size + offset
        return np.frombuffer(self.buf, dtype="<f4", count=ev_dim, offset=byte).copy()


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
    return FlashImage(buf, geometry.lba_size)


def _adder_schedule(items: list[tuple[int, int, object]], t_add_ns: int):
    """Serial adder accounting: items are (ready_ns, seq, key) processed in
    (ready, seq) order. The first item of a key is a free load; every later
    one occupies the adder for t_add_ns. Returns per-key completion times."""
    done: dict[object, int] = {}
    busy = 0
    for ready, _, key in sorted(items, key=lambda it: (it[0], it[1])):
        if key not in done:
            done[key] = ready
        else:
            busy = max(ready, busy) + t_add_ns
            done[key] = max(done[key], busy)
    return done


def ev_sum_engine(per_table_arrivals: list[list[tuple[int, np.ndarray]]],
                  ev_dim: int, timing: TimingParams,
                  kc_e: int | None = None) -> tuple[np.ndarray, int]:
    """Aggregate one query's fetched vectors.

    `per_table_arrivals[t]` lists (arrival_ns, vector) in the query's index
    order. The value result concatenates the per-table sums folded in that
    order; the completion time follows arrival order through a serial adder
    consuming one vector per ceil(ev_dim / kc_e) clock cycles.
    """
    if kc_e is None:
        kc_e = ev_dim
    items = []
    seq = 0
    for t, arrivals in enumerate(per_table_arrivals):
        if not arrivals:
            raise ValueError(f"table {t}: no fetched vectors")
        for ready, _ in arrivals:
            items.append((ready, seq, t))
            seq += 1
    t_add = timing.cycles_to_ns(-(-ev_dim // kc_e))
    done = _adder_schedule(items, t_add)
    parts = []
    for arrivals in per_table_arrivals:
        stack = np.stack([v for _, v in arrivals]).astype(np.float32)
        parts.append(stack.cumsum(axis=0, dtype=np.float32)[-1] if len(arrivals) > 1
                     else stack[0].copy())
    return np.concatenate(parts).astype(np.float32), max(done.values())


@dataclass
class LookupResult:
    ev_concat: list[np.ndarray]          # per query, length M * ev_dim
    e_ns: list[int]                      # per query EV-sum completion
    last_arrival_ns: list[int]           # per query last flash arrival
    flash_start_ns: list[int]            # per query first sense start
    t_emb_ns: int                        # completion of the last EV sum
    schedule: PageSchedule
    path: PathBuffer
    requests: list[EvRequest]
    channel_busy_ns: list[int]


def simulate_lookup(model: Model, queries: list[Query], geometry: SsdGeometry,
                    timing: TimingParams, emap: ExtentMap, ftl: Ftl,
                    flash: FlashImage | None = None, kc_e: int | None = None,
                    block_page_reads: list[tuple[int, int]] = ()) -> LookupResult:
    """Run one batch through translate -> dispatch -> page reads -> vector sum.

    `block_page_reads` optionally injects competing block I/O as
    (ready_ns, global page index) pairs; embedding reads take non-preemptive
    priority over them.
    """
    for q in queries:
        model.validate_query(q)
    ev_dim = model.spec.ev_dim
    if kc_e is None:
        kc_e = ev_dim
    requests = translate_batch(emap, ftl, queries)
    path = dispatch(requests, geometry)

    page_reqs = []
    tasks_in_order = sorted(path.by_page.values(), key=lambda t: t.seq)
    for task in tasks_in_order:
        page_reqs.append(PageReadRequest(0, EV_PRIORITY, task.channel, task.die,
                                         task.seq, tag=("ev", task.page_index)))
    base = len(page_reqs)
    for k, (ready, page_index) in enumerate(block_page_reads):
        ch, die, _ = ftl.page_location(page_index)
        page_reqs.append(PageReadRequest(ready, BLOCK_PRIORITY, ch, die, base + k,
                                         tag=("block", page_index)))
    sched = schedule_page_reads(page_reqs, geometry, timing)

    arrival_by_page: dict[int, int] = {}
    sense_by_page: dict[int, int] = {}
    for rec in sched.records:
        kind, page_index = rec.request.tag
        if kind == "ev":
            arrival_by_page[page_index] = rec.xfer_end_ns
            sense_by_page[page_index] = rec.sense_start_ns

    # one vector-sum unit per query, so queries do not serialize on one adder
    by_query: list[list[EvRequest]] = [[] for _ in queries]
    for r in requests:
        by_query[r.query_id].append(r)
    ev_concat, e_ns, last_arr, first_sense = [], [], [], []
    for qreqs in by_query:
        per_table: list[list[tuple[int, np.ndarray]]] = [[] for _ in model.spec.tables]
        for r in qreqs:
            vec = (flash.read_ev(r.lba, r.page_offset, ev_dim) if flash is not None
                   else model.tables[r.table_id].values[r.index])
            per_table[r.table_id].append((arrival_by_page[r.page_index], vec))
        values, done_ns = ev_sum_engine(per_table, ev_dim, timing, kc_e)
        ev_concat.append(values)
        e_ns.append(done_ns)
        last_arr.append(max(arrival_by_page[r.page_index] for r in qreqs))
        first_sense.append(min(sense_by_page[r.page_index] for r in qreqs))

    return LookupResult(
        ev_concat=ev_concat,
        e_ns=e_ns,
        last_arrival_ns=last_arr,
        flash_start_ns=first_sense,
        t_emb_ns=max(e_ns) if e_ns else 0,
        schedule=sched,
        path=path,
        requests=requests,
        channel_busy_ns=sched.channel_busy_ns(geometry.channels),
    )
