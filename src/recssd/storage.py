"""SSD geometry, timing, the flash translation layer, and page-read scheduling.

Timing model (all durations are integer nanoseconds):

* a page read is a sense phase (occupies its die) followed by a transfer
  phase (occupies the channel bus); the die stays busy until its page has
  been transferred, so there is one outstanding read per die;
* dies on a channel sense concurrently, transfers on a channel serialize;
* embedding reads outrank queued block I/O at both the die and the bus,
  non-preemptively; ties resolve by arrival then sequence number.

Channels share nothing, so `schedule_page_reads` runs one loop per channel:

* a die takes its next page at max(die free, first pending arrival),
  choosing the least (priority, ready, seq) among the pages arrived by then;
* the bus takes, at max(bus free, earliest sense end among the dies'
  current pages), the least (priority, sense end, seq) among the pages
  sensed by then; the transfer's end frees both the bus and the die.

The loop is the event-driven rule exactly when a sense and a page transfer
each last at least 1 ns, so that no phase ends at the instant it starts;
scenarios with shorter phases are rejected as configuration errors.
"""

import heapq
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

EV_PRIORITY = 0
BLOCK_PRIORITY = 1


@dataclass(frozen=True)
class SsdGeometry:
    channels: int
    dies_per_channel: int
    page_size: int
    lba_size: int = 512
    pages_per_block: int = 256

    def __post_init__(self):
        for name in ("channels", "dies_per_channel", "page_size", "lba_size", "pages_per_block"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.page_size % self.lba_size != 0:
            raise ValueError(
                f"page_size {self.page_size} not a multiple of lba_size {self.lba_size}"
            )

    @property
    def lbas_per_page(self) -> int:
        return self.page_size // self.lba_size

    @property
    def total_dies(self) -> int:
        return self.channels * self.dies_per_channel


@dataclass(frozen=True)
class TimingParams:
    page_read_us: float = 50.0
    channel_transfer_ns_per_byte: float = 0.4
    dram_hit_ns: float = 100.0
    host_interface_ns_per_byte: float = 0.25
    fc_clock_mhz: float = 200.0
    host_block_io_overhead_us: float = 10.0
    host_ns_per_mac: float = 0.1

    def __post_init__(self):
        for name in ("page_read_us", "channel_transfer_ns_per_byte", "dram_hit_ns",
                     "host_interface_ns_per_byte", "fc_clock_mhz",
                     "host_block_io_overhead_us", "host_ns_per_mac"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")

    @property
    def sense_ns(self) -> int:
        return round(self.page_read_us * 1000.0)

    def xfer_ns(self, page_size: int) -> int:
        return round(page_size * self.channel_transfer_ns_per_byte)

    def host_iface_ns(self, nbytes: int) -> int:
        return round(nbytes * self.host_interface_ns_per_byte)

    @property
    def host_overhead_ns(self) -> int:
        return round(self.host_block_io_overhead_us * 1000.0)

    @property
    def dram_hit_ns_int(self) -> int:
        return round(self.dram_hit_ns)

    @property
    def clock_period_ns(self) -> float:
        return 1000.0 / self.fc_clock_mhz

    def cycles_to_ns(self, cycles: int) -> int:
        return round(cycles * self.clock_period_ns)

    def ns_to_cycles(self, ns: int) -> int:
        return math.ceil(ns / self.clock_period_ns)


class PhysLoc(NamedTuple):
    channel: int
    die: int
    page: int      # page index within the die
    offset: int    # byte offset within the page


@dataclass(frozen=True)
class Ftl:
    """Static round-robin FTL: physical page p of the provisioned range lands
    on channel p mod C, die (p div C) mod D. Read-only workload, no GC."""

    geometry: SsdGeometry
    total_pages: int

    def __post_init__(self):
        if self.total_pages < 1:
            raise ValueError("total_pages must be >= 1")

    @property
    def total_lbas(self) -> int:
        return self.total_pages * self.geometry.lbas_per_page

    def page_location(self, page_index):
        """(channel, die, page within the die) of a physical page index, or of
        each element of an integer array of them."""
        g = self.geometry
        outside = np.asarray((page_index < 0) | (page_index >= self.total_pages))
        if outside.any():
            bad = np.asarray(page_index)[outside].flat[0]
            raise ValueError(f"page {bad} outside provisioned range [0, {self.total_pages})")
        channel = page_index % g.channels
        die = (page_index // g.channels) % g.dies_per_channel
        die_page = page_index // (g.channels * g.dies_per_channel)
        return channel, die, die_page

    def translate(self, lba: int) -> PhysLoc:
        g = self.geometry
        if not 0 <= lba < self.total_lbas:
            raise ValueError(f"lba {lba} outside provisioned range [0, {self.total_lbas})")
        byte = lba * g.lba_size
        page_index = byte // g.page_size
        channel, die, die_page = self.page_location(page_index)
        return PhysLoc(channel, die, die_page, byte % g.page_size)


def page_read_time(geometry: SsdGeometry, timing: TimingParams) -> int:
    """Sense plus channel transfer for one page, in ns."""
    return timing.sense_ns + timing.xfer_ns(geometry.page_size)


@dataclass(frozen=True)
class PageReads:
    """Page reads as columns; a read's position is its sequence number."""
    channel: np.ndarray
    die: np.ndarray
    ready_ns: np.ndarray
    priority: np.ndarray    # EV_PRIORITY or BLOCK_PRIORITY

    def __len__(self) -> int:
        return len(self.channel)


@dataclass(frozen=True)
class PageSchedule:
    """Per-read phase times, in the order of the scheduled `reads`."""
    reads: PageReads
    sense_start_ns: np.ndarray
    sense_end_ns: np.ndarray
    xfer_start_ns: np.ndarray
    xfer_end_ns: np.ndarray
    makespan_ns: int

    def channel_busy_ns(self, channels: int) -> list[int]:
        """Union of each channel's die-busy intervals (sense start to transfer end)."""
        channel = self.reads.channel
        if len(channel) == 0:
            return [0] * channels
        # shift each channel onto its own stretch of the time line, then take
        # the part of every interval not covered by the ones starting before it
        shift = channel.astype(np.int64) * (self.makespan_ns + 1)
        start = self.sense_start_ns + shift
        order = np.argsort(start, kind="stable")
        start, end = start[order], (self.xfer_end_ns + shift)[order]
        covered = np.maximum.accumulate(np.concatenate(([0], end[:-1])))
        fresh = np.maximum(end - np.maximum(start, covered), 0)
        return np.bincount(channel[order], weights=fresh, minlength=channels) \
            .astype(np.int64).tolist()


def schedule_page_reads(reads: PageReads, geometry: SsdGeometry,
                        timing: TimingParams) -> PageSchedule:
    """Schedule page reads with the per-channel loop of the module docstring.
    Die and bus are both work-conserving."""
    sense = timing.sense_ns
    xfer = timing.xfer_ns(geometry.page_size)
    n = len(reads)
    channel = np.asarray(reads.channel, dtype=np.int64)
    die = np.asarray(reads.die, dtype=np.int64)
    outside = (channel < 0) | (channel >= geometry.channels) \
        | (die < 0) | (die >= geometry.dies_per_channel)
    if outside.any():
        k = int(np.argmax(outside))
        raise ValueError(f"read {k}: ({channel[k]}, {die[k]}) outside geometry")

    # per die, its reads' keys (priority, ready, seq) in arrival order
    die_key = channel * geometry.dies_per_channel + die
    order = np.lexsort((reads.ready_ns, die_key))
    bounds = np.searchsorted(die_key[order], np.arange(geometry.total_dies + 1)).tolist()
    keys = list(zip(np.asarray(reads.priority).tolist(), np.asarray(reads.ready_ns).tolist(),
                    range(n)))
    keys = [keys[seq] for seq in order.tolist()]
    sense_start = [0] * n
    xfer_start = [0] * n

    def start(die, free_ns):
        """Start the die's next page once the die is free. Returns the page's
        (priority, sense end, seq, die), or None when the die has none left."""
        arrivals, waiting = die
        if not waiting:
            if not arrivals:
                return None
            free_ns = max(free_ns, arrivals[-1][1])
        while arrivals and arrivals[-1][1] <= free_ns:
            heapq.heappush(waiting, arrivals.pop())
        prio, _, seq = heapq.heappop(waiting)
        sense_start[seq] = free_ns
        return prio, free_ns + sense, seq, die

    sense_end_of = operator.itemgetter(1)
    for ch in range(geometry.channels):
        heads = []
        for d in range(ch * geometry.dies_per_channel, (ch + 1) * geometry.dies_per_channel):
            if bounds[d] < bounds[d + 1]:
                arrivals = keys[bounds[d]:bounds[d + 1]][::-1]   # next arrival last
                heads.append(start((arrivals, []), 0))
        bus_free = 0
        while heads:
            now = max(bus_free, min(heads, key=sense_end_of)[1])
            best = min(heads)
            if best[1] > now:       # the most urgent page is still sensing
                best = min(h for h in heads if h[1] <= now)
            xfer_start[best[2]] = now
            bus_free = now + xfer
            nxt = start(best[3], bus_free)
            if nxt is None:
                heads.remove(best)
            else:
                heads[heads.index(best)] = nxt

    sense_start = np.array(sense_start, dtype=np.int64)
    xfer_start = np.array(xfer_start, dtype=np.int64)
    xfer_end = xfer_start + xfer
    return PageSchedule(reads, sense_start, sense_start + sense, xfer_start, xfer_end,
                        int(xfer_end.max()) if n else 0)


def pages_of_byte_range(ftl: Ftl, lba: int, nbytes: int) -> list[int]:
    g = ftl.geometry
    if nbytes < 1:
        raise ValueError("read length must be >= 1 byte")
    start = lba * g.lba_size
    end = start + nbytes
    if lba < 0 or end > ftl.total_lbas * g.lba_size:
        raise ValueError(f"byte range [{start}, {end}) outside provisioned capacity")
    return list(range(start // g.page_size, (end - 1) // g.page_size + 1))


def host_block_read(ftl: Ftl, lba: int, nbytes: int, timing: TimingParams) -> int:
    """Latency of one synchronous host-path read: flash page reads (parallel
    across channels/dies, serialized per die), host-interface transfer of the
    payload, plus the fixed software-stack overhead."""
    geometry = ftl.geometry
    pages = np.array(pages_of_byte_range(ftl, lba, nbytes), dtype=np.int64)
    channel, die, _ = ftl.page_location(pages)
    zeros = np.zeros(len(pages), dtype=np.int64)
    sched = schedule_page_reads(PageReads(channel, die, zeros, zeros + BLOCK_PRIORITY),
                                geometry, timing)
    return sched.makespan_ns + timing.host_iface_ns(nbytes) + timing.host_overhead_ns
