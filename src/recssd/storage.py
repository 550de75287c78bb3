"""SSD geometry, timing, page placement, and page-read scheduling.

Placement is static round-robin striping: physical page p lies on channel
p mod C, die (p div C) mod D, for C channels of D dies. The workload is
read-only, so nothing moves and there is no garbage collection.

Timing model (all durations are integer nanoseconds):

* a page read is a sense phase (occupies its die) followed by a transfer
  phase (occupies the channel bus); the die stays busy until its page has
  been transferred, so there is one outstanding read per die;
* dies on a channel sense concurrently, transfers on a channel serialize;
* every read is ready when its lane starts, and a die takes its reads in
  sequence (request) order.

A lane is a device of its own, idle at time 0, and its channels share
nothing. So `schedule_page_reads` runs every active (lane, channel) pair in
one lockstep loop, one transfer per pair and step, until the busiest pair
has moved all its reads:

* the pair's bus takes, at max(bus free, earliest sense end among its dies'
  current reads), the least (sense end, seq) among those reads;
* the transfer's end frees the bus and the die, which starts sensing its
  next read at once.

The loop is the event-driven rule exactly when a sense and a page transfer
each last at least 1 ns, so that no phase ends at the instant it starts;
scenarios with shorter phases are rejected as configuration errors.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SsdGeometry:
    channels: int
    dies_per_channel: int
    page_size: int

    def __post_init__(self):
        for name in ("channels", "dies_per_channel", "page_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


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

    def cycles_to_ns(self, cycles):
        """Engine cycles, an int or an int64 array, to the nearest ns (halves
        to even)."""
        if isinstance(cycles, np.ndarray):
            return np.rint(cycles * self.clock_period_ns).astype(np.int64)
        return round(cycles * self.clock_period_ns)

    def ns_to_cycles(self, ns):
        """The engine cycles, rounded up, that span `ns`, an int or an int64
        array."""
        if isinstance(ns, np.ndarray):
            return np.ceil(ns / self.clock_period_ns).astype(np.int64)
        return math.ceil(ns / self.clock_period_ns)


def page_location(geometry: SsdGeometry, page):
    """(channel, die, page within the die) of a physical page index, or of
    each element of an integer array of them."""
    channels, dies = geometry.channels, geometry.dies_per_channel
    return page % channels, (page // channels) % dies, page // (channels * dies)


def page_read_time(geometry: SsdGeometry, timing: TimingParams) -> int:
    """Sense plus channel transfer for one page, in ns."""
    return timing.sense_ns + timing.xfer_ns(geometry.page_size)


@dataclass(frozen=True)
class PageReads:
    """Page reads as columns; a read's position is its sequence number. Each
    lane is a device of its own, idle at time 0, and its reads are all ready
    at that start."""
    channel: np.ndarray
    die: np.ndarray
    lane: np.ndarray                    # lanes numbered from 0

    def __len__(self) -> int:
        return len(self.channel)


@dataclass(frozen=True)
class PageSchedule:
    """Per-read phase times, in the order of the scheduled `reads`, each
    relative to the start of the read's lane."""
    reads: PageReads
    sense_start_ns: np.ndarray
    sense_end_ns: np.ndarray
    xfer_start_ns: np.ndarray
    xfer_end_ns: np.ndarray
    makespan_ns: int                    # the latest transfer end of any lane

    def channel_busy_ns(self, channels: int, lanes: int) -> np.ndarray:
        """Union of each (lane, channel)'s die-busy intervals (sense start to
        transfer end), as a (lanes, channels) matrix. Every die senses its
        first read at its lane's start and each next one when the previous
        transfer ends, so that union is [0, the pair's last transfer end]."""
        busy = np.zeros(lanes * channels, dtype=np.int64)
        np.maximum.at(busy, self.reads.lane * channels + self.reads.channel, self.xfer_end_ns)
        return busy.reshape(lanes, channels)


# a time no schedule reaches: the sense end of a die with no reads left
_NEVER = 1 << 62


def schedule_page_reads(reads: PageReads, geometry: SsdGeometry,
                        timing: TimingParams) -> PageSchedule:
    """Schedule page reads with the lockstep loop of the module docstring.
    Die and bus are both work-conserving."""
    sense = timing.sense_ns
    xfer = timing.xfer_ns(geometry.page_size)
    n = len(reads)
    channel = np.asarray(reads.channel, dtype=np.int64)
    die = np.asarray(reads.die, dtype=np.int64)
    lane = np.asarray(reads.lane, dtype=np.int64)
    outside = (channel < 0) | (channel >= geometry.channels) \
        | (die < 0) | (die >= geometry.dies_per_channel) | (lane < 0)
    if outside.any():
        k = int(np.argmax(outside))
        raise ValueError(f"read {k}: lane {lane[k]}, ({channel[k]}, {die[k]}) "
                         f"outside geometry")
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return PageSchedule(reads, empty, empty, empty, empty, 0)

    # number the active (lane, channel) pairs busiest first, so the pairs
    # still moving reads at step s, those with more than s, are the first
    # active[s]
    pair = lane * geometry.channels + channel
    per_pair = np.bincount(pair)
    busiest = np.argsort(-per_pair, kind="stable")
    renumber = np.empty_like(busiest)
    renumber[busiest] = np.arange(len(busiest))
    pair = renumber[pair]
    per_pair = per_pair[busiest]
    pairs = int(np.count_nonzero(per_pair))
    active = np.searchsorted(-per_pair, -np.arange(1, int(per_pair[0]) + 1), "right").tolist()

    # each die's reads in sequence order: its first read is its head, and
    # every read's successor (n after its die's last) senses once it is moved
    at_head = die * pairs + pair
    order = np.argsort(at_head, kind="stable")
    same = at_head[order[1:]] == at_head[order[:-1]]
    successor = np.full(n, n)
    successor[order[:-1][same]] = order[1:][same]
    first = order[np.concatenate(([True], ~same))]
    # each die's head and its sense end, as (dies, pairs) matrices
    head = np.full((geometry.dies_per_channel, pairs), n)
    head.flat[at_head[first]] = first
    head_end = np.where(head < n, sense, _NEVER)
    # per read, and one more entry for a die with nothing left
    sense_start = np.zeros(n + 1, dtype=np.int64)
    xfer_start = np.zeros(n, dtype=np.int64)
    bus_free = np.zeros(pairs, dtype=np.int64)
    for k in active:
        # each pair's bus takes the least (sense end, seq) among its heads, at
        # max(bus free, that sense end)
        ends = head_end[:, :k]
        end = ends.min(axis=0)
        read = np.where(ends == end, head[:, :k], n).min(axis=0)
        xfer_start[read] = now = np.maximum(bus_free[:k], end)
        bus_free[:k] = now = now + xfer
        # the transfer's end frees the die, which senses its next read
        nxt = successor[read]
        sense_start[nxt] = now
        at = at_head[read]
        head.flat[at] = nxt
        head_end.flat[at] = np.where(nxt < n, now + sense, _NEVER)

    sense_start = sense_start[:n]
    xfer_end = xfer_start + xfer
    return PageSchedule(reads, sense_start, sense_start + sense, xfer_start, xfer_end,
                        int(xfer_end.max()))
