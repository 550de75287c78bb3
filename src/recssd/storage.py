"""SSD geometry, timing, the flash translation layer, and page-read scheduling.

Timing model (all durations are integer nanoseconds):

* a page read is a sense phase (occupies its die) followed by a transfer
  phase (occupies the channel bus); the die stays busy until its page has
  been transferred, so there is one outstanding read per die;
* dies on a channel sense concurrently, transfers on a channel serialize;
* embedding reads outrank queued block I/O at both the die and the bus,
  non-preemptively; ties resolve by arrival then sequence number.

A lane is a device of its own, idle at time 0, and its channels share
nothing. So `schedule_page_reads` runs every active (lane, channel) pair in
one lockstep loop, one transfer per pair and step, until the busiest pair
has moved all its reads:

* the pair's bus takes, at max(bus free, earliest sense end among its dies'
  current reads), the least (priority, sense end, seq) among the reads
  sensed by then;
* the transfer's end frees the bus and the die, which takes its next read at
  max(die free, earliest pending arrival): the least (priority, ready, seq)
  among the reads arrived by then, a masked minimum over the die's pending
  reads in padded key matrices.

The loop is the event-driven rule exactly when a sense and a page transfer
each last at least 1 ns, so that no phase ends at the instant it starts;
scenarios with shorter phases are rejected as configuration errors.
"""

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Ftl:
    """Static round-robin FTL: physical page p of the provisioned range lands
    on channel p mod C, die (p div C) mod D. Read-only workload, no GC."""

    geometry: SsdGeometry
    total_pages: int

    def __post_init__(self):
        if self.total_pages < 1:
            raise ValueError("total_pages must be >= 1")

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


def page_read_time(geometry: SsdGeometry, timing: TimingParams) -> int:
    """Sense plus channel transfer for one page, in ns."""
    return timing.sense_ns + timing.xfer_ns(geometry.page_size)


@dataclass(frozen=True)
class PageReads:
    """Page reads as columns; a read's position is its sequence number. Each
    lane is a device of its own, idle at time 0; ready times are relative to
    that start."""
    channel: np.ndarray
    die: np.ndarray
    ready_ns: np.ndarray
    priority: np.ndarray    # EV_PRIORITY or BLOCK_PRIORITY
    lane: np.ndarray | None = None      # lanes numbered from 0; None: one lane

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

    def channel_busy_ns(self, channels: int, lanes: int = 1) -> np.ndarray:
        """Union of each (lane, channel)'s die-busy intervals (sense start to
        transfer end), as a (lanes, channels) matrix."""
        reads = self.reads
        if len(reads) == 0:
            return np.zeros((lanes, channels), dtype=np.int64)
        lane = 0 if reads.lane is None else reads.lane
        group = np.asarray(lane * channels + reads.channel, dtype=np.int64)
        # shift each group onto its own stretch of the time line, then take
        # the part of every interval not covered by the ones starting before it
        shift = group * (self.makespan_ns + 1)
        start = self.sense_start_ns + shift
        order = np.argsort(start, kind="stable")
        start, end = start[order], (self.xfer_end_ns + shift)[order]
        covered = np.maximum.accumulate(np.concatenate(([0], end[:-1])))
        fresh = np.maximum(end - np.maximum(start, covered), 0)
        return np.bincount(group[order], weights=fresh, minlength=lanes * channels) \
            .astype(np.int64).reshape(lanes, channels)


# a time no schedule reaches: the sense end of a die with no reads left
_NEVER = 1 << 62


def _pending_reads(slot: np.ndarray, ready: np.ndarray, rank: np.ndarray, ranks: int,
                   slots: int, span: int):
    """Each die slot's reads as one column of padded (width, slots) matrices,
    rows in (ready, seq) order: their ready times, their (key, late key)
    pairs and their positions (len(slot) for padding).

    A read's key is rank * width + row, so the least key among the arrived
    reads is the least (priority, ready, seq). Its late key adds (1 + the row
    of the die's first read ready as early) * ranks * width, so with nothing
    arrived the least late key is the least key among the earliest arrivals.
    Both keys keep the row in their remainder."""
    n = len(slot)
    order = np.lexsort((ready, slot))
    per_slot = np.bincount(slot, minlength=slots)
    width = int(per_slot.max())
    if ranks * max(span, (width + 2) * width) >= _NEVER // 2:
        raise ValueError(f"page reads over {span} ns at {ranks} priority levels exceed "
                         f"the schedulable range")
    row = np.arange(n) - np.repeat(np.cumsum(per_slot) - per_slot, per_slot)
    slot, ready = slot[order], ready[order]
    first = np.ones(n, dtype=bool)
    first[1:] = (slot[1:] != slot[:-1]) | (ready[1:] != ready[:-1])
    early = row[np.maximum.accumulate(np.where(first, np.arange(n), 0))]
    key = rank[order] * width + row
    at = row * slots + slot
    ready_at = np.full((width, slots), _NEVER, dtype=np.int64)
    ready_at.flat[at] = ready
    keys_at = np.full((2, width, slots), _NEVER, dtype=np.int64)
    keys_at.reshape(2, -1)[0, at] = key
    keys_at.reshape(2, -1)[1, at] = key + (1 + early) * ranks * width
    read_at = np.full(width * slots, n, dtype=np.int64)
    read_at[at] = order
    return width, ready_at, keys_at, read_at


def schedule_page_reads(reads: PageReads, geometry: SsdGeometry,
                        timing: TimingParams) -> PageSchedule:
    """Schedule page reads with the lockstep loop of the module docstring.
    Die and bus are both work-conserving."""
    sense = timing.sense_ns
    xfer = timing.xfer_ns(geometry.page_size)
    n = len(reads)
    channel = np.asarray(reads.channel, dtype=np.int64)
    die = np.asarray(reads.die, dtype=np.int64)
    lane = np.zeros(n, dtype=np.int64) if reads.lane is None \
        else np.asarray(reads.lane, dtype=np.int64)
    ready = np.asarray(reads.ready_ns, dtype=np.int64)
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
    dies = geometry.dies_per_channel
    pair = lane * geometry.channels + channel
    per_pair = np.bincount(pair)
    busiest = np.argsort(-per_pair, kind="stable")
    renumber = np.empty_like(busiest)
    renumber[busiest] = np.arange(len(busiest))
    pair = renumber[pair]
    per_pair = per_pair[busiest]
    pairs = int(np.count_nonzero(per_pair))
    active = np.searchsorted(-per_pair, -np.arange(1, int(per_pair[0]) + 1), "right").tolist()

    rank = np.asarray(reads.priority, dtype=np.int64)
    rank = rank - rank.min()
    ranks = int(rank.max()) + 1
    # every sense end lies below `span`, so rank * span + sense end orders the
    # bus by (priority, sense end)
    span = max(int(ready.max()), 0) + int(per_pair[0]) * (sense + xfer) + 1
    slots = pairs * dies
    width, ready_at, keys_at, read_at = _pending_reads(pair * dies + die, ready, rank, ranks,
                                                       slots, span)
    keys_flat = keys_at.reshape(2, -1)
    # per read, and one more entry for a die with nothing left
    ready_of = np.append(ready, _NEVER)
    bus_rank = np.append(rank * span, 0)
    sense_start = np.zeros(n + 1, dtype=np.int64)
    xfer_start = np.zeros(n, dtype=np.int64)

    def start(at_slots, free_ns, key, late, ready):
        """Each die of `at_slots`, whose pending columns are `key`, `late` and
        `ready`, takes its next read once free: at max(free, earliest pending
        arrival), the least key arrived by then. Returns the reads (n for a
        die with none left) and their sense ends."""
        key = np.where(ready <= free_ns, key, late)
        taken = key.min(axis=0) % width * slots + at_slots
        read = read_at[taken]
        keys_flat[:, taken] = _NEVER
        read_at[taken] = n
        t = np.maximum(free_ns, ready_of[read])
        sense_start[read] = t
        return read, t + sense

    # each die's current read (head), its sense end and bus key, as
    # (dies, pairs) matrices
    head, head_end = (v.reshape(pairs, dies).T.copy()
                      for v in start(np.arange(slots), 0, *keys_at, ready_at))
    head_key = bus_rank[head] + head_end
    flat = head.reshape(-1), head_end.reshape(-1), head_key.reshape(-1)
    bus_free = np.zeros(pairs, dtype=np.int64)
    first_die = np.arange(pairs) * dies
    for k in active:
        # each pair's bus takes the least (priority, sense end, seq) among its
        # heads sensed by max(bus free, earliest sense end)
        ends = head_end[:, :k]
        now = np.maximum(bus_free[:k], ends.min(axis=0))
        key = np.where(ends <= now, head_key[:, :k], _NEVER)
        read = np.where(key == key.min(axis=0), head[:, :k], n).min(axis=0)
        xfer_start[read] = now
        bus_free[:k] = now = now + xfer
        # the transfer's end frees the die, which starts its next read
        d = die[read]
        at_slots = first_die[:k] + d
        nxt, end = start(at_slots, now, *keys_at.take(at_slots, axis=2),
                         ready_at.take(at_slots, axis=1))
        at_head = d * pairs + np.arange(k)
        flat[0][at_head], flat[1][at_head], flat[2][at_head] = nxt, end, bus_rank[nxt] + end

    sense_start = sense_start[:n]
    xfer_end = xfer_start + xfer
    return PageSchedule(reads, sense_start, sense_start + sense, xfer_start, xfer_end,
                        int(xfer_end.max()))
