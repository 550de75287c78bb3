"""SSD geometry, timing and integer durations, page placement, and page-read scheduling.

Placement is static round-robin striping: physical page p lies on channel
p mod C, die (p div C) mod D, for C channels of D dies (`page_location`).
The workload is read-only, so nothing moves and there is no garbage
collection. A read names its lane and its page, and the scheduler places the
page itself. Timing model (each duration is integer ns, rounded once from the
`TimingParams` into a scenario's `Durations`, which also checks its limits):

* a page read is a sense phase (occupies its die) followed by a transfer
  phase (occupies the channel bus); the die stays busy until its page has
  been transferred, so there is one outstanding read per die;
* dies on a channel sense concurrently, transfers on a channel serialize,
  and a free bus takes the least (sense end, seq) among its sensed reads;
* every read is ready when its lane starts, and a die takes its reads in
  sequence (request) order.

A lane is a device of its own, idle at time 0, and its channels share
nothing. Each (lane, channel) bus serves its dies in rounds: round k holds
each die's k-th read, in the order of the dies' first reads, and a die with
no k-th read drops out. Three facts make it so: all first reads finish
sensing together, so seq decides round one; a die's next read finishes
sensing at its last transfer's end plus the sense time; and transfers on one
bus end at distinct times, as a sense and a page transfer each last at least
1 ns (scenarios with shorter phases are rejected as configuration errors), so
no later tie occurs and no round overtakes the one before it. So the round
order is the event-driven rule's, and the test oracle's order of events.
`schedule_page_reads` places each read's page, sorts the reads into that
order and steps all pairs through it together, each transfer ending at
max(bus free, end of its die's previous transfer + sense) + transfer.
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


# Longest modelled duration of one operation. A run is a bounded number of
# operations, so with this cap every time stays far inside int64 nanoseconds.
MAX_OPERATION_NS = 1_000_000_000
# Shortest engine clock period, so that no cycle count exceeds its nanoseconds.
MIN_CLOCK_PERIOD_NS = 1.0


@dataclass(frozen=True)
class Durations:
    """A scenario's times in integer ns, each rounded once from its timing,
    geometry and model spec (`of`), and the engine clock's ns <-> cycles."""
    sense_ns: int               # a page sense
    xfer_ns: int                # a page over the channel bus
    dram_hit_ns: int            # ssd-baseline: a DRAM-resident lookup
    # ssd-baseline: one page read (no row straddles a page), a vector to the host, I/O overhead
    miss_ns: int
    host_xfer_ns: int           # emb-vectorsum: a query's summed vectors to the host, overhead
    host_mlp_ns: int            # a query's bottom and top MLP pass on the host
    clock_period_ns: float      # the FC engine's
    ev_dim: int                 # the cycles of one add on a one-wide adder

    @classmethod
    def of(cls, timing: TimingParams, geometry: SsdGeometry, spec) -> "Durations":
        """Check each time against the limits before rounding it: at most
        `MAX_OPERATION_NS` each (so an overflow to inf is refused, not
        rounded), a clock period of at least `MIN_CLOCK_PERIOD_NS`, and a sense
        and a page transfer of at least 1 ns each, the page scheduler's premise."""
        t = timing
        sense, xfer = t.page_read_us * 1000.0, geometry.page_size * t.channel_transfer_ns_per_byte
        overhead = t.host_block_io_overhead_us * 1000.0
        vector, summed = (n * 4 * t.host_interface_ns_per_byte
                          for n in (spec.ev_dim, spec.emb_out_width))
        macs = sum(dims[l] * dims[l + 1] for dims in (spec.bottom_mlp_dims, spec.top_mlp_dims)
                   for l in range(len(dims) - 1))
        host_mlp, period = macs * t.host_ns_per_mac, 1000.0 / t.fc_clock_mhz
        for name, ns in (("a page sense", sense), ("a page transfer", xfer),
                         ("a DRAM hit", t.dram_hit_ns), ("the host I/O overhead", overhead),
                         ("a vector over the host interface", vector),
                         ("a query's summed vectors over the host interface", summed),
                         ("a query's host MLP pass", host_mlp), ("an engine clock period", period),
                         ("an add on a one-wide adder", spec.ev_dim * period)):
            if not ns <= MAX_OPERATION_NS:
                raise ValueError(f"{name} takes {ns:g} ns, over the limit of "
                                 f"{MAX_OPERATION_NS} ns (1 s)")
        if period < MIN_CLOCK_PERIOD_NS:
            raise ValueError(f"the engine clock period is {period:g} ns, under "
                             f"the limit of {MIN_CLOCK_PERIOD_NS:g} ns (fc_clock_mhz <= 1000)")
        if sense < 1 or xfer < 1:
            raise ValueError(f"a page read needs a sense and a transfer of >= 1 ns, "
                             f"got {sense:g} ns and {xfer:g} ns")
        sense, xfer, overhead = round(sense), round(xfer), round(overhead)
        return cls(sense, xfer, round(t.dram_hit_ns), sense + xfer + round(vector) + overhead,
                   round(summed) + overhead, round(host_mlp), period, spec.ev_dim)

    def cycles_to_ns(self, cycles):
        """Engine cycles, an int or an int64 array, to the nearest ns (halves
        to even)."""
        if isinstance(cycles, np.ndarray):
            return np.rint(cycles * self.clock_period_ns).astype(np.int64)
        return round(cycles * self.clock_period_ns)

    def ns_to_cycles(self, ns):
        """The engine cycles, rounded up, that span `ns`, an int64 array, or an
        int or a float, which is first rounded to the nearest ns."""
        if isinstance(ns, np.ndarray):
            return np.ceil(ns / self.clock_period_ns).astype(np.int64)
        return math.ceil(round(ns) / self.clock_period_ns)

    def add_ns(self, kc_e: int) -> int:
        """One add of a vector on a kc_e-wide adder: ceil(ev_dim / kc_e) cycles."""
        return self.cycles_to_ns(-(-self.ev_dim // kc_e))


def page_location(geometry: SsdGeometry, page):
    """(channel, die, page within the die) of a physical page index, or of
    each element of an integer array of them."""
    channels, dies = geometry.channels, geometry.dies_per_channel
    return page % channels, (page // channels) % dies, page // (channels * dies)


@dataclass(frozen=True)
class PageSchedule:
    """Each read's sense start and transfer end, in the order of the scheduled
    reads and relative to the start of the read's lane, and each (lane,
    channel)'s busy time. Every die senses its first read at its lane's start
    and each next one when the previous transfer ends, so the union of a
    pair's die-busy intervals (sense start to transfer end) is [0, the pair's
    last transfer end]."""
    sense_start_ns: np.ndarray
    xfer_end_ns: np.ndarray
    channel_busy_ns: np.ndarray         # (highest lane + 1, channels)


def _narrow(*keys: np.ndarray) -> np.ndarray:
    """The keys, non-negative integer arrays, as rows of the narrowest unsigned
    type that holds them: numpy sorts 8- and 16-bit keys stably by radix."""
    top = max(int(key.max(initial=0)) for key in keys)
    return np.array(keys, dtype=np.min_scalar_type(top))


def schedule_page_reads(lane, page, geometry: SsdGeometry, sense: int,
                        xfer: int) -> PageSchedule:
    """Schedule the reads of `page`, read k in lane `lane[k]` (lanes numbered
    from 0), each on its page's channel and die (`page_location`), in the
    rounds of the module docstring: each (lane, channel) bus serves round k,
    its dies' k-th reads, in the order of the dies' first reads, as first
    reads finish sensing together, a die's next read finishes sensing a sense
    time after its last transfer, and transfer ends on a bus are distinct. A
    read's position is its sequence number. Die and bus are both
    work-conserving. A sense takes `sense` ns and a page transfer `xfer` ns,
    each at least 1 ns."""
    lane = np.asarray(lane, dtype=np.int64)
    page = np.asarray(page, dtype=np.int64)
    n = len(page)
    negative = (lane < 0) | (page < 0)
    if negative.any():
        k = int(np.argmax(negative))
        raise ValueError(f"read {k}: lane {lane[k]}, page {page[k]} is negative")
    channel, die, _ = page_location(geometry, page)

    # each die's queue, its reads in seq order (lexsort is stable): a read's
    # round is its place in the queue; pairs are numbered densely
    by_die = np.lexsort(_narrow(die, channel, lane))
    lane, channel, die = lane[by_die], channel[by_die], die[by_die]
    new_pair = np.ones(n, dtype=bool)
    new_pair[1:] = (lane[1:] != lane[:-1]) | (channel[1:] != channel[:-1])
    new_die = new_pair.copy()
    new_die[1:] |= die[1:] != die[:-1]
    at = np.arange(n)
    queue_start = np.maximum.accumulate(np.where(new_die, at, 0))
    pair = np.cumsum(new_pair) - 1
    per_pair = np.bincount(pair)
    pairs = len(per_pair)
    # each pair's bus order, by (round, die's first seq), and each read's step,
    # its place in that order; pair_start + round orders (pair, round), since
    # a pair has fewer rounds than reads
    pair_start = (np.cumsum(per_pair) - per_pair)[pair]
    bus = np.lexsort(_narrow(by_die[queue_start], pair_start + at - queue_start))
    step = at - pair_start
    # one slot per read, step by step, each step's pairs busiest first, so
    # that the pairs moving a read at step s are the first active[s] of step
    # s - 1's. The first `pairs` slots stay 0: the bus before step 0 and the
    # transfer before a die's first read.
    rank = np.argsort(np.argsort(-per_pair, kind="stable"))
    active = np.bincount(step)
    first = pairs + np.cumsum(active) - active
    slot = np.empty(n, dtype=np.int64)
    slot[bus] = first[step] + rank[pair]
    die_before = np.zeros(pairs + n, dtype=np.int64)
    die_before[slot] = np.where(new_die, 0, slot[at - 1])
    end = np.zeros(pairs + n, dtype=np.int64)
    for before, a, k in zip([0, *first.tolist()], first.tolist(), active.tolist()):
        end[a:a + k] = np.maximum(end[before:before + k], end[die_before[a:a + k]] + sense) + xfer

    sense_start, xfer_end = np.empty((2, n), dtype=np.int64)
    sense_start[by_die] = end[die_before[slot]]
    xfer_end[by_die] = done = end[slot]
    # a pair's reads are contiguous in queue order
    busy = np.zeros((int(lane.max(initial=-1)) + 1, geometry.channels), dtype=np.int64)
    pair_first = np.flatnonzero(new_pair)
    busy[lane[pair_first], channel[pair_first]] = np.maximum.reduceat(done, pair_first)
    return PageSchedule(sense_start, xfer_end, busy)
