from collections import Counter

import numpy as np
import pytest

from recssd.ev_engine import table_layout
from recssd.recmodel import ModelSpec, TableSpec
from recssd.storage import (SsdGeometry, TimingParams, page_location, page_read_time,
                            schedule_page_reads)

from oracles import die_timelines, flash_schedule_oracle, host_block_read, translate_index

GEO4 = SsdGeometry(channels=4, dies_per_channel=2, page_size=4096)


class TestTranslate:
    def test_lba_zero(self):
        assert page_location(GEO4, 0) == (0, 0, 0)

    def test_second_page_next_channel(self):
        page = 8 * 512 // 4096      # byte 4096 starts page 1
        assert page == 1
        assert page_location(GEO4, page) == (1, 0, 0)

    def test_page_five_wraps_to_second_die(self):
        page = 40 * 512 // 4096     # byte 20480 -> page 5: 5 mod 4 = 1, 5//4 mod 2 = 1
        assert page == 5
        channel, die, _ = page_location(GEO4, page)
        assert (channel, die) == (1, 1)

    def test_in_page_offset(self):
        # 512-byte rows, eight per page: row 3 sits 3 rows into page 0, and
        # row 11 as far into page 1, on the next channel
        spec = ModelSpec(tables=(TableSpec(64, 128),), bottom_mlp_dims=(2, 2),
                         top_mlp_dims=(130, 1), dense_dim=2)
        layout = table_layout(spec, GEO4)
        page, offset = translate_index(layout, 0, 3)
        assert (page, offset) == (0, 3 * 512)
        assert page_location(GEO4, page) == (0, 0, 0)
        page, offset = translate_index(layout, 0, 11)
        assert (page, offset) == (1, 3 * 512)
        assert page_location(GEO4, page) == (1, 0, 0)

    def test_bijection_over_provisioned_range(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            geo = SsdGeometry(int(rng.integers(1, 9)), int(rng.integers(1, 9)), 4096)
            total = int(rng.integers(1, 200))
            seen = set()
            for p in range(total):
                loc = page_location(geo, p)
                assert loc not in seen
                seen.add(loc)
                ch, die, dp = loc
                # invert the striping arithmetic
                assert dp * geo.channels * geo.dies_per_channel + die * geo.channels + ch == p

    def test_striping_uniformity(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            geo = SsdGeometry(int(rng.integers(1, 9)), int(rng.integers(1, 5)), 4096)
            dies = geo.channels * geo.dies_per_channel
            span = dies * int(rng.integers(1, 6)) + int(rng.integers(0, dies))
            counts = {}
            for p in range(span):
                ch, die, _ = page_location(geo, p)
                counts[(ch, die)] = counts.get((ch, die), 0) + 1
            for c in range(geo.channels):
                for d in range(geo.dies_per_channel):
                    assert abs(counts.get((c, d), 0) - span / dies) < 1


class TestPageReadTime:
    def test_formula(self):
        tp = TimingParams(page_read_us=50, channel_transfer_ns_per_byte=0.4)
        # 50 us + 4096 * 0.4 ns = 51638.4 ns, rounded on the integer clock
        assert page_read_time(GEO4, tp) == 51638

    def test_vanishing_transfer_leaves_sense_only(self):
        tp = TimingParams(channel_transfer_ns_per_byte=1e-9)
        assert page_read_time(GEO4, tp) == tp.sense_ns == 50000

    def test_doubling_page_size_doubles_only_transfer(self):
        tp = TimingParams(page_read_us=50, channel_transfer_ns_per_byte=0.5)
        small = page_read_time(GEO4, tp)
        big = page_read_time(SsdGeometry(4, 2, 8192), tp)
        assert small - tp.sense_ns == 2048
        assert big - tp.sense_ns == 4096

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TimingParams(page_read_us=0)
        with pytest.raises(ValueError):
            TimingParams(fc_clock_mhz=-1)
        with pytest.raises(ValueError):
            SsdGeometry(0, 1, 4096)
        with pytest.raises(ValueError, match="page_size"):
            SsdGeometry(1, 1, 0)


def test_cycle_conversions_take_int64_arrays():
    # a 3.33 ns cycle at 300 MHz makes both conversions round; at 2 GHz an odd
    # cycle count is a tie in ns, which goes to even as round() does
    values = np.array([0, 1, 2, 3, 7, 1000, 123457, 2 ** 40 + 3], dtype=np.int64)
    for mhz in (200.0, 300.0, 2000.0):
        tp = TimingParams(fc_clock_mhz=mhz)
        for convert in (tp.cycles_to_ns, tp.ns_to_cycles):
            got = convert(values)
            assert got.dtype == np.int64
            assert got.tolist() == [convert(int(v)) for v in values]
    assert TimingParams(fc_clock_mhz=2000.0).cycles_to_ns(np.array([1, 3])).tolist() == [0, 2]


class TestHostBlockRead:
    tp = TimingParams()

    def test_single_page(self):
        want = page_read_time(GEO4, self.tp) + round(4096 * 0.25) + 10_000
        assert host_block_read(GEO4, 64, 0, 4096, self.tp) == want

    def test_two_pages_distinct_channels_max_not_sum(self):
        got = host_block_read(GEO4, 64, 0, 8192, self.tp)
        # pages 0 and 1 sense in parallel on channels 0 and 1
        want = page_read_time(GEO4, self.tp) + round(8192 * 0.25) + 10_000
        assert got == want

    def test_sub_lba_read_rejected(self):
        with pytest.raises(ValueError, match="length"):
            host_block_read(GEO4, 4, 0, 0, self.tp)
        # bytes [15360, 19456) run past the four pages' 16384
        with pytest.raises(ValueError, match="range"):
            host_block_read(GEO4, 4, 30 * 512, 4096, self.tp)

    def test_ten_pages_matches_event_list_oracle(self):
        got = host_block_read(GEO4, 64, 0, 10 * 4096, self.tp)
        pages = [(0, 0, p % 4, (p // 4) % 2, p) for p in range(10)]
        _, makespan = flash_schedule_oracle(pages, self.tp.sense_ns, self.tp.xfer_ns(4096))
        overhead = round(10 * 4096 * 0.25) + 10_000
        assert got == makespan + overhead
        # channel 0 serves pages 0, 4, 8: die 0 reads two pages back to back
        assert makespan == 2 * (self.tp.sense_ns + self.tp.xfer_ns(4096))

    def test_monotone_in_every_latency_parameter(self):
        base = host_block_read(GEO4, 64, 0, 3 * 4096, self.tp)
        bumps = [
            TimingParams(page_read_us=60),
            TimingParams(channel_transfer_ns_per_byte=0.9),
            TimingParams(host_interface_ns_per_byte=0.5),
            TimingParams(host_block_io_overhead_us=15),
        ]
        for tp in bumps:
            assert host_block_read(GEO4, 64, 0, 3 * 4096, tp) >= base


def page_reads(rows, geo, lane=None):
    """(lane, page) of reads from (channel, die) rows, each read of the page
    channel + channels * die, which `page_location` places on that channel
    and die; seq is the row. Every read is in lane 0 unless `lane` labels
    them."""
    channel, die = (np.array(col, dtype=np.int64).reshape(-1) for col in zip(*rows))
    page = channel + geo.channels * die
    return np.zeros(len(page), np.int64) if lane is None else lane, page


def busy_union(oracle, rows, channels):
    """Per channel, the length of the union of its reads' die-busy intervals
    (sense start to transfer end) in the oracle's schedule."""
    busy = []
    for ch in range(channels):
        covered = reach = 0
        for start, end in sorted((oracle[k][0], oracle[k][3])
                                 for k, (c, _) in enumerate(rows) if c == ch):
            covered += max(0, end - max(start, reach))
            reach = max(reach, end)
        busy.append(covered)
    return busy


def phase_times(sched, geo, tp, reads=slice(None)):
    """(sense start, sense end, transfer start, transfer end) of each of
    `reads`: a sense ends a sense time after it starts, and a transfer starts
    a transfer time before it ends."""
    start, end = sched.sense_start_ns[reads].tolist(), sched.xfer_end_ns[reads].tolist()
    sense, xfer = tp.sense_ns, tp.xfer_ns(geo.page_size)
    return [(s, s + sense, e - xfer, e) for s, e in zip(start, end)]


class TestSchedulePageReads:
    tp = TimingParams()

    def run_both(self, rows, geo, tp=None):
        tp = tp or self.tp
        sched = schedule_page_reads(*page_reads(rows, geo), geo, tp)
        oracle, makespan = flash_schedule_oracle(
            [(0, 0, ch, die, k) for k, (ch, die) in enumerate(rows)],
            tp.sense_ns, tp.xfer_ns(geo.page_size))
        return sched, oracle, makespan

    def test_matches_oracle_on_random_traffic(self):
        rng = np.random.default_rng(33)
        cases = []
        for _ in range(30):
            geo = SsdGeometry(int(rng.integers(1, 5)), int(rng.integers(1, 4)), 4096)
            n = int(rng.integers(1, 25))
            cases.append((geo, [(int(rng.integers(0, geo.channels)),
                                 int(rng.integers(0, geo.dies_per_channel)))
                                for _ in range(n)]))
        # tie-heavy traffic: more than four pages on every die, so every die
        # senses at 0 and the bus's seq tie-break decides among equal sense ends
        for _ in range(30):
            geo = SsdGeometry(int(rng.integers(1, 3)), int(rng.integers(1, 3)), 4096)
            every = [(ch, d) for ch in range(geo.channels) for d in range(geo.dies_per_channel)]
            rows = every * 5 + [every[int(i)] for i in
                                rng.integers(0, len(every), int(rng.integers(0, len(every) + 1)))]
            cases.append((geo, [rows[int(i)] for i in rng.permutation(len(rows))]))
        for geo, rows in cases:
            sched, oracle, makespan = self.run_both(rows, geo)
            assert sched.xfer_end_ns.max() == makespan
            assert phase_times(sched, geo, self.tp) == [oracle[seq] for seq in range(len(rows))]
        tied = cases[30:]
        for geo, rows in tied:
            dies = geo.channels * geo.dies_per_channel
            assert min(Counter(rows).values()) > 4 and len(set(rows)) == dies
            starts = schedule_page_reads(*page_reads(rows, geo), geo, self.tp).sense_start_ns
            assert {rows[k] for k in np.flatnonzero(starts == 0)} == set(rows)

        # the cases of one geometry as the lanes of one call, their reads
        # interleaved: each lane is scheduled as if alone on an idle device
        by_geo = {}
        for geo, rows in cases:
            by_geo.setdefault(geo, []).append(rows)
        multi = [lanes for lanes in by_geo.values() if len(lanes) > 1]
        assert len(multi) >= 5 and max(map(len, multi)) >= 4
        for geo, lanes in by_geo.items():
            label = rng.permutation(np.repeat(np.arange(len(lanes)), list(map(len, lanes))))
            pending = [iter(rows) for rows in lanes]
            sched = schedule_page_reads(
                *page_reads([next(pending[l]) for l in label], geo, label), geo, self.tp)
            busy = sched.channel_busy_ns
            for l, rows in enumerate(lanes):
                alone, oracle, _ = self.run_both(rows, geo)
                mine = label == l
                assert phase_times(sched, geo, self.tp, mine) == \
                    phase_times(alone, geo, self.tp)
                assert phase_times(sched, geo, self.tp, mine) == \
                    [oracle[seq] for seq in range(len(rows))]
                assert busy[l].tolist() == alone.channel_busy_ns[0].tolist() \
                    == busy_union(oracle, rows, geo.channels)

        # the round structure: a pure FIFO on a 1 x 1 device, and die queues
        # of 1 to 8 reads, so that dies drop out in the middle of a run, each
        # with a sense much shorter than a transfer, much longer, and equal to
        # it, and each as two or three lanes of one call, the lanes contiguous
        # and interleaved read by read
        xfer = self.tp.xfer_ns(4096)
        rounds = [(SsdGeometry(1, 1, 4096), [(0, 0)] * 9)]
        for _ in range(12):
            geo = SsdGeometry(int(rng.integers(1, 4)), int(rng.integers(1, 4)), 4096)
            rows = [(ch, d) for ch in range(geo.channels) for d in range(geo.dies_per_channel)
                    for _ in range(int(rng.integers(1, 9)))]
            rounds.append((geo, [rows[int(i)] for i in rng.permutation(len(rows))]))
        assert {1, 8} <= {q for _, rows in rounds for q in Counter(rows).values()}
        timings = [TimingParams(page_read_us=us) for us in (0.1, 50.0, xfer / 1000)]
        assert [tp.sense_ns for tp in timings] == [100, 50000, xfer] and xfer == 1638
        for tp in timings:
            for geo, rows in rounds:
                sched, oracle, makespan = self.run_both(rows, geo, tp)
                assert sched.xfer_end_ns.max() == makespan
                assert phase_times(sched, geo, tp) == [oracle[seq] for seq in range(len(rows))]
                n, lanes = len(rows), 2 + len(rows) % 2
                for label in (np.arange(n) * lanes // n, np.arange(n) % lanes):
                    sched = schedule_page_reads(*page_reads(rows, geo, label), geo, tp)
                    for l in range(lanes):
                        mine = np.flatnonzero(label == l)
                        _, oracle, _ = self.run_both([rows[k] for k in mine], geo, tp)
                        assert phase_times(sched, geo, tp, mine) == \
                            [oracle[seq] for seq in range(len(mine))]

    def test_work_conservation(self):
        rng = np.random.default_rng(34)
        geo = SsdGeometry(2, 2, 4096)
        lane, page = page_reads([(int(rng.integers(0, 2)), int(rng.integers(0, 2)))
                                 for _ in range(40)], geo)
        sched = schedule_page_reads(lane, page, geo, self.tp)
        for recs in die_timelines(geo, page, sched).values():
            for (_, prev_end), (nxt_start, _) in zip(recs, recs[1:]):
                assert nxt_start == prev_end

    def test_die_never_overlapped(self):
        rng = np.random.default_rng(35)
        geo = SsdGeometry(3, 2, 4096)
        lane, page = page_reads([(int(rng.integers(0, 3)), int(rng.integers(0, 2)))
                                 for _ in range(60)], geo)
        sched = schedule_page_reads(lane, page, geo, self.tp)
        for recs in die_timelines(geo, page, sched).values():
            for (_, prev_end), (nxt_start, _) in zip(recs, recs[1:]):
                assert nxt_start >= prev_end

    def test_negative_lane_or_page_rejected(self):
        # any page at or above 0 has a channel and a die; a read with a
        # negative lane or page has neither, and the error names the read
        geo = SsdGeometry(2, 2, 4096)
        for lane, page, match in (([0, 1, -1], [0, 5, 2], "read 2: lane -1, page 2"),
                                  ([0, 0, 0], [3, -4, 1], "read 1: lane 0, page -4")):
            with pytest.raises(ValueError, match=match):
                schedule_page_reads(np.array(lane), np.array(page), geo, self.tp)
