import math
from collections import Counter

import numpy as np
import pytest

from recssd.ev_engine import table_layout
from recssd.recmodel import ModelSpec, TableSpec
from recssd.storage import (Durations, SsdGeometry, TimingParams, page_location,
                            schedule_page_reads)

from oracles import (cycles_ns, die_timelines, flash_schedule_oracle, host_block_read,
                     page_phases_ns, translate_index)

GEO4 = SsdGeometry(channels=4, dies_per_channel=2, page_size=4096)
# one table of 16-wide vectors, two-layer MLPs of 4 * 4 and 20 * 1 MACs
SPEC = ModelSpec(tables=(TableSpec(64, 16),), bottom_mlp_dims=(4, 4), top_mlp_dims=(20, 1),
                 dense_dim=4)


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
        # 50 us and 4096 * 0.4 ns = 1638.4 ns, each rounded on the integer clock
        d = Durations.of(tp, GEO4, SPEC)
        assert (d.sense_ns, d.xfer_ns) == (50000, 1638)

    def test_sub_ns_transfer_is_refused(self):
        # the page scheduler's rounds rest on a sense and a transfer of >= 1 ns
        for tp in (TimingParams(channel_transfer_ns_per_byte=1e-9),
                   TimingParams(channel_transfer_ns_per_byte=0.9 / 4096),
                   TimingParams(page_read_us=0.9e-3)):
            with pytest.raises(ValueError, match="a sense and a transfer of >= 1 ns"):
                Durations.of(tp, GEO4, SPEC)
        assert Durations.of(TimingParams(channel_transfer_ns_per_byte=1 / 4096), GEO4,
                            SPEC).xfer_ns == 1

    def test_doubling_page_size_doubles_only_transfer(self):
        tp = TimingParams(page_read_us=50, channel_transfer_ns_per_byte=0.5)
        small = Durations.of(tp, GEO4, SPEC)
        big = Durations.of(tp, SsdGeometry(4, 2, 8192), SPEC)
        assert small.sense_ns == big.sense_ns == 50000
        assert (small.xfer_ns, big.xfer_ns) == (2048, 4096)

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
    # a 3.33 ns cycle at 300 MHz makes both conversions round; at 400 MHz an
    # odd cycle count is a tie in ns (2.5 ns a cycle), which goes to even as
    # round() does
    values = np.array([0, 1, 2, 3, 7, 1000, 123457, 2 ** 40 + 3], dtype=np.int64)
    for mhz in (200.0, 300.0, 400.0):
        d = Durations.of(TimingParams(fc_clock_mhz=mhz), GEO4, SPEC)
        for convert in (d.cycles_to_ns, d.ns_to_cycles):
            got = convert(values)
            assert got.dtype == np.int64
            assert got.tolist() == [convert(int(v)) for v in values]
    d = Durations.of(TimingParams(fc_clock_mhz=400.0), GEO4, SPEC)
    assert d.cycles_to_ns(np.array([1, 3])).tolist() == [2, 8]
    assert [d.cycles_to_ns(1), d.cycles_to_ns(3)] == [2, 8]


class TestDurations:
    def test_each_field_is_its_own_rounding_of_the_raw_fields(self):
        # raw fields whose products are not whole ns, so that every field rounds
        geo = SsdGeometry(4, 2, 2048)
        spec = ModelSpec(tables=(TableSpec(64, 12),) * 3, bottom_mlp_dims=(5, 7, 3),
                         top_mlp_dims=(39, 9, 1), dense_dim=5)
        macs = 5 * 7 + 7 * 3 + 39 * 9 + 9 * 1
        for mhz in (200.0, 300.0, 400.0):
            tp = TimingParams(page_read_us=47.3337, channel_transfer_ns_per_byte=0.3711,
                              dram_hit_ns=97.5, host_interface_ns_per_byte=0.2373,
                              fc_clock_mhz=mhz, host_block_io_overhead_us=9.87654,
                              host_ns_per_mac=0.1234)
            d = Durations.of(tp, geo, spec)
            sense, xfer = round(47.3337 * 1000.0), round(2048 * 0.3711)
            overhead = round(9.87654 * 1000.0)
            assert (d.sense_ns, d.xfer_ns, d.dram_hit_ns) == (sense, xfer, round(97.5))
            assert d.miss_ns == sense + xfer + round(12 * 4 * 0.2373) + overhead
            assert d.host_xfer_ns == round(3 * 12 * 4 * 0.2373) + overhead
            assert d.host_mlp_ns == round(macs * 0.1234)
            assert d.clock_period_ns == 1000.0 / mhz
            for kc_e in (1, 2, 4, 8):
                assert d.add_ns(kc_e) == cycles_ns(tp, -(-12 // kc_e))
            for ns in (0, 1, 2, 3, 7, 1000, 123457):
                assert d.ns_to_cycles(ns) == math.ceil(ns / (1000.0 / mhz))
                assert d.ns_to_cycles(ns + 0.4) == d.ns_to_cycles(ns)
                assert d.cycles_to_ns(ns) == cycles_ns(tp, ns)

    def test_out_of_range_values_raise_value_error(self):
        # 1e306 is over the 1 s limit on its own, and 4096 * 1e306 overflows to
        # inf, which round() would refuse with OverflowError
        for field in ("page_read_us", "channel_transfer_ns_per_byte", "dram_hit_ns",
                      "host_interface_ns_per_byte", "host_block_io_overhead_us",
                      "host_ns_per_mac"):
            for value in (1e306, 1e308):
                with pytest.raises(ValueError, match="over the limit"):
                    Durations.of(TimingParams(**{field: value}), GEO4, SPEC)
        for mhz, match in ((1e-306, "over the limit"), (1e306, "under the limit")):
            with pytest.raises(ValueError, match=match):
                Durations.of(TimingParams(fc_clock_mhz=mhz), GEO4, SPEC)
        # a 0.5 s clock period makes a 16-wide vector's one-wide add 8 s
        with pytest.raises(ValueError, match="an add on a one-wide adder takes 8e"):
            Durations.of(TimingParams(fc_clock_mhz=2e-6), GEO4, SPEC)


class TestHostBlockRead:
    tp = TimingParams()

    def test_single_page(self):
        # 50 us + round(4096 * 0.4 ns) = 51638 ns, then 4096 bytes to the host
        want = 51638 + round(4096 * 0.25) + 10_000
        assert host_block_read(GEO4, 64, 0, 4096, self.tp) == want

    def test_two_pages_distinct_channels_max_not_sum(self):
        got = host_block_read(GEO4, 64, 0, 8192, self.tp)
        # pages 0 and 1 sense in parallel on channels 0 and 1
        want = 51638 + round(8192 * 0.25) + 10_000
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
        _, makespan = flash_schedule_oracle(pages, *page_phases_ns(self.tp, GEO4))
        overhead = round(10 * 4096 * 0.25) + 10_000
        assert got == makespan + overhead
        # channel 0 serves pages 0, 4, 8: die 0 reads two pages back to back
        assert makespan == 2 * sum(page_phases_ns(self.tp, GEO4))

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


def phase_times(sched, phases, reads=slice(None)):
    """(sense start, sense end, transfer start, transfer end) of each of
    `reads`: a sense ends a sense time after it starts, and a transfer starts
    a transfer time before it ends, `phases` being the two times."""
    start, end = sched.sense_start_ns[reads].tolist(), sched.xfer_end_ns[reads].tolist()
    sense, xfer = phases
    return [(s, s + sense, e - xfer, e) for s, e in zip(start, end)]


class TestSchedulePageReads:
    # the default timing's sense and 4096-byte page transfer, in ns
    phases = (50000, 1638)

    def run_both(self, rows, geo, phases=None):
        phases = phases or self.phases
        sched = schedule_page_reads(*page_reads(rows, geo), geo, *phases)
        oracle, makespan = flash_schedule_oracle(
            [(0, 0, ch, die, k) for k, (ch, die) in enumerate(rows)], *phases)
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
            assert phase_times(sched, self.phases) == [oracle[seq] for seq in range(len(rows))]
        tied = cases[30:]
        for geo, rows in tied:
            dies = geo.channels * geo.dies_per_channel
            assert min(Counter(rows).values()) > 4 and len(set(rows)) == dies
            starts = schedule_page_reads(*page_reads(rows, geo), geo, *self.phases).sense_start_ns
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
                *page_reads([next(pending[l]) for l in label], geo, label), geo, *self.phases)
            busy = sched.channel_busy_ns
            for l, rows in enumerate(lanes):
                alone, oracle, _ = self.run_both(rows, geo)
                mine = label == l
                assert phase_times(sched, self.phases, mine) == phase_times(alone, self.phases)
                assert phase_times(sched, self.phases, mine) == \
                    [oracle[seq] for seq in range(len(rows))]
                assert busy[l].tolist() == alone.channel_busy_ns[0].tolist() \
                    == busy_union(oracle, rows, geo.channels)

        # the round structure: a pure FIFO on a 1 x 1 device, and die queues
        # of 1 to 8 reads, so that dies drop out in the middle of a run, each
        # with a sense much shorter than a transfer, much longer, and equal to
        # it, and each as two or three lanes of one call, the lanes contiguous
        # and interleaved read by read
        xfer = self.phases[1]
        rounds = [(SsdGeometry(1, 1, 4096), [(0, 0)] * 9)]
        for _ in range(12):
            geo = SsdGeometry(int(rng.integers(1, 4)), int(rng.integers(1, 4)), 4096)
            rows = [(ch, d) for ch in range(geo.channels) for d in range(geo.dies_per_channel)
                    for _ in range(int(rng.integers(1, 9)))]
            rounds.append((geo, [rows[int(i)] for i in rng.permutation(len(rows))]))
        assert {1, 8} <= {q for _, rows in rounds for q in Counter(rows).values()}
        for phases in ((100, xfer), (50000, xfer), (xfer, xfer)):
            for geo, rows in rounds:
                sched, oracle, makespan = self.run_both(rows, geo, phases)
                assert sched.xfer_end_ns.max() == makespan
                assert phase_times(sched, phases) == [oracle[seq] for seq in range(len(rows))]
                n, lanes = len(rows), 2 + len(rows) % 2
                for label in (np.arange(n) * lanes // n, np.arange(n) % lanes):
                    sched = schedule_page_reads(*page_reads(rows, geo, label), geo, *phases)
                    for l in range(lanes):
                        mine = np.flatnonzero(label == l)
                        _, oracle, _ = self.run_both([rows[k] for k in mine], geo, phases)
                        assert phase_times(sched, phases, mine) == \
                            [oracle[seq] for seq in range(len(mine))]

    def test_work_conservation(self):
        rng = np.random.default_rng(34)
        geo = SsdGeometry(2, 2, 4096)
        lane, page = page_reads([(int(rng.integers(0, 2)), int(rng.integers(0, 2)))
                                 for _ in range(40)], geo)
        sched = schedule_page_reads(lane, page, geo, *self.phases)
        for recs in die_timelines(geo, page, sched).values():
            for (_, prev_end), (nxt_start, _) in zip(recs, recs[1:]):
                assert nxt_start == prev_end

    def test_die_never_overlapped(self):
        rng = np.random.default_rng(35)
        geo = SsdGeometry(3, 2, 4096)
        lane, page = page_reads([(int(rng.integers(0, 3)), int(rng.integers(0, 2)))
                                 for _ in range(60)], geo)
        sched = schedule_page_reads(lane, page, geo, *self.phases)
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
                schedule_page_reads(np.array(lane), np.array(page), geo, *self.phases)
