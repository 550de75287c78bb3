from collections import Counter

import numpy as np
import pytest

from recssd.storage import (BLOCK_PRIORITY, EV_PRIORITY, Ftl, PageReads, SsdGeometry,
                            TimingParams, host_block_read, page_read_time,
                            schedule_page_reads)

from oracles import die_timelines, flash_schedule_oracle

GEO4 = SsdGeometry(channels=4, dies_per_channel=2, page_size=4096, lba_size=512)


class TestTranslate:
    def test_lba_zero(self):
        ftl = Ftl(GEO4, total_pages=64)
        assert ftl.translate(0) == (0, 0, 0, 0)

    def test_second_page_next_channel(self):
        ftl = Ftl(GEO4, total_pages=64)
        loc = ftl.translate(8)
        assert (loc.channel, loc.die) == (1, 0)
        assert loc.offset == 0

    def test_page_five_wraps_to_second_die(self):
        ftl = Ftl(GEO4, total_pages=64)
        loc = ftl.translate(40)   # byte 20480 -> page 5: 5 mod 4 = 1, 5//4 mod 2 = 1
        assert (loc.channel, loc.die) == (1, 1)

    def test_in_page_offset(self):
        ftl = Ftl(GEO4, total_pages=64)
        assert ftl.translate(3).offset == 3 * 512

    def test_out_of_range(self):
        ftl = Ftl(GEO4, total_pages=2)
        with pytest.raises(ValueError, match="lba"):
            ftl.translate(16)
        with pytest.raises(ValueError, match="lba"):
            ftl.translate(-1)

    def test_bijection_over_provisioned_range(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            geo = SsdGeometry(int(rng.integers(1, 9)), int(rng.integers(1, 9)), 4096)
            total = int(rng.integers(1, 200))
            ftl = Ftl(geo, total)
            seen = set()
            for p in range(total):
                loc = ftl.page_location(p)
                assert loc not in seen
                seen.add(loc)
                ch, die, dp = loc
                # invert the striping arithmetic
                assert dp * geo.channels * geo.dies_per_channel + die * geo.channels + ch == p

    def test_striping_uniformity(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            geo = SsdGeometry(int(rng.integers(1, 9)), int(rng.integers(1, 5)), 4096)
            span = geo.total_dies * int(rng.integers(1, 6)) + int(rng.integers(0, geo.total_dies))
            ftl = Ftl(geo, span)
            counts = {}
            for p in range(span):
                ch, die, _ = ftl.page_location(p)
                counts[(ch, die)] = counts.get((ch, die), 0) + 1
            for c in range(geo.channels):
                for d in range(geo.dies_per_channel):
                    assert abs(counts.get((c, d), 0) - span / geo.total_dies) < 1


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
        with pytest.raises(ValueError, match="multiple"):
            SsdGeometry(1, 1, 1000, lba_size=512)


class TestHostBlockRead:
    tp = TimingParams()

    def test_single_page(self):
        ftl = Ftl(GEO4, total_pages=64)
        want = page_read_time(GEO4, self.tp) + round(4096 * 0.25) + 10_000
        assert host_block_read(ftl, 0, 4096, self.tp) == want

    def test_two_pages_distinct_channels_max_not_sum(self):
        ftl = Ftl(GEO4, total_pages=64)
        got = host_block_read(ftl, 0, 8192, self.tp)
        # pages 0 and 1 sense in parallel on channels 0 and 1
        want = page_read_time(GEO4, self.tp) + round(8192 * 0.25) + 10_000
        assert got == want

    def test_sub_lba_read_rejected(self):
        ftl = Ftl(GEO4, total_pages=4)
        with pytest.raises(ValueError, match="length"):
            host_block_read(ftl, 0, 0, self.tp)
        with pytest.raises(ValueError, match="range"):
            host_block_read(ftl, 30, 4096, self.tp)

    def test_ten_pages_matches_event_list_oracle(self):
        ftl = Ftl(GEO4, total_pages=64)
        got = host_block_read(ftl, 0, 10 * 4096, self.tp)
        pages = [(0, BLOCK_PRIORITY, p % 4, (p // 4) % 2, p) for p in range(10)]
        _, makespan = flash_schedule_oracle(pages, self.tp.sense_ns, self.tp.xfer_ns(4096))
        overhead = round(10 * 4096 * 0.25) + 10_000
        assert got == makespan + overhead
        # channel 0 serves pages 0, 4, 8: die 0 reads two pages back to back
        assert makespan == 2 * (self.tp.sense_ns + self.tp.xfer_ns(4096))

    def test_monotone_in_every_latency_parameter(self):
        ftl = Ftl(GEO4, total_pages=64)
        base = host_block_read(ftl, 0, 3 * 4096, self.tp)
        bumps = [
            TimingParams(page_read_us=60),
            TimingParams(channel_transfer_ns_per_byte=0.9),
            TimingParams(host_interface_ns_per_byte=0.5),
            TimingParams(host_block_io_overhead_us=15),
        ]
        for tp in bumps:
            assert host_block_read(ftl, 0, 3 * 4096, tp) >= base


def page_reads(rows):
    """PageReads from (ready, priority, channel, die) rows; seq is the row."""
    ready, priority, channel, die = (np.array(col, dtype=np.int64).reshape(-1)
                                     for col in zip(*rows))
    return PageReads(channel, die, ready, priority)


class TestSchedulePageReads:
    tp = TimingParams()

    def run_both(self, reads, geo):
        sched = schedule_page_reads(reads, geo, self.tp)
        oracle, makespan = flash_schedule_oracle(
            [(int(reads.ready_ns[k]), int(reads.priority[k]), int(reads.channel[k]),
              int(reads.die[k]), k) for k in range(len(reads))],
            self.tp.sense_ns, self.tp.xfer_ns(geo.page_size))
        return sched, oracle, makespan

    def test_matches_oracle_on_random_traffic(self):
        rng = np.random.default_rng(33)
        sense, xfer = self.tp.sense_ns, self.tp.xfer_ns(4096)
        cases = []
        for _ in range(30):
            geo = SsdGeometry(int(rng.integers(1, 5)), int(rng.integers(1, 4)), 4096)
            n = int(rng.integers(1, 25))
            cases.append((geo, [(int(rng.integers(0, 200_000)), int(rng.integers(0, 2)),
                                 int(rng.integers(0, geo.channels)),
                                 int(rng.integers(0, geo.dies_per_channel)))
                                for _ in range(n)]))
        # tie-heavy traffic: ready times where phases end, more than four
        # pages per die, and both priorities queued on one die
        for _ in range(30):
            geo = SsdGeometry(int(rng.integers(1, 3)), int(rng.integers(1, 3)), 4096)
            n = int(rng.integers(5, 7)) * geo.total_dies
            cases.append((geo, [(int(rng.choice([0, sense, sense + xfer])),
                                 int(rng.integers(0, 2)),
                                 int(rng.integers(0, geo.channels)),
                                 int(rng.integers(0, geo.dies_per_channel)))
                                for _ in range(n)]))
        for geo, rows in cases:
            sched, oracle, makespan = self.run_both(page_reads(rows), geo)
            assert sched.makespan_ns == makespan
            for seq in range(len(rows)):
                assert (sched.sense_start_ns[seq], sched.sense_end_ns[seq],
                        sched.xfer_start_ns[seq], sched.xfer_end_ns[seq]) == oracle[seq]
        tied = cases[30:]
        assert all(max(Counter((ch, d) for _, _, ch, d in rows).values()) > 4
                   for _, rows in tied)
        assert any(len({p for _, p, ch, d in rows if (ch, d) == (0, 0)}) == 2
                   for _, rows in tied)

    def test_work_conservation(self):
        rng = np.random.default_rng(34)
        geo = SsdGeometry(2, 2, 4096)
        reads = page_reads([(0, EV_PRIORITY, int(rng.integers(0, 2)), int(rng.integers(0, 2)))
                            for _ in range(40)])
        sched = schedule_page_reads(reads, geo, self.tp)
        for recs in die_timelines(sched).values():
            for (_, prev_end), (nxt_start, _) in zip(recs, recs[1:]):
                assert nxt_start == prev_end

    def test_die_never_overlapped(self):
        rng = np.random.default_rng(35)
        geo = SsdGeometry(3, 2, 4096)
        reads = page_reads([(int(rng.integers(0, 300_000)), int(rng.integers(0, 2)),
                             int(rng.integers(0, 3)), int(rng.integers(0, 2)))
                            for _ in range(60)])
        sched = schedule_page_reads(reads, geo, self.tp)
        for recs in die_timelines(sched).values():
            for (_, prev_end), (nxt_start, _) in zip(recs, recs[1:]):
                assert nxt_start >= prev_end
