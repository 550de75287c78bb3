"""Independent straight-line oracles, and two test helpers.

The oracles reimplement the documented timing and arithmetic rules with
plain Python loops, staying off the package's compute/scheduling code paths,
so tests compare two separately written realizations of the same rules. The
helpers in the last section are built on the package's own code: they give
tests a one-row translation and a host block read, which no scenario needs.
"""

import math

import numpy as np

from recssd.ev_engine import _locate
from recssd.storage import BLOCK_PRIORITY, PageReads, schedule_page_reads

F32 = np.float32


# ---------------------------------------------------------------------------
# Scalar FP32 arithmetic oracles.

def fold_sum_rows(values: np.ndarray, indices) -> np.ndarray:
    """Fold-left row sum in FP32, one scalar add at a time."""
    acc = [F32(values[indices[0]][j]) for j in range(values.shape[1])]
    for i in indices[1:]:
        for j in range(values.shape[1]):
            acc[j] = F32(acc[j] + F32(values[i][j]))
    return np.array(acc, dtype=np.float32)


def scalar_mlp(layer_dims, weights, biases, x) -> np.ndarray:
    """Triple-loop dense forward: products accumulated in ascending input
    order, bias after the sum, ReLU on hidden layers."""
    cur = [F32(v) for v in x]
    n = len(layer_dims) - 1
    for l in range(n):
        out = []
        for c in range(layer_dims[l + 1]):
            acc = F32(0.0)
            for r in range(layer_dims[l]):
                acc = F32(acc + F32(F32(weights[l][c][r]) * cur[r]))
            acc = F32(acc + F32(biases[l][c]))
            if l < n - 1 and acc < F32(0.0):
                acc = F32(0.0)
            out.append(acc)
        cur = out
    return np.array(cur, dtype=np.float32)


def scalar_reference(model, query) -> float:
    spec = model.spec
    bottom = scalar_mlp(spec.bottom_mlp_dims, model.bottom_weights, model.bottom_biases,
                        query.dense)
    parts = [bottom]
    for t in range(spec.num_tables):
        parts.append(fold_sum_rows(model.tables[t].values, query.indices[t]))
    top_in = np.concatenate(parts).astype(np.float32)
    out = scalar_mlp(spec.top_mlp_dims, model.top_weights, model.top_biases, top_in)
    return float(out[0])


def two_phase_split(w_bottom, w_emb, bias, b_vec, e_vec) -> np.ndarray:
    """Scalar two-phase split evaluation: full bottom partial, full embedding
    partial, then partial + partial + bias."""
    out = []
    for c in range(w_bottom.shape[0]):
        p = F32(0.0)
        for r in range(w_bottom.shape[1]):
            p = F32(p + F32(F32(w_bottom[c][r]) * F32(b_vec[r])))
        q = F32(0.0)
        for r in range(w_emb.shape[1]):
            q = F32(q + F32(F32(w_emb[c][r]) * F32(e_vec[r])))
        out.append(F32(F32(p + q) + F32(bias[c])))
    return np.array(out, dtype=np.float32)


# ---------------------------------------------------------------------------
# Flash page-read schedule oracle: fixed-point sweep over action times
# instead of an event queue.

def flash_schedule_oracle(pages, sense, xfer):
    """pages: list of (ready, priority, channel, die, seq). Returns
    {seq: (sense_start, sense_end, xfer_start, xfer_end)} and the makespan."""
    WAIT, SENSING, SENSED, MOVING, DONE = range(5)
    state = {p[4]: WAIT for p in pages}
    info = {p[4]: p for p in pages}
    times = {}
    die_holder = {}
    bus_holder = {}
    candidates = sorted({p[0] for p in pages})
    t_idx = 0
    pending_times = list(candidates)

    def die_of(seq):
        p = info[seq]
        return (p[2], p[3])

    while any(s != DONE for s in state.values()):
        t = pending_times[t_idx] if t_idx < len(pending_times) else None
        assert t is not None, "oracle stalled"
        changed = True
        while changed:
            changed = False
            for seq, s in list(state.items()):
                if s == SENSING and times[seq][1] <= t:
                    state[seq] = SENSED
                    changed = True
                elif s == MOVING and times[seq][3] <= t:
                    state[seq] = DONE
                    bus_holder.pop(info[seq][2])
                    die_holder.pop(die_of(seq))
                    changed = True
            # bus grants: per free channel, best sensed page
            chans = {info[s][2] for s in state}
            for ch in sorted(chans):
                if ch in bus_holder:
                    continue
                ready = [s for s in state if state[s] == SENSED and info[s][2] == ch]
                if not ready:
                    continue
                best = min(ready, key=lambda s: (info[s][1], times[s][1], s))
                bus_holder[ch] = best
                ss, se = times[best]
                times[best] = (ss, se, t, t + xfer)
                state[best] = MOVING
                if t + xfer not in pending_times:
                    pending_times.append(t + xfer)
                    pending_times.sort()
                changed = True
            # die starts: per free die, best arrived page
            dies = {die_of(s) for s in state}
            for d in sorted(dies):
                if d in die_holder:
                    continue
                ready = [s for s in state
                         if state[s] == WAIT and die_of(s) == d and info[s][0] <= t]
                if not ready:
                    continue
                best = min(ready, key=lambda s: (info[s][1], info[s][0], s))
                die_holder[d] = best
                times[best] = (t, t + sense)
                state[best] = SENSING
                if t + sense not in pending_times:
                    pending_times.append(t + sense)
                    pending_times.sort()
                changed = True
        t_idx += 1
    makespan = max(v[3] for v in times.values())
    return times, makespan


def adder_oracle(items, t_add, group=lambda key: None):
    """items: (ready, seq, key); serial adder per group (one adder per query
    in batch runs), first item per key is a free load. Returns
    {key: completion}."""
    done = {}
    seen = set()
    busy = {}
    for ready, _, key in sorted(items, key=lambda it: (it[0], it[1])):
        if key not in seen:
            seen.add(key)
            done[key] = max(done.get(key, 0), ready)
        else:
            g = group(key)
            start = max(ready, busy.get(g, 0))
            busy[g] = start + t_add
            done[key] = max(done[key], busy[g])
    return done


# ---------------------------------------------------------------------------
# Alternating-scan pipeline oracle (integer cycles, plain loops).

def pipeline_oracle(dims, kernels, inputs_at, floors=None):
    """dims: [(R, C), ...] column scan first; inputs_at: per-query cycle when
    the stack inputs are all ready. Returns (per-query completions,
    per-(layer, query) dict with emissions and spans)."""
    n = len(dims)
    B = len(inputs_at)
    floors = floors or [0] * n
    unit_free = [0] * n
    detail = {}
    completions = []
    for q in range(B):
        prev_emis = None
        prev_kc = None
        prev_completion = inputs_at[q]
        for l, ((R, C), (kr, kc)) in enumerate(zip(dims, kernels)):
            chunks = -(-R // kr)
            groups = -(-C // kc)
            fill = math.ceil(math.log2(max(kr, 2)))
            floor = floors[l] if q == 0 else 0
            work = chunks * groups
            if l % 2 == 0:  # column
                start = max(prev_completion, unit_free[l])
                emis = []
                for g in range(1, groups + 1):
                    lo = math.ceil(floor * g * chunks / work) if floor else 0
                    emis.append(start + max(g * chunks, lo) + fill)
                issue_end = start + max(work, floor)
                completion = issue_end + fill
                unit_free[l] = issue_end
                detail[(l, q)] = {"start": start, "end": completion, "emissions": emis}
                prev_emis, prev_kc = emis, kc
            else:  # row
                busy = unit_free[l]
                first = None
                spans = []
                done_work = 0
                for j in range(chunks):
                    last_input = min((j + 1) * kr, R) - 1
                    ready = prev_emis[last_input // prev_kc]
                    s = max(ready, busy)
                    if first is None:
                        first = s
                    done_work += groups
                    e = s + groups
                    if floor:
                        e = max(e, first + math.ceil(floor * done_work / work))
                    spans.append((s, e))
                    busy = e
                completion = busy + fill
                unit_free[l] = busy
                detail[(l, q)] = {"start": first, "end": completion, "spans": spans}
                prev_emis, prev_kc = None, None
            prev_completion = completion
        completions.append(prev_completion)
    return completions, detail


def decomposed_top_oracle(dims, kernels, rb, re, b_ready, e_ready, floors=None):
    """Top-stack oracle with the split first layer: bottom half runs at
    b_ready, embedding half at e_ready, groups emit during the second half."""
    n = len(dims)
    B = len(b_ready)
    floors = floors or [0] * n
    unit_free = [0] * n
    completions = []
    for q in range(B):
        (R, C), (kr, kc) = dims[0], kernels[0]
        wb_chunks = -(-rb // kr)
        we_chunks = -(-re // kr)
        groups = -(-C // kc)
        fill = math.ceil(math.log2(max(kr, 2)))
        floor = floors[0] if q == 0 else 0
        work = (wb_chunks + we_chunks) * groups
        start_b = max(b_ready[q], unit_free[0])
        end_b = start_b + wb_chunks * groups
        start_e = max(end_b, e_ready[q])
        emis = []
        for g in range(1, groups + 1):
            lo = 0
            if floor:
                lo = math.ceil(floor * (wb_chunks * groups + g * we_chunks) / work) \
                    - (start_e - start_b)
            emis.append(start_e + max(g * we_chunks, lo) + fill)
        issue_end = max(start_e + we_chunks * groups, start_b + max(work, floor))
        completion = issue_end + fill
        unit_free[0] = issue_end
        prev_emis, prev_kc = emis, kc

        for l in range(1, n):
            (R, C), (kr, kc) = dims[l], kernels[l]
            chunks = -(-R // kr)
            groups = -(-C // kc)
            fill = math.ceil(math.log2(max(kr, 2)))
            lfloor = floors[l] if q == 0 else 0
            work = chunks * groups
            if l % 2 == 1:  # row
                busy = unit_free[l]
                first = None
                done_work = 0
                for j in range(chunks):
                    last_input = min((j + 1) * kr, R) - 1
                    ready = prev_emis[last_input // prev_kc]
                    s = max(ready, busy)
                    if first is None:
                        first = s
                    done_work += groups
                    e = s + groups
                    if lfloor:
                        e = max(e, first + math.ceil(lfloor * done_work / work))
                    busy = e
                completion = busy + fill
                unit_free[l] = busy
                prev_emis, prev_kc = None, None
            else:  # column
                start = max(completion, unit_free[l])
                emis = []
                for g in range(1, groups + 1):
                    lo = math.ceil(lfloor * g * chunks / work) if lfloor else 0
                    emis.append(start + max(g * chunks, lo) + fill)
                issue_end = start + max(work, lfloor)
                completion = issue_end + fill
                unit_free[l] = issue_end
                prev_emis, prev_kc = emis, kc
        completions.append(completion)
    return completions


# ---------------------------------------------------------------------------
# Workload stream oracle.

def workload_oracle(table_rows, dense_dim, distribution, pooling, count, seed, zipf_s=1.0):
    """The documented query stream, one RNG call per query and table: per
    table, `pooling` bounded integers (uniform) or `pooling` uniforms mapped
    through the table's bounded Zipf CDF (zipf); then the dense features.
    Returns (indices, dense) per query."""
    rng = np.random.default_rng([int(seed), 0x3F7])
    out = []
    for _ in range(count):
        indices = []
        for rows in table_rows:
            if distribution == "uniform":
                draws = rng.integers(0, rows, size=pooling)
            else:
                w = np.arange(1, rows + 1, dtype=np.float64) ** (-float(zipf_s))
                cdf = np.cumsum(w) / w.sum()
                draws = np.searchsorted(cdf, rng.random(pooling), side="right")
            indices.append([int(i) for i in draws])
        out.append((indices, rng.random(dense_dim, dtype=np.float32)))
    return out


# ---------------------------------------------------------------------------
# Shared small helpers for the sim replay oracle.

def nearest_rank(sorted_vals, q):
    if not sorted_vals:
        return 0
    rank = max(1, math.ceil(q * len(sorted_vals)))
    return sorted_vals[rank - 1]


def die_timelines(schedule):
    """{(channel, die): [(sense_start, xfer_end), ...] in sense-start order}
    of a page schedule."""
    out = {}
    reads = schedule.reads
    for k in range(len(reads)):
        out.setdefault((int(reads.channel[k]), int(reads.die[k])), []).append(
            (int(schedule.sense_start_ns[k]), int(schedule.xfer_end_ns[k])))
    return {key: sorted(v) for key, v in out.items()}


# ---------------------------------------------------------------------------
# Helpers over the package's code.

def translate_index(emap, table_id: int, index: int) -> tuple[int, int]:
    """(page-start LBA, byte offset within the page) of one table row."""
    lba, offset = _locate(emap, np.array([table_id]), np.array([index]))
    return int(lba[0]), int(offset[0])


def host_block_read(ftl, lba: int, nbytes: int, timing) -> int:
    """Latency of one synchronous host-path read of `nbytes` from `lba`: its
    pages, read as block I/O by `schedule_page_reads` (parallel across
    channels and dies, serialized per die), the host-interface transfer of
    the payload, and the fixed software-stack overhead."""
    g = ftl.geometry
    if nbytes < 1:
        raise ValueError("read length must be >= 1 byte")
    start = lba * g.lba_size
    end = start + nbytes
    if lba < 0 or end > ftl.total_pages * g.page_size:
        raise ValueError(f"byte range [{start}, {end}) outside provisioned capacity")
    pages = np.arange(start // g.page_size, (end - 1) // g.page_size + 1, dtype=np.int64)
    channel, die, _ = ftl.page_location(pages)
    zeros = np.zeros(len(pages), dtype=np.int64)
    sched = schedule_page_reads(PageReads(channel, die, zeros, zeros + BLOCK_PRIORITY),
                                g, timing)
    return sched.makespan_ns + timing.host_iface_ns(nbytes) + timing.host_overhead_ns
