"""Kernel-blocked FC timing model and the alternating-scan pipeline.

The engine is modelled for time only: every mode scores with
`recmodel.mlp_forward`, so no arithmetic lives here. rmssd's split first top
layer (RM-SSD) is a schedule of that layer's reference fold over the
concatenated input: the bottom-MLP inputs go first, then the summed vectors
onto the same accumulators, and the bias last.

Cycle model: an FC unit issues one kr x kc weight block per cycle, plus an
adder-tree fill of ceil(log2(max(kr, 2))) cycles charged once per pass:

    cycles(R, C, kr, kc, B) = ceil(R/kr) * ceil(C/kc) * B + fill

Scheduling rules (all in integer cycles):

* a layer's scan is set by its position: layer l scans by column when l is
  even and by row when l is odd, so scans alternate, column first;
* a column-scan layer needs all its inputs, then emits one kc-wide output
  group every ceil(R/kr) cycles (group g completes g*ceil(R/kr) + fill after
  its start);
* a row-scan layer consumes input chunks of kr as they arrive, spending
  ceil(C/kc) cycles per chunk on partial sums for every output, and releases
  all outputs only at completion;
* a layer unit serves queries of a batch in order, back to back;
* a DRAM-spilled layer streams its weights once per batch: the first query's
  pass is floored so that finishing fraction f of the work also waits for
  fraction f of the weight fetch.

Hence a (column, row) pair overlaps while consecutive pairs serialize, which
caps the benefit at 2x for long equal stacks. The schedulers work in engine
cycles only; their callers convert to ns.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .recmodel import _integral


def is_pow2(x: int) -> bool:
    return x >= 1 and (x & (x - 1)) == 0


@dataclass(frozen=True)
class KernelAssignment:
    """Per-layer (kr, kc) block sizes plus the vector-sum kernel (kr_e, kc_e)."""

    bottom: tuple[tuple[int, int], ...]
    top: tuple[tuple[int, int], ...]
    ev: tuple[int, int] = (1, 1)

    def __post_init__(self):
        def pair(name, kernel):
            kr, kc = kernel
            return _integral(f"{name} kr", kr), _integral(f"{name} kc", kc)

        object.__setattr__(self, "bottom", tuple(pair("bottom", k) for k in self.bottom))
        object.__setattr__(self, "top", tuple(pair("top", k) for k in self.top))
        object.__setattr__(self, "ev", pair("ev", self.ev))

    def validate(self, model_spec) -> None:
        for name, dims, kernels in (("bottom", model_spec.bottom_mlp_dims, self.bottom),
                                    ("top", model_spec.top_mlp_dims, self.top)):
            if len(kernels) != len(dims) - 1:
                raise ValueError(f"{name}: {len(kernels)} kernels for {len(dims) - 1} layers")
            for l, (kr, kc) in enumerate(kernels):
                r, c = dims[l], dims[l + 1]
                if not (1 <= kr <= r and 1 <= kc <= c):
                    raise ValueError(f"{name} layer {l}: kernel ({kr}, {kc}) exceeds ({r}, {c})")
                if not (is_pow2(kr) and is_pow2(kc)):
                    raise ValueError(f"{name} layer {l}: kernel ({kr}, {kc}) not powers of two")
        kr_e, kc_e = self.ev
        if kr_e != 1:
            raise ValueError("vector-sum kernel row width is fixed to 1")
        if not (1 <= kc_e <= model_spec.ev_dim and is_pow2(kc_e)):
            raise ValueError(f"kc_e {kc_e} invalid for ev_dim {model_spec.ev_dim}")

    def flat(self) -> tuple[tuple[int, int], ...]:
        return self.bottom + self.top + (self.ev,)

    def objective(self) -> int:
        return sum(kr * kc for kr, kc in self.flat())

    @staticmethod
    def largest_pow2(n: int) -> int:
        return 1 << (n.bit_length() - 1)

    @classmethod
    def all_max(cls, model_spec) -> "KernelAssignment":
        p2 = cls.largest_pow2
        bottom = tuple((p2(model_spec.bottom_mlp_dims[l]), p2(model_spec.bottom_mlp_dims[l + 1]))
                       for l in range(len(model_spec.bottom_mlp_dims) - 1))
        top = tuple((p2(model_spec.top_mlp_dims[l]), p2(model_spec.top_mlp_dims[l + 1]))
                    for l in range(len(model_spec.top_mlp_dims) - 1))
        return cls(bottom, top, (1, p2(model_spec.ev_dim)))


def fill_cycles(kr: int) -> int:
    return math.ceil(math.log2(max(kr, 2)))


def fc_cycles(in_width: int, out_width: int, kernel: tuple[int, int], batch: int = 1) -> int:
    kr, kc = kernel
    if not (1 <= kr <= in_width and 1 <= kc <= out_width):
        raise ValueError(f"kernel ({kr}, {kc}) exceeds layer ({in_width}, {out_width})")
    return -(-in_width // kr) * -(-out_width // kc) * batch + fill_cycles(kr)


def conventional_cycles(dims, kernels, batch: int = 1) -> int:
    """No inter-layer overlap: the sum of the individual layer passes of the
    stack with widths `dims`, input width first."""
    return sum(fc_cycles(r, c, k, batch) for r, c, k in zip(dims, dims[1:], kernels))


# ---------------------------------------------------------------------------
# Pipeline scheduling.

@dataclass
class PipelineSchedule:
    """A schedule of one or more batches, one per lane, in cycles.
    `passes[q * layers + l]` is query q through layer l: (start, end,
    emissions) for a column layer (l even) and (unit free, end, chunk ready,
    chunk end) for a row layer (l odd), where the start, end and unit-free
    cycles are (lanes, 1) columns and the arrays (lanes, groups) or (lanes,
    chunks)."""
    passes: list[tuple]
    layers: int

    def _per_query(self, layer: int, field: int) -> np.ndarray:
        return np.concatenate([p[field] for p in self.passes[layer::self.layers]], axis=1)

    @cached_property
    def completions(self) -> np.ndarray:
        """Each query's last-layer completion, (lanes, queries)."""
        return self._per_query(self.layers - 1, 1)

    @cached_property
    def starts(self) -> np.ndarray:
        """Each query's layer-0 start, (lanes, queries)."""
        return self._per_query(0, 0)


def _stream_floor(done_work: np.ndarray, total_work: int, floor: int) -> np.ndarray:
    # completing a fraction of the work also waits for that fraction of the
    # fetch: an exact integer ceiling, as floor and work are bounded cycle counts
    return -(-floor * done_work // total_work)


@lru_cache(maxsize=16)
def _issued(chunks: int, groups: int) -> np.ndarray:
    """Input chunks a column pass has issued when each output group emits."""
    issued = np.arange(1, groups + 1, dtype=np.int64) * chunks
    issued.setflags(write=False)
    return issued


@lru_cache(maxsize=16)
def _row_chunks(in_width: int, kr: int, kc_prev: int, groups: int) -> tuple[np.ndarray, ...]:
    """A row pass's input chunks: the previous layer's output group holding
    each chunk's last input, and each chunk's offset j*groups."""
    chunks = -(-in_width // kr)
    last_input = np.minimum(np.arange(kr - 1, chunks * kr, kr, dtype=np.int64), in_width - 1)
    out = last_input // kc_prev, np.arange(0, chunks * groups, groups, dtype=np.int64)
    for a in out:
        a.setflags(write=False)
    return out


def _column_pass(split_chunks: int, chunks: int, groups: int, fill: int, ready_b: np.ndarray,
                 ready_e: np.ndarray, unit_free: np.ndarray,
                 floor: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column pass whose first `split_chunks` input chunks (a split first
    layer's bottom half) start at `ready_b` and whose other `chunks` wait for
    `ready_e`; group g emits once its last chunk is issued. Per-lane cycles
    are (lanes, 1) columns. Returns (start, issue end, emissions), the last
    (lanes, groups)."""
    start_b = np.maximum(ready_b, unit_free)
    start_e = np.maximum(start_b + split_chunks * groups, ready_e)
    issued = _issued(chunks, groups)
    issue_end = start_e + chunks * groups
    if floor > 0:
        work = (split_chunks + chunks) * groups
        issued = np.maximum(issued, _stream_floor(split_chunks * groups + issued, work, floor)
                            - (start_e - start_b))
        issue_end = np.maximum(issue_end, start_b + max(work, floor))
    return start_b, issue_end, start_e + fill + issued


def _row_pass(emis_prev: np.ndarray, kc_prev: int, kr: int, in_width: int, groups: int,
              unit_free: np.ndarray, floor: int) -> tuple[np.ndarray, np.ndarray]:
    """Row pass over input chunks of `kr`, each ready when the previous
    layer emits the group holding its last input; `emis_prev` is (lanes,
    groups) and `unit_free` a (lanes, 1) column. Returns each lane's
    per-chunk (ready, end), (lanes, chunks) each."""
    gather, offset = _row_chunks(in_width, kr, kc_prev, groups)
    ready = emis_prev[:, gather]
    # chunk j ends at max(c_j, end_{j-1} + g), c_j = max(ready_j + g, s0 + floor_j),
    # end_{-1} = unit_free; unrolled, end_j = j*g + max(unit_free + g,
    # max_{k<=j}(c_k - k*g)), one running max with offset_j = j*g. Without a
    # floor, c_j = ready_j + g: s0 = max(ready_0, unit_free) is below both
    # ready_0 + g and unit_free + g. The steps run in place, as a chunk's
    # lanes make these matrices large.
    end = ready + groups
    if floor > 0:
        s0 = np.maximum(ready[:, :1], unit_free)
        np.maximum(end, s0 + _stream_floor(offset + groups, len(offset) * groups, floor),
                   out=end)
    end -= offset
    np.maximum.accumulate(end, axis=1, out=end)
    np.maximum(end, unit_free + groups, out=end)
    end += offset
    return ready, end


def pipeline_schedule(dims, kernels, inputs_at_cycles=None,
                      floor_cycles=None) -> PipelineSchedule:
    """Schedule a batch through an alternating-scan FC stack of widths `dims`,
    input width first.

    `inputs_at_cycles[q]` is when query q's stack inputs are all available
    (default: one query at cycle 0). `floor_cycles[l]`, when set, is the
    weight-fetch floor of a DRAM-spilled layer, paid by the first query of
    the batch. The stack is the decomposed one with an empty bottom half.
    """
    inputs = [0] if inputs_at_cycles is None else inputs_at_cycles
    return pipeline_schedule_decomposed(dims, kernels, 0, inputs, inputs, floor_cycles)


def pipeline_schedule_decomposed(dims, kernels, bottom_width: int, bottom_ready_cycles,
                                 emb_ready_cycles, floor_cycles=None) -> PipelineSchedule:
    """Top-stack schedule, widths `dims` input width first, with the first
    layer split column-wise.

    The first layer's first `bottom_width` inputs (the bottom-MLP output) run
    as soon as they are ready; the rest (the summed vectors) start when they
    arrive, and only then do output groups emit. Remaining layers follow the
    generic rules. With `bottom_width` 0 the first layer is an ordinary
    column-scan layer.

    `emb_ready_cycles` is one batch's per-query cycles, or a (lanes,
    queries) matrix of batches that each start on idle units, pay the floors
    and share `bottom_ready_cycles`; one batch is one lane.
    """
    n = len(dims) - 1
    if n < 1:
        raise ValueError("empty layer stack")
    if len(kernels) != n:
        raise ValueError(f"{len(kernels)} kernels for {n} layers")
    for l, (r, c, (kr, kc)) in enumerate(zip(dims, dims[1:], kernels)):
        if not (1 <= kr <= r and 1 <= kc <= c):
            raise ValueError(f"layer {l}: kernel ({kr}, {kc}) exceeds dims")
    if not 0 <= bottom_width < dims[0]:
        raise ValueError(f"split at {bottom_width} outside first-layer input width {dims[0]}")
    emb = np.atleast_2d(np.asarray(emb_ready_cycles, dtype=np.int64))
    bot = np.asarray(bottom_ready_cycles, dtype=np.int64)[None]
    if bot.shape[1:] != emb.shape[1:]:
        raise ValueError("availability lists differ in length")
    floors = list(floor_cycles) if floor_cycles is not None else [0] * n

    # each layer's pass shape; only layer 0 has a split (bottom) half
    shapes, fills = [], [fill_cycles(kr) for kr, _ in kernels]
    for l, (r, c, (kr, kc)) in enumerate(zip(dims, dims[1:], kernels)):
        groups = -(-c // kc)
        if l % 2:
            shapes.append((kernels[l - 1][1], kr, r, groups))
        else:
            split = bottom_width if l == 0 else 0
            shapes.append((-(-split // kr), -(-(r - split) // kr), groups, fills[l]))

    unit_free = [np.zeros((len(emb), 1), dtype=np.int64)] * n
    passes = []
    for q in range(emb.shape[1]):
        # layer 0's bottom half waits for the bottom MLP and its embedding half
        # for the summed vectors; a later column layer waits for its input layer
        ready_b, ready_e = bot[:, q:q + 1], emb[:, q:q + 1]
        for l in range(n):
            floor = floors[l] if q == 0 else 0
            if l % 2:
                ready, end = _row_pass(emissions, *shapes[l], unit_free[l], floor)
                issue_end = end[:, -1:]
                passes.append((unit_free[l], issue_end + fills[l], ready, end))
            else:
                start, issue_end, emissions = _column_pass(*shapes[l], ready_b, ready_e,
                                                           unit_free[l], floor)
                passes.append((start, issue_end + fills[l], emissions))
            unit_free[l] = issue_end
            ready_b = ready_e = passes[-1][1]
    return PipelineSchedule(passes, n)
