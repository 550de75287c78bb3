"""Recommendation-model structure and the functional reference inference path.

All arithmetic is FP32 with pinned summation orders so that simulated
configurations can be checked against this module bit-for-bit:

* embedding lookup-sum folds the selected rows left-to-right in the order the
  indices were given;
* every dense dot product accumulates over inputs in ascending index order,
  bias added after the sum, ReLU on hidden layers, linear output.

A workload is a `Workload` of two arrays: a (queries, tables, pooling) index
array, every query looking up the same number of rows of each table, and a
(queries, dense_dim) dense matrix. The simulator reads the arrays; indexing
or iterating a workload gives `Query` objects, one query's index lists and
dense vector, for the reference path and the tests.

Models and workloads are drawn from the raw 64-bit words of a seeded PCG64
bit generator (`bit_generator.random_raw`), converted here in blocks, and not
from `Generator` methods: NEP 19 keeps the bit generator's raw stream stable
across NumPy versions, but not the streams of `Generator` methods. The
conversions reproduce what the methods make of the same words, bit for bit:
a float32 uniform takes a 32-bit half h, low half of a word first, and is
(h >> 8) * 2**-24; a float64 uniform takes a whole word w and is
(w >> 11) * 2**-53; an integer below `rows` is Lemire's (h * rows) >> 32.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Widest fold step (queries x outputs) that mlp_forward folds with one
# cumsum; past it the loop over inputs is faster. On one core the two cross
# near 500 pairs: at 100 queries a 13->64 layer takes 277 us by cumsum and
# 51 us by the loop, and a 64->1 layer 19 us against 63 us.
_CUMSUM_WIDTH = 512

# Halves `_uniforms` converts per step: 64 K of them, 256 KB in and 256 KB of
# shifted temporary, stay in a core's L2 cache from the shift to the scaling.
_UNIFORM_CHUNK = 1 << 16


def _integral(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class TableSpec:
    rows: int
    ev_dim: int

    def __post_init__(self):
        object.__setattr__(self, "rows", _integral("table rows", self.rows))
        object.__setattr__(self, "ev_dim", _integral("ev_dim", self.ev_dim))
        if self.rows < 1:
            raise ValueError(f"table rows must be >= 1, got {self.rows}")
        if self.ev_dim < 1:
            raise ValueError(f"ev_dim must be >= 1, got {self.ev_dim}")

    @property
    def ev_bytes(self) -> int:
        return self.ev_dim * 4


@dataclass(frozen=True)
class ModelSpec:
    """Shape of one recommendation model.

    Layer-dimension lists include the input width, e.g. a bottom MLP
    13 -> 64 -> 16 is [13, 64, 16]. The top MLP consumes the bottom output
    concatenated with one summed vector per table, so its first entry must
    equal bottom_out + num_tables * ev_dim.
    """

    tables: tuple[TableSpec, ...]
    bottom_mlp_dims: tuple[int, ...]
    top_mlp_dims: tuple[int, ...]
    dense_dim: int

    def __post_init__(self):
        object.__setattr__(self, "tables", tuple(self.tables))
        for name in ("bottom_mlp_dims", "top_mlp_dims"):
            object.__setattr__(self, name, tuple(_integral(f"an entry of {name}", d)
                                                 for d in getattr(self, name)))
        object.__setattr__(self, "dense_dim", _integral("dense_dim", self.dense_dim))
        if not self.tables:
            raise ValueError("model needs at least one embedding table")
        dims = set(t.ev_dim for t in self.tables)
        if len(dims) != 1:
            raise ValueError(f"all tables must share one ev_dim, got {sorted(dims)}")
        if len(self.bottom_mlp_dims) < 2 or len(self.top_mlp_dims) < 2:
            raise ValueError("MLP dim lists need an input width plus at least one layer")
        for d in self.bottom_mlp_dims + self.top_mlp_dims:
            if d < 1:
                raise ValueError(f"layer sizes must be >= 1, got {d}")
        if self.dense_dim != self.bottom_mlp_dims[0]:
            raise ValueError(
                f"dense_dim {self.dense_dim} != bottom MLP input width {self.bottom_mlp_dims[0]}"
            )
        expect = self.bottom_out_width + self.emb_out_width
        if self.top_mlp_dims[0] != expect:
            raise ValueError(
                f"top MLP input width {self.top_mlp_dims[0]} != "
                f"bottom_out + tables*ev_dim = {expect}"
            )

    @property
    def num_tables(self) -> int:
        return len(self.tables)

    @property
    def ev_dim(self) -> int:
        return self.tables[0].ev_dim

    @property
    def bottom_out_width(self) -> int:
        return self.bottom_mlp_dims[-1]

    @property
    def emb_out_width(self) -> int:
        return self.num_tables * self.ev_dim


@dataclass
class EmbeddingTable:
    spec: TableSpec
    values: np.ndarray
    table_id: int = 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float32)
        if self.values.shape != (self.spec.rows, self.spec.ev_dim):
            raise ValueError(
                f"table {self.table_id}: value shape {self.values.shape} != "
                f"({self.spec.rows}, {self.spec.ev_dim})"
            )
        if not np.isfinite(self.values).all():
            raise ValueError(f"table {self.table_id}: non-finite embedding values")


@dataclass
class Query:
    """Per-table lookup index lists plus the dense feature vector."""

    indices: list[list[int]]
    dense: np.ndarray

    def __post_init__(self):
        self.dense = np.asarray(self.dense, dtype=np.float32)
        if not np.isfinite(self.dense).all():
            raise ValueError("non-finite dense features")
        for t, idx in enumerate(self.indices):
            if len(idx) < 1:
                raise ValueError(f"table {t}: query needs at least one index")


@dataclass(frozen=True, eq=False)
class Workload:
    """A query stream as arrays: query q looks up rows `index[q, t]` of table
    t, `pooling` of them per table, and `dense` row q is its dense vector.

    `w[a:b]` is the workload of queries a..b-1, viewing the same arrays;
    `w[q]` and iteration give `Query` objects."""
    index: np.ndarray       # (queries, tables, pooling) int64
    dense: np.ndarray       # (queries, dense_dim) float32

    def __post_init__(self):
        if self.index.ndim != 3 or self.dense.ndim != 2 or \
                len(self.dense) != len(self.index):
            raise ValueError(f"index {self.index.shape} and dense {self.dense.shape} are not "
                             f"(queries, tables, pooling) and (queries, dense_dim)")
        if len(self) and self.pooling < 1:
            raise ValueError(f"pooling must be >= 1, got {self.pooling}")

    @property
    def pooling(self) -> int:
        """Rows each query looks up in each table."""
        return self.index.shape[2]

    @classmethod
    def from_queries(cls, queries) -> "Workload":
        """The arrays of hand-written queries, which must agree on their table
        count, pooling and dense width."""
        queries = list(queries)
        tables = len(queries[0].indices) if queries else 0
        pooling = len(queries[0].indices[0]) if tables else 1
        dense_dim = queries[0].dense.size if queries else 0
        for q in queries:
            if len(q.indices) != tables:
                raise ValueError(f"query has {len(q.indices)} index lists, "
                                 f"the first query has {tables}")
            if any(len(idx) != pooling for idx in q.indices):
                raise ValueError(f"index lists of {[len(idx) for idx in q.indices]} rows "
                                 f"in a workload of pooling {pooling}")
            if q.dense.shape != (dense_dim,):
                raise ValueError(f"dense vector shape {q.dense.shape} != ({dense_dim},)")
        index = np.array([q.indices for q in queries],
                         dtype=np.int64).reshape(len(queries), tables, pooling)
        dense = np.array([q.dense for q in queries],
                         dtype=np.float32).reshape(len(queries), dense_dim)
        return cls(index, dense)

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, key):
        if isinstance(key, slice):
            if key.indices(len(self))[2] != 1:
                raise ValueError("a workload slices only by a contiguous query range")
            return Workload(self.index[key], self.dense[key])
        q = range(len(self))[key]
        return Query(self.index[q].tolist(), self.dense[q].copy())

    def __iter__(self):
        return iter(self._queries)

    @cached_property
    def _queries(self) -> list[Query]:
        """The queries as objects, built on first use: the run path reads the
        arrays, and the reference path and the checks may iterate often."""
        return [Query(idx, self.dense[q].copy()) for q, idx in enumerate(self.index.tolist())]


@dataclass
class Model:
    """A ModelSpec plus concrete weights, biases, and embedding tables."""

    spec: ModelSpec
    tables: list[EmbeddingTable]
    bottom_weights: list[np.ndarray]
    bottom_biases: list[np.ndarray]
    top_weights: list[np.ndarray]
    top_biases: list[np.ndarray]

    def __post_init__(self):
        _check_chain(self.spec.bottom_mlp_dims, self.bottom_weights, self.bottom_biases, "bottom")
        _check_chain(self.spec.top_mlp_dims, self.top_weights, self.top_biases, "top")
        if len(self.tables) != self.spec.num_tables:
            raise ValueError("table count does not match spec")

    def validate_query(self, query: Query) -> None:
        if len(query.indices) != self.spec.num_tables:
            raise ValueError(
                f"query has {len(query.indices)} index lists, model has "
                f"{self.spec.num_tables} tables"
            )
        if query.dense.shape != (self.spec.dense_dim,):
            raise ValueError(f"dense vector shape {query.dense.shape} != ({self.spec.dense_dim},)")
        for t, idx in enumerate(query.indices):
            rows = self.spec.tables[t].rows
            for i in idx:
                if not 0 <= i < rows:
                    raise ValueError(f"table {t}: index {i} out of range [0, {rows})")


def _check_chain(dims, weights, biases, name):
    nlayers = len(dims) - 1
    if len(weights) != nlayers or len(biases) != nlayers:
        raise ValueError(f"{name} MLP: expected {nlayers} weight/bias pairs")
    for l in range(nlayers):
        want = (dims[l + 1], dims[l])
        if weights[l].shape != want:
            raise ValueError(f"{name} MLP layer {l}: weight shape {weights[l].shape} != {want}")
        if biases[l].shape != (dims[l + 1],):
            raise ValueError(f"{name} MLP layer {l}: bias shape {biases[l].shape} != ({dims[l+1]},)")


def _halves(words: np.ndarray) -> np.ndarray:
    """The 32-bit halves of raw PCG64 words, low half of each word first, in
    the order the generator's buffered 32-bit draws take them."""
    return np.asarray(words, dtype="<u8").view("<u4")


def _uniforms(halves: np.ndarray) -> np.ndarray:
    """The float32 uniforms in [0, 1) of 32-bit halves, as
    `Generator.random(dtype=np.float32)` makes them: (h >> 8) * 2**-24.
    Converts a C-contiguous array in place, `_UNIFORM_CHUNK` halves at a
    time, and returns it viewed as float32 in its shape."""
    flat = halves.reshape(-1)
    out = flat.view(np.float32)
    for a in range(0, flat.size, _UNIFORM_CHUNK):
        part = out[a:a + _UNIFORM_CHUNK]
        part[...] = flat[a:a + _UNIFORM_CHUNK] >> 8
        part *= np.float32(2 ** -24)
    return out.reshape(halves.shape)


def build_model(spec: ModelSpec, seed: int) -> Model:
    """Materialize tables and MLP weights from one seeded uniform [-0.5, 0.5) stream.

    Every parameter is one float32 uniform minus 0.5, and the uniforms are
    consecutive 32-bit halves of the seed's raw PCG64 words, low half first
    (see the module docstring), in a fixed order: the block of all table
    rows, tables in spec order, then each bottom layer's weights and bias,
    then each top layer's. Each array is its slice of that one stream, so a
    (spec, seed) pair always yields identical parameters, and they are the
    values of one `Generator.random(dtype=np.float32)` call per table and per
    layer array in that order.
    """
    bitgen = np.random.default_rng([int(seed), 0xEC0]).bit_generator
    shapes = [(sum(ts.rows for ts in spec.tables), spec.ev_dim)]
    for dims in (spec.bottom_mlp_dims, spec.top_mlp_dims):
        for l in range(len(dims) - 1):
            shapes += [(dims[l + 1], dims[l]), (dims[l + 1],)]
    sizes = [math.prod(shape) for shape in shapes]
    total = sum(sizes)
    stream = _uniforms(_halves(bitgen.random_raw((total + 1) // 2))[:total])
    stream -= np.float32(0.5)
    block, *params = (part.reshape(shape) for part, shape in
                      zip(np.split(stream, np.cumsum(sizes)[:-1]), shapes))
    tables, start = [], 0
    for t, ts in enumerate(spec.tables):
        tables.append(EmbeddingTable(ts, block[start:start + ts.rows], table_id=t))
        start += ts.rows
    nb = len(spec.bottom_mlp_dims) - 1
    bottom, top = params[:2 * nb], params[2 * nb:]
    return Model(spec, tables, bottom[0::2], bottom[1::2], top[0::2], top[1::2])


def ev_lookup_sum(table: EmbeddingTable, indices: list[int]) -> np.ndarray:
    """Sum the selected rows, folding left-to-right over the index list.

    np.cumsum performs the same strictly sequential FP32 accumulation as a
    scalar loop, which keeps the result bit-identical to the fold oracle.
    """
    if len(indices) == 0:
        raise ValueError(f"table {table.table_id}: empty index list")
    rows = table.spec.rows
    for i in indices:
        if not 0 <= i < rows:
            raise ValueError(f"table {table.table_id}: index {i} out of range [0, {rows})")
    picked = table.values[np.asarray(indices, dtype=np.int64)]
    if len(indices) == 1:
        return picked[0].copy()
    return picked.cumsum(axis=0, dtype=np.float32)[-1]


def mlp_forward(layer_dims, weights, biases, x) -> np.ndarray:
    """Dense forward pass of one input vector or of a (queries, inputs)
    matrix: ReLU on hidden layers, linear output layer.

    Each output folds its products over inputs in ascending index order,
    starting from the first product; the bias is added after the fold. A
    layer of at most `_CUMSUM_WIDTH` (query, output) pairs folds its products
    with one float32 cumsum; a wider one loops over inputs, adding one input's
    products to every (query, output) pair at a time. Both give the same bits.
    """
    x = np.asarray(x, dtype=np.float32)
    if x.ndim not in (1, 2) or x.shape[-1] != layer_dims[0]:
        raise ValueError(f"input shape {x.shape} != ({layer_dims[0]},) "
                         f"or (queries, {layer_dims[0]})")
    _check_chain(layer_dims, weights, biases, "forward")
    y = x.reshape(-1, layer_dims[0])
    nlayers = len(layer_dims) - 1
    for l in range(nlayers):
        w = weights[l]
        if len(y) * len(w) <= _CUMSUM_WIDTH:
            y = (y[:, None, :] * w).cumsum(axis=2, dtype=np.float32)[:, :, -1]
        else:
            xt, wt = y.T[:, :, None], np.ascontiguousarray(w.T)
            y = xt[0] * wt[0]
            for k in range(1, len(wt)):
                y += xt[k] * wt[k]
        y = (y + biases[l]).astype(np.float32)
        if l < nlayers - 1:
            y = np.maximum(y, np.float32(0.0))
    return y if x.ndim == 2 else y[0]


def interact(bottom_out: np.ndarray, table_sums: list[np.ndarray]) -> np.ndarray:
    """Concatenate the bottom-MLP output with the per-table sums, on the last axis."""
    return np.concatenate([bottom_out] + list(table_sums), axis=-1).astype(np.float32)


def reference_inference(model: Model, query: Query) -> float:
    """Straight-line scoring path every simulated configuration must match."""
    model.validate_query(query)
    spec = model.spec
    bottom = mlp_forward(spec.bottom_mlp_dims, model.bottom_weights, model.bottom_biases, query.dense)
    sums = [ev_lookup_sum(model.tables[t], query.indices[t]) for t in range(spec.num_tables)]
    top_in = interact(bottom, sums)
    out = mlp_forward(spec.top_mlp_dims, model.top_weights, model.top_biases, top_in)
    if out.shape != (1,):
        raise ValueError(f"final layer width must be 1, got {out.shape}")
    return float(out[0])


def zipf_cdf(rows: int, s: float) -> np.ndarray:
    """CDF of a bounded Zipf law over ranks 0..rows-1, weight (k+1)^-s, s > 0."""
    w = np.arange(1, rows + 1, dtype=np.float64) ** (-float(s))
    return np.cumsum(w) / w.sum()


@dataclass(frozen=True)
class WorkloadConfig:
    """What `generate_workload` draws from, besides the count and the seed."""
    distribution: str = "uniform"
    pooling: int = 8
    zipf_s: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "pooling", _integral("pooling", self.pooling))
        if self.distribution not in ("uniform", "zipf"):
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.pooling < 1:
            raise ValueError(f"pooling must be >= 1, got {self.pooling}")
        if not self.zipf_s > 0:
            raise ValueError(f"zipf_s must be > 0, got {self.zipf_s}")


def generate_workload(spec: ModelSpec, distribution: str, pooling: int, count: int,
                      seed: int, zipf_s: float = 1.0) -> Workload:
    """Draw `count` queries of `pooling` lookups per table: indices from the
    given distribution, dense features uniform in [0, 1). Deterministic for a
    fixed seed.

    The whole workload is one block of the seed's raw PCG64 words, read
    query after query (the conversions are in the module docstring):
    * uniform: one 32-bit half per lookup, table after table, gives an index
      below the table's rows by Lemire's rule (a one-row table's index is 0
      and takes no half); then one half per dense value;
    * zipf: one whole word per lookup gives a float64 uniform, mapped through
      the table's bounded Zipf CDF; then one half per dense value, where a
      query whose dense values end on a low half leaves the high half to the
      next query's first dense value.
    These are the values of one `integers(0, rows)` or `random` call for a
    query's indices and one `random(dtype=np.float32)` call for its dense
    vector, query after query. Lemire's rule redraws a half whose low product
    word falls below (2**32 - rows) mod rows, and numpy draws an index of a
    table over 2**32 rows from whole words; a uniform workload that would do
    either is drawn by those two calls per query instead."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    WorkloadConfig(distribution, pooling, zipf_s)     # checks all three
    rng = np.random.default_rng([int(seed), 0x3F7])
    tables, dense_dim = len(spec.tables), spec.dense_dim
    lookups = tables * pooling
    if distribution == "zipf":
        # query q's uniform words follow the q*lookups uniform words and the
        # ceil(q*dense_dim/2) dense words of the queries before it
        q = np.arange(count)
        first = q * lookups + (q * dense_dim + 1) // 2
        is_u = np.zeros(count * lookups + (count * dense_dim + 1) // 2, dtype=bool)
        is_u[(first[:, None] + np.arange(lookups)).ravel()] = True
        words = rng.bit_generator.random_raw(is_u.size)
        u = ((words[is_u] >> 11) * 2.0 ** -53).reshape(count, lookups)
        dense = _uniforms(_halves(words[~is_u])[:count * dense_dim]).reshape(count, dense_dim)
        # one CDF per distinct row count: preset tables often share theirs
        cdfs = {rows: zipf_cdf(rows, zipf_s) for rows in {t.rows for t in spec.tables}}
        index = np.empty((count, lookups), dtype=np.int64)
        for t, ts in enumerate(spec.tables):
            cols = slice(t * pooling, (t + 1) * pooling)
            index[:, cols] = np.searchsorted(cdfs[ts.rows], u[:, cols], side="right")
    else:
        rows = np.repeat([t.rows for t in spec.tables], pooling)
        drawn = rows > 1
        bound = rows[drawn].astype(np.uint64)
        per = len(bound) + dense_dim
        halves = _halves(rng.bit_generator.random_raw((count * per + 1) // 2))
        halves = halves[:count * per].reshape(count, per)
        product = halves[:, :len(bound)] * bound
        index = np.zeros((count, lookups), dtype=np.int64)
        index[:, drawn] = product >> 32
        dense = _uniforms(np.ascontiguousarray(halves[:, len(bound):]))
        if rows.max() > 2 ** 32 or \
                ((product & 0xFFFFFFFF) < (2 ** 32 - bound) % bound).any():
            rng = np.random.default_rng([int(seed), 0x3F7])
            for q in range(count):
                index[q] = rng.integers(0, rows)
                rng.random(dtype=np.float32, out=dense[q])
    return Workload(index.reshape(count, tables, pooling), dense)


# ---------------------------------------------------------------------------
# Desk-scale model presets. These are small stand-ins sized so full runs fit
# in seconds; they do not claim to reproduce any production model.

def desk_model_spec(name: str) -> ModelSpec:
    name = name.lower()
    if name == "rmc3-mini":
        return ModelSpec(
            tables=tuple(TableSpec(16384, 16) for _ in range(8)),
            bottom_mlp_dims=(13, 64, 16),
            top_mlp_dims=(144, 64, 1),
            dense_dim=13,
        )
    if name == "ncf-mini":
        return ModelSpec(
            tables=tuple(TableSpec(32768, 32) for _ in range(2)),
            bottom_mlp_dims=(8, 32, 16),
            top_mlp_dims=(80, 64, 1),
            dense_dim=8,
        )
    if name == "wnd-mini":
        return ModelSpec(
            tables=tuple(TableSpec(16384, 16) for _ in range(4)),
            bottom_mlp_dims=(13, 32, 16),
            top_mlp_dims=(80, 32, 1),
            dense_dim=13,
        )
    raise ValueError(f"unknown model preset {name!r}")


DESK_PRESETS = ("rmc3-mini", "ncf-mini", "wnd-mini")

# Default lookups per table for each preset's workloads.
DESK_POOLING = {"rmc3-mini": 8, "ncf-mini": 1, "wnd-mini": 2}
