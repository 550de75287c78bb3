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
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Widest fold step (queries x outputs) that mlp_forward folds with one
# cumsum; past it the loop over inputs is faster. On one core the two cross
# near 500 pairs: at 100 queries a 13->64 layer takes 277 us by cumsum and
# 51 us by the loop, and a 64->1 layer 19 us against 63 us.
_CUMSUM_WIDTH = 512


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


def build_model(spec: ModelSpec, seed: int) -> Model:
    """Materialize tables and MLP weights from one seeded uniform [-0.5, 0.5) stream.

    Generation order is fixed (tables in spec order, then bottom layers, then
    top layers) so a (spec, seed) pair always yields identical parameters.
    The tables come from one block of all their rows, drawn in spec order,
    and each table's values are its row slice of that block. It is the same
    stream as one draw per table: float32 draws take the generator's 32-bit
    halves in order, whether or not the draw is split.
    """
    rng = np.random.default_rng([int(seed), 0xEC0])

    def uniform(shape):
        v = rng.random(shape, dtype=np.float32)
        v -= np.float32(0.5)
        return v

    block = uniform((sum(ts.rows for ts in spec.tables), spec.ev_dim))
    tables, start = [], 0
    for t, ts in enumerate(spec.tables):
        tables.append(EmbeddingTable(ts, block[start:start + ts.rows], table_id=t))
        start += ts.rows

    def layers(dims):
        ws, bs = [], []
        for l in range(len(dims) - 1):
            ws.append(uniform((dims[l + 1], dims[l])))
            bs.append(uniform(dims[l + 1]))
        return ws, bs

    bw, bb = layers(spec.bottom_mlp_dims)
    tw, tb = layers(spec.top_mlp_dims)
    return Model(spec, tables, bw, bb, tw, tb)


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

    The stream is one RNG call for the query's indices and then one for its
    dense vector, query after query, each written into its row of the
    workload's arrays. The index call is `integers(0, rows)` with one bound
    per lookup, table after table (the same stream as one call per table);
    under zipf it is `pooling` uniforms per table instead, mapped through each
    table's bounded Zipf CDF once all queries are drawn. The calls are not
    merged across queries: that would reorder the generator's draws, which
    interleave the two calls and take buffered 32-bit halves, and so change
    every output."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    WorkloadConfig(distribution, pooling, zipf_s)     # checks all three
    rng = np.random.default_rng([int(seed), 0x3F7])
    tables = len(spec.tables)
    index = np.empty((count, tables * pooling), dtype=np.int64)
    dense = np.empty((count, spec.dense_dim), dtype=np.float32)
    if distribution == "uniform":
        highs = np.repeat([t.rows for t in spec.tables], pooling)
        for q in range(count):
            index[q] = rng.integers(0, highs)
            rng.random(dtype=np.float32, out=dense[q])
    else:
        # one CDF per distinct row count: preset tables often share theirs
        cdfs = {rows: zipf_cdf(rows, zipf_s) for rows in {t.rows for t in spec.tables}}
        u = np.empty((count, tables * pooling))
        for q in range(count):
            rng.random(out=u[q])
            rng.random(dtype=np.float32, out=dense[q])
        for t, ts in enumerate(spec.tables):
            cols = slice(t * pooling, (t + 1) * pooling)
            index[:, cols] = np.searchsorted(cdfs[ts.rows], u[:, cols], side="right")
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
