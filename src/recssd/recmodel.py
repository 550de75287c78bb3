"""Recommendation-model structure and the functional reference inference path.

All arithmetic is FP32 with pinned summation orders so that simulated
configurations can be checked against this module bit-for-bit:

* embedding lookup-sum folds the selected rows left-to-right in the order the
  indices were given;
* every dense dot product accumulates over inputs in ascending index order,
  bias added after the sum, ReLU on hidden layers, linear output.
"""

from dataclasses import dataclass

import numpy as np

INTERACTION_CONCAT = "concat"

# Most products (queries x outputs x inputs) mlp_forward folds in one cumsum.
_CUMSUM_PRODUCTS = 1 << 17


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
    interaction: str = INTERACTION_CONCAT

    def __post_init__(self):
        object.__setattr__(self, "tables", tuple(self.tables))
        for name in ("bottom_mlp_dims", "top_mlp_dims"):
            object.__setattr__(self, name, tuple(_integral(f"an entry of {name}", d)
                                                 for d in getattr(self, name)))
        object.__setattr__(self, "dense_dim", _integral("dense_dim", self.dense_dim))
        if self.interaction != INTERACTION_CONCAT:
            raise ValueError(f"unsupported interaction {self.interaction!r}")
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


@dataclass
class Model:
    """A ModelSpec plus concrete weights, biases, and embedding tables."""

    spec: ModelSpec
    tables: list[EmbeddingTable]
    bottom_weights: list[np.ndarray]
    bottom_biases: list[np.ndarray]
    top_weights: list[np.ndarray]
    top_biases: list[np.ndarray]
    init_seed: int = 0

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
    """
    rng = np.random.default_rng([int(seed), 0xEC0])
    tables = []
    for t, ts in enumerate(spec.tables):
        vals = rng.random((ts.rows, ts.ev_dim), dtype=np.float32) - np.float32(0.5)
        tables.append(EmbeddingTable(ts, vals, table_id=t))

    def layers(dims):
        ws, bs = [], []
        for l in range(len(dims) - 1):
            ws.append(rng.random((dims[l + 1], dims[l]), dtype=np.float32) - np.float32(0.5))
            bs.append(rng.random(dims[l + 1], dtype=np.float32) - np.float32(0.5))
        return ws, bs

    bw, bb = layers(spec.bottom_mlp_dims)
    tw, tb = layers(spec.top_mlp_dims)
    return Model(spec, tables, bw, bb, tw, tb, init_seed=int(seed))


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
    layer with at most `_CUMSUM_PRODUCTS` products folds them with one float32
    cumsum; past that, a loop over inputs is faster and holds less: it adds
    one input's products to every (query, output) pair at a time.
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
        if len(y) * w.size <= _CUMSUM_PRODUCTS:
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
    """CDF of a bounded Zipf law over ranks 0..rows-1, weight (k+1)^-s."""
    if s <= 0:
        raise ValueError(f"zipf exponent must be > 0, got {s}")
    w = np.arange(1, rows + 1, dtype=np.float64) ** (-float(s))
    return np.cumsum(w) / w.sum()


def generate_workload(spec: ModelSpec, distribution: str, pooling: int, count: int,
                      seed: int, zipf_s: float = 1.0) -> list[Query]:
    """Draw `count` queries: per-table indices from the given distribution,
    dense features uniform in [0, 1). Deterministic for a fixed seed."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if pooling < 1:
        raise ValueError(f"pooling must be >= 1, got {pooling}")
    if distribution not in ("uniform", "zipf"):
        raise ValueError(f"unknown distribution {distribution!r}")
    rng = np.random.default_rng([int(seed), 0x3F7])
    tables = len(spec.tables)
    if distribution == "uniform":
        # one bounded draw per lookup, table after table: the same stream as
        # one `integers(0, rows, size=pooling)` call per table
        highs = np.repeat([t.rows for t in spec.tables], pooling)
    else:
        cdfs = [zipf_cdf(t.rows, zipf_s) for t in spec.tables]
    queries = []
    for _ in range(count):
        if distribution == "uniform":
            flat = rng.integers(0, highs).tolist()
            idx = [flat[t * pooling:(t + 1) * pooling] for t in range(tables)]
        else:
            u = rng.random(tables * pooling)
            idx = [np.searchsorted(cdfs[t], u[t * pooling:(t + 1) * pooling],
                                   side="right").tolist() for t in range(tables)]
        dense = rng.random(spec.dense_dim, dtype=np.float32)
        queries.append(Query(idx, dense))
    return queries


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
