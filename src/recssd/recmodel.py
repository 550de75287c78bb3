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


@dataclass(frozen=True)
class TableSpec:
    rows: int
    ev_dim: int

    def __post_init__(self):
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
        object.__setattr__(self, "bottom_mlp_dims", tuple(int(d) for d in self.bottom_mlp_dims))
        object.__setattr__(self, "top_mlp_dims", tuple(int(d) for d in self.top_mlp_dims))
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
    """Dense forward pass: ReLU on hidden layers, linear output layer.

    Each output accumulates its products over inputs in ascending index
    order; the bias is added after the accumulation.
    """
    x = np.asarray(x, dtype=np.float32)
    if x.shape != (layer_dims[0],):
        raise ValueError(f"input shape {x.shape} != ({layer_dims[0]},)")
    _check_chain(layer_dims, weights, biases, "forward")
    nlayers = len(layer_dims) - 1
    for l in range(nlayers):
        prod = weights[l] * x  # (C, R) row-wise products
        y = prod.cumsum(axis=1, dtype=np.float32)[:, -1] if prod.shape[1] > 1 else prod[:, 0].copy()
        y = (y + biases[l]).astype(np.float32)
        if l < nlayers - 1:
            y = np.maximum(y, np.float32(0.0))
        x = y
    return x


def interact(bottom_out: np.ndarray, table_sums: list[np.ndarray]) -> np.ndarray:
    """Concatenate the bottom-MLP output with the per-table summed vectors."""
    return np.concatenate([bottom_out] + list(table_sums)).astype(np.float32)


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
    cdfs = None
    if distribution == "zipf":
        cdfs = [zipf_cdf(t.rows, zipf_s) for t in spec.tables]
    queries = []
    for _ in range(count):
        idx = []
        for t, ts in enumerate(spec.tables):
            if distribution == "uniform":
                draws = rng.integers(0, ts.rows, size=pooling)
            else:
                u = rng.random(pooling)
                draws = np.searchsorted(cdfs[t], u, side="right")
            idx.append([int(i) for i in draws])
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
