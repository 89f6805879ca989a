"""Maximum inner product search over embedded assortments, exact or hashed.

Each feasible set S is embedded as the 2n-vector z^S = (p o u^S, u^S), where
u^S is the 0/1 membership vector.  A revenue-threshold comparison at K uses
the query q_K = (v, -K v); then q_K . z^S = sum_{i in S} v_i (p_i - K), so one
inner-product maximization answers "is there a set with revenue >= K".

The approximate engine rescales points into the unit ball, appends the
norm-completing coordinate sqrt(1 - |x|^2), and indexes the resulting unit
vectors with random-hyperplane sign hashes: `tables` hash tables keyed by
`bits`-bit sign patterns, with candidate scanning capped at `scan_cap`.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import AssortmentCollection, Instance, _frozen_array, _value_rows, validate_collection

__all__ = [
    "embed_collection",
    "LshParams",
    "default_lsh_params",
    "LshIndex",
    "build_lsh_index",
    "save_index",
    "load_index",
    "ExactMips",
    "LshMips",
]

_CHUNK_ROWS = 1024  # membership-matrix chunk height for bulk hashing
_CHUNK_VALUES = _CHUNK_ROWS * 384  # raw products per chunk of a wider hashing pass


@dataclass(frozen=True)
class QueryVector:
    """The threshold query q_K = (v, -K v), stored as the weights v and the
    threshold K that define it, so its two halves cannot disagree."""

    weights: np.ndarray
    threshold: float

    def __post_init__(self):
        w = _frozen_array(self.weights)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("query weights must be a non-empty 1-d array")
        object.__setattr__(self, "weights", w)

    @property
    def vector(self) -> np.ndarray:
        """The dense 2n vector (v, -K v), for reference inner products."""
        return np.concatenate([self.weights, -self.threshold * self.weights])


class EmbeddedCollection(Sequence):
    """Order-preserving embeddings of a feasible collection.

    Membership is kept sparse; ``points[i]`` materializes the dense vector
    (p o u^S, u^S) of set i on demand.  The score of set S against the
    threshold query q_K = (v, -K v) is A_S - K B_S with A_S = sum_{i in S}
    v_i p_i and B_S = sum_{i in S} v_i, which equals the dense inner product
    up to rounding.
    """

    def __init__(self, collection: AssortmentCollection, inst: Instance):
        validate_collection(collection, inst)
        self.source = collection
        self.prices = inst.prices
        self.n = inst.n
        self.dim = 2 * inst.n

    @property
    def norms(self) -> np.ndarray:
        """Read-only norm sqrt(sum_{i in S} (p_i^2 + 1)) of every point, kept by
        the collection with its prices: index builds read it, exact scoring never does."""
        return self.source._keep("norms", self.prices, lambda p: _frozen_array(
            np.sqrt(self.source.set_sums(p**2 + 1.0))))

    def __len__(self) -> int:
        return len(self.source)

    def __getitem__(self, i: int) -> np.ndarray:
        mem = self.source.member_indices(i)
        vec = np.zeros(self.dim)
        vec[mem] = self.prices[mem]
        vec[self.n:][mem] = 1.0  # n + mem could wrap in the indices' narrow type
        return vec

    def scores_at(self, q: QueryVector, ids: np.ndarray | None = None) -> np.ndarray:
        """Inner products for the points ``ids`` in the given order (all when None).

        Scores come from :meth:`AssortmentCollection.set_sums`, so a score
        computed here is bit-identical to the full-scan score of that point
        and to :class:`ExactMips`.
        """
        rows = _value_rows(self.prices, self._check_weights(q.weights))
        A, B = self.source.set_sums(rows, ids)
        return A - q.threshold * B

    def _check_weights(self, weights) -> np.ndarray:
        """A read-only float copy of ``weights``, checked to be one finite
        weight per item; every engine and :meth:`scores_at` take theirs here."""
        weights = _frozen_array(weights)
        if weights.shape != (self.n,):
            dims = " x ".join(map(str, weights.shape)) if weights.ndim > 1 else weights.size
            raise ValueError(f"weights have dimension {dims}, expected {self.n}")
        if not np.isfinite(weights).all():
            raise ValueError("weights must be finite")
        return weights


def embed_collection(collection: AssortmentCollection, inst: Instance) -> EmbeddedCollection:
    """Embed every feasible set; point k corresponds to collection set k."""
    return EmbeddedCollection(collection, inst)


@dataclass(frozen=True)
class LshParams:
    """Index shape: bits per hash key, number of tables, candidate-scan cap."""

    bits: int
    tables: int
    scan_cap: int

    def __post_init__(self):
        for name in ("bits", "tables", "scan_cap"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.bits < 0 or self.bits > 64:
            raise ValueError("bits must lie in 0..64")
        if self.tables <= 0:
            raise ValueError("tables must be positive")
        if self.scan_cap <= 0:
            raise ValueError("scan_cap must be positive")


def default_lsh_params(num_points: int) -> LshParams:
    """Standard operating point: ceil(log2 N) bits, ceil(sqrt N) tables,
    scan cap three times the table count."""
    if num_points < 1:
        raise ValueError("num_points must be positive")
    bits = math.ceil(math.log2(num_points))
    tables = max(1, math.ceil(num_points**0.5))
    return LshParams(bits=bits, tables=tables, scan_cap=3 * tables)


class LshIndex:
    """Sign-projection hash tables over transformed embedded points.

    Every stored point appears in exactly one bucket per table.  Buckets are
    kept as per-table arrays sorted by key (stable in set id), so a lookup is
    a binary search returning a contiguous id slice.
    """

    def __init__(self, params: LshParams, seed: int, scale: float,
                 projections: np.ndarray, table_keys: np.ndarray,
                 table_ids: np.ndarray, num_points: int):
        self.params = params
        self.seed = int(seed)
        self.scale = float(scale)
        self.projections = projections          # (tables, bits, dim)
        self.table_keys = table_keys            # (tables, N) unsigned, sorted per table
        self.table_ids = table_ids              # (tables, N) int32, aligned with keys
        self.num_points = int(num_points)
        for arr in (self.projections, self.table_keys, self.table_ids):
            arr.setflags(write=False)

    @property
    def dim(self) -> int:
        return int(self.projections.shape[2])

    def bucket(self, table: int, key: int) -> np.ndarray:
        """Set ids stored under ``key`` in one table, in ascending id order.

        The search runs in the keys' own type; a key of another type is
        converted to it first (numpy would compare a Python int with uint64
        keys in float64, which merges neighbouring keys at or above 2**53),
        and one that type cannot hold finds an empty bucket."""
        keys = self.table_keys[table]
        if type(key) is not keys.dtype.type:
            key = int(key)
            if key < 0 or key >> 8 * keys.itemsize:
                return self.table_ids[table, :0]
            key = keys.dtype.type(key)
        lo = keys.searchsorted(key, side="left")
        hi = keys.searchsorted(key, side="right")
        return self.table_ids[table, lo:hi]


_SHIFTS = np.arange(64, dtype=np.uint64)


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a (..., bits) boolean array into uint64 keys, bit t at position t;
    query keys are packed here, index keys in bulk by :func:`_hash_keys`."""
    return np.bitwise_or.reduce(bits.astype(np.uint64) << _SHIFTS[:bits.shape[-1]], axis=-1)


def _key_dtype(bits: int) -> np.dtype:
    """The narrowest unsigned dtype that holds ``bits``-bit keys."""
    return np.min_scalar_type((1 << bits) - 1)


def _projections(params: LshParams, seed: int, dim: int) -> np.ndarray:
    """The (tables, bits, dim) hyperplanes an index of ``seed`` hashes with."""
    return np.random.default_rng(seed).standard_normal((params.tables, params.bits, dim))


def _key_columns(prices: np.ndarray, projections: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The float32 key columns, shape (n, tables * bits), and negated tails,
    shape (tables * bits,), that :func:`_hash_keys` hashes with under
    ``projections`` of shape (tables, bits, 2n + 1), one per hyperplane in
    (table, bit) order: head . z for z = (p o u, u) equals
    u . (p o head_front + head_back), so a key's raw projection is one
    membership-row product."""
    n = prices.size
    flat = projections.reshape(-1, projections.shape[2])
    return ((flat[:, :n] * prices + flat[:, n:2 * n]).T.astype(np.float32),
            -flat[:, 2 * n].astype(np.float32))


def _hash_keys(points: EmbeddedCollection, columns: np.ndarray, neg_tail: np.ndarray,
               tables: int, ids: np.ndarray | None = None) -> np.ndarray:
    """Keys of the points ``ids`` (all when None), in order, under the key
    ``columns`` and ``neg_tail`` of :func:`_key_columns` for ``tables``
    tables of columns.shape[1] / tables bits each: shape (tables, points), in
    the narrowest unsigned dtype that holds the bits.

    One float32 matmul per chunk of membership rows, unpacked from the
    collection's cached :attr:`~AssortmentCollection.packed_membership`,
    gives every raw projection.  Points are scaled by the largest norm; bit t
    is set where raw/scale >= -(slack * tail), which equals
    fl(raw/scale + slack * tail) >= 0 exactly, as a nonzero sum of two
    floats never rounds to zero and rounding is monotone.  A point's key
    does not depend on which others are hashed with it, nor on which other
    columns are hashed beside its own, up to the BLAS's rounding of its
    product.
    """
    bits = columns.shape[1] // tables
    n = points.n
    norms = points.norms
    scale = float(norms.max())
    if ids is not None:
        norms = norms[ids]
    slack = np.sqrt(np.maximum(0.0, 1.0 - (norms / scale) ** 2)).astype(np.float32)
    dtype = _key_dtype(bits)
    width = 8 * dtype.itemsize
    keys = np.empty((tables, norms.size), dtype=dtype)
    # at most _CHUNK_VALUES raw products a chunk: a build keeps 1024 rows,
    # bz's one pass over every round's columns takes fewer
    step = max(1, min(_CHUNK_ROWS, _CHUNK_VALUES // max(1, columns.shape[1])))
    # every chunk is unpacked into one buffer: at noisy-12k, a buffer per
    # chunk let the peak RSS creep up from one bz solve to the next
    buf = np.empty((min(step, norms.size), (n + 7) // 8, 8), dtype=np.float32)
    for lo in range(0, norms.size, step):
        hi = min(lo + step, norms.size)
        mem = points.source._membership_rows(
            slice(lo, hi) if ids is None else ids[lo:hi], buf)
        raw = mem @ columns
        raw /= np.float32(scale)
        padded = np.zeros((hi - lo, tables, width), dtype=bool)
        padded[:, :, :bits] = (raw >= slack[lo:hi, None] * neg_tail).reshape(hi - lo, tables, bits)
        packed = np.packbits(padded.reshape(-1), bitorder="little")
        keys[:, lo:hi] = packed.view(dtype.newbyteorder("<")).reshape(hi - lo, tables).T
    return keys


def build_lsh_index(points: EmbeddedCollection, params: LshParams | None = None,
                    seed: int = 0) -> LshIndex:
    """Hash every embedded point into ``tables`` buckets, deterministically per seed.

    The scale is the largest point norm, so all points fit the unit-ball
    transform; the keys are those of :func:`_hash_keys`, hashed in bulk and
    kept in its narrow dtype (2 bytes a key up to 16 bits).
    """
    if params is None:
        params = default_lsh_params(len(points))
    projections = _projections(params, seed, points.dim + 1)
    keys = _hash_keys(points, *_key_columns(points.prices, projections), params.tables)
    # numpy radix-sorts integers of 16 bits or fewer, as the narrow keys are
    order = np.argsort(keys, axis=1, kind="stable")
    return LshIndex(params, seed, float(points.norms.max()), projections,
                    np.take_along_axis(keys, order, axis=1), order.astype(np.int32),
                    len(points))


_FORMAT_VERSION = 1


def save_index(index: LshIndex, path) -> None:
    """Serialize an index to a single .npz archive (versioned)."""
    np.savez_compressed(
        path,
        version=np.int64(_FORMAT_VERSION),
        seed=np.int64(index.seed),
        bits=np.int64(index.params.bits),
        tables=np.int64(index.params.tables),
        scan_cap=np.int64(index.params.scan_cap),
        scale=np.float64(index.scale),
        num_points=np.int64(index.num_points),
        projections=index.projections,
        table_keys=index.table_keys,
        table_ids=index.table_ids,
    )


_INDEX_FIELDS = ("version", "seed", "bits", "tables", "scan_cap", "scale",
                 "num_points", "projections", "table_keys", "table_ids")


def load_index(path) -> LshIndex:
    """The index :func:`save_index` wrote.  An archive of another version,
    with a field missing, whose tables do not match its stated shape, or
    that no query could read right (projections not finite float64, a scale
    not positive and finite, ids not a permutation per table, keys unsorted
    or wider than ``bits``) is rejected with a ``ValueError`` naming the
    field, before any query.  Keys stored wider than :func:`_hash_keys`
    makes them, as uint64 in archives written before keys were kept narrow,
    are narrowed once checked, so the index equals the one saved."""
    with np.load(path) as data:
        for name in _INDEX_FIELDS:
            if name not in data.files:
                raise ValueError(f"index archive has no field {name!r}")
        version = int(data["version"])
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported index format version {version}")
        params = LshParams(int(data["bits"]), int(data["tables"]),
                           int(data["scan_cap"]))
        num_points = int(data["num_points"])
        index = LshIndex(params, int(data["seed"]), float(data["scale"]),
                         data["projections"].copy(), data["table_keys"].copy(),
                         data["table_ids"].copy(), num_points)
    shape = index.projections.shape
    if len(shape) != 3 or shape[:2] != (params.tables, params.bits):
        raise ValueError(f"index field 'projections' has shape {shape}, expected "
                         f"(tables, bits, dim) = ({params.tables}, {params.bits}, dim)")
    for name, kinds in (("table_keys", "u"), ("table_ids", "iu")):
        arr = getattr(index, name)
        if arr.shape != (params.tables, num_points) or arr.dtype.kind not in kinds:
            raise ValueError(
                f"index field {name!r} is {arr.dtype} of shape {arr.shape}, expected "
                f"{'unsigned ' if kinds == 'u' else ''}integers of shape "
                f"(tables, num_points) = ({params.tables}, {num_points})")
    if index.projections.dtype != np.float64:
        raise ValueError(f"index field 'projections' is {index.projections.dtype}, "
                         f"expected float64")
    if not np.isfinite(index.projections).all():
        raise ValueError("index field 'projections' holds non-finite values")
    if not 0 < index.scale < math.inf:  # also rejects NaN
        raise ValueError(f"index field 'scale' is {index.scale}, expected positive and finite")
    ids, keys = index.table_ids, index.table_keys
    if ids.size and not (ids.min() >= 0 and ids.max() < num_points):
        raise ValueError(f"index field 'table_ids' holds ids outside 0..{num_points - 1}")
    if (np.sort(ids, axis=1) != np.arange(num_points)).any():
        raise ValueError(f"index field 'table_ids' is not a permutation of "
                         f"0..{num_points - 1} within each table")
    if (keys[:, 1:] < keys[:, :-1]).any():
        raise ValueError("index field 'table_keys' is not sorted within each table")
    if params.bits < 64 and keys.size and (keys[:, -1] >> np.uint64(params.bits)).any():
        raise ValueError(f"index field 'table_keys' holds keys of more than "
                         f"{params.bits} bits, which no query reaches")
    index.table_keys = keys.astype(_key_dtype(params.bits), copy=False)
    index.table_keys.setflags(write=False)
    return index


def _retrieve(bucket, qkeys: np.ndarray, params: LshParams) -> np.ndarray | None:
    """Probe ``bucket(t, qkeys[t])`` for each table t in order until
    ``scan_cap`` retrievals (duplicates included) have been seen; return the
    distinct ids in first-retrieval order, so ties stay deterministic, or
    None when every probed bucket is empty."""
    budget = params.scan_cap
    retrieved: list[np.ndarray] = []
    count = 0
    for t in range(params.tables):
        ids = bucket(t, qkeys[t])
        if ids.size == 0:
            continue
        take = ids[:budget - count]
        retrieved.append(take)
        count += int(take.size)
        if count >= budget:
            break
    if not retrieved:
        return None
    cand = np.concatenate(retrieved)
    _, first = np.unique(cand, return_index=True)
    return cand[np.sort(first)]


class ExactMips:
    """Linear-scan oracle over an embedded collection.

    Threshold K is answered by the argmax of A - K B over the per-set sums
    (A, B) of the engine's value rows (p o v, v), ties going to the
    lowest set id, through ``AssortmentCollection._argmax``: the screen it
    keeps, made by the first query or the customer's ``exhaustive_search``,
    leaves to be scored exactly only the sets that could tie or beat the
    best, so every answer equals the full scan's.  A K outside [0, inf),
    where A - K B may rise as B grows and the screen cannot bracket it, is
    scored in full by :meth:`AssortmentCollection.set_sums`.
    """

    def __init__(self, points: EmbeddedCollection, weights: np.ndarray):
        self.weights = points._check_weights(weights)
        self.points = points
        self._rows = _value_rows(points.prices, self.weights)

    def query(self, threshold: float) -> tuple[int, float]:
        if not 0 <= threshold < np.inf:
            A, B = self.points.source.set_sums(self._rows)
            s = A - threshold * B
            best = int(np.argmax(s))
            return best, float(s[best])
        return self.points.source._argmax(self._rows, lambda A, B: A - threshold * B)


class LshMips:
    """Hash-accelerated oracle; may miss the true maximizer but never
    overstates a candidate's score.

    Every threshold query q_K = (v, -K v) lies in the plane spanned by
    (v, 0) and (0, v), so the projections of the weights, a = H_p v and
    b = H_u v (H_p and H_u being the price and membership columns of each
    hyperplane), are taken once per engine.  The padded unit query then
    projects to (a - K b) / |q_K|, whose sign is that of a - K b: a query
    hashes in O(tables * bits), without touching the projection tensor.

    Each bit a_j - K b_j >= 0 is monotone in K, so it flips at most once and
    the query's key vector is piecewise constant in K: over all finite
    thresholds an engine sees at most tables * bits + 1 distinct key
    vectors, and a bisection settles into one of them after a step or two.
    The engine therefore remembers, per key vector, what its probes
    retrieved (at most tables * bits + 1 entries), under the bytes of the
    query's (tables, bits) sign vector, so a repeat packs no key.  The first
    query with a key vector packs it in the index's key dtype, probes the
    buckets and rescores through
    :meth:`EmbeddedCollection.scores_at`; a later one probes nothing and
    answers argmax(A - K B) over the remembered candidates, with their sums
    (A, B) of the engine's value rows (p o v, v) taken once by
    :meth:`AssortmentCollection.set_sums`, the reduction ``scores_at`` uses,
    so every answer is bit-identical to a fresh engine's.
    """

    def __init__(self, index: LshIndex, points: EmbeddedCollection,
                 weights: np.ndarray):
        if index.dim != points.dim + 1:
            raise ValueError("index was built over points of a different dimension")
        if index.num_points != len(points):
            raise ValueError("index size does not match the point set")
        self.weights = points._check_weights(weights)
        self.index = index
        self.points = points
        self._rows = _value_rows(points.prices, self.weights)
        n = points.n
        proj = index.projections
        self._a = proj[:, :, :n] @ self.weights        # (tables, bits)
        self._b = proj[:, :, n:2 * n] @ self.weights   # (tables, bits)
        self._key_dtype = index.table_keys.dtype
        # sign vector bytes -> None (nothing retrieved) or [candidates,
        # their (A, B) sums once a repeat has asked for them]
        self._memo: dict[bytes, list | None] = {}

    def query(self, threshold: float) -> tuple[int, float] | None:
        """Return the best candidate retrieved for the key of q_K, or None.

        The key is that of the query normalized to unit length and padded
        with a zero, taken from the sign of a - K b (a zero weight vector
        sets every bit, as a zero projection does).  Retrieved candidates
        are scored with their true inner product in the original space.
        Returns None when every probed bucket is empty, meaning no
        high-scoring set was found.  Only the first query with a given key
        vector probes the tables (see :func:`_retrieve`).
        """
        signs = self._a - threshold * self._b >= 0.0
        memo_key = signs.tobytes()
        if memo_key not in self._memo:
            qkeys = _pack_bits(signs).astype(self._key_dtype)
            cand = _retrieve(self.index.bucket, qkeys, self.index.params)
            self._memo[memo_key] = None if cand is None else [cand, None]
            if cand is None:
                return None
            scores = self.points.scores_at(QueryVector(self.weights, threshold), cand)
        else:
            hit = self._memo[memo_key]
            if hit is None:
                return None
            cand, sums = hit
            if sums is None:
                sums = hit[1] = self.points.source.set_sums(self._rows, cand)
            scores = sums[0] - threshold * sums[1]
        best = int(np.argmax(scores))
        return int(cand[best]), float(scores[best])
