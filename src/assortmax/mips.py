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
        vec[self.n + mem] = 1.0
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


def simple_lsh_transform(x: np.ndarray, scale: float) -> np.ndarray:
    """Map x with |x| <= scale to the unit sphere one dimension up.

    Returns [x / scale ; sqrt(1 - |x/scale|^2)], which has unit norm; inner
    products against unit queries padded with a zero are monotone in the
    original inner products, so argmaxes are preserved.
    """
    x = np.asarray(x, dtype=float)
    if not 0 < scale < math.inf:  # also rejects NaN
        raise ValueError("scale must be positive and finite")
    if not np.isfinite(x).all():
        raise ValueError("point must be finite")
    r2 = float(x @ x) / (scale * scale)
    if r2 > 1.0 + 1e-9:
        raise ValueError(f"point norm {math.sqrt(r2) * scale:.6g} exceeds scale {scale:.6g}")
    return np.concatenate([x / scale, [math.sqrt(max(0.0, 1.0 - r2))]])


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
        self.table_keys = table_keys            # (tables, N) uint64, sorted per table
        self.table_ids = table_ids              # (tables, N) int32, aligned with keys
        self.num_points = int(num_points)
        for arr in (self.projections, self.table_keys, self.table_ids):
            arr.setflags(write=False)

    @property
    def dim(self) -> int:
        return int(self.projections.shape[2])

    def bucket(self, table: int, key: int) -> np.ndarray:
        """Set ids stored under ``key`` in one table, in ascending id order."""
        keys = self.table_keys[table]
        # a Python int key would make numpy compare in float64, which is
        # slow and merges neighbouring keys at or above 2**53
        key = np.uint64(key)
        lo = int(np.searchsorted(keys, key, side="left"))
        hi = int(np.searchsorted(keys, key, side="right"))
        return self.table_ids[table, lo:hi]


_SHIFTS = np.arange(64, dtype=np.uint64)


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a (..., bits) boolean array into uint64 keys, bit t at position t."""
    # With the bit axis outermost in memory, the OR runs over whole
    # contiguous planes, which is several times faster in bulk than a
    # reduction along the short last axis.
    nd = bits.ndim
    moved = bits.transpose(nd - 1, *range(nd - 1)).astype(np.uint64, order="C")
    moved <<= _SHIFTS[(slice(bits.shape[-1]),) + (None,) * (nd - 1)]
    return np.bitwise_or.reduce(moved, axis=0)


def hash_key(x_transformed: np.ndarray, table: int, index: LshIndex) -> int:
    """Key of a unit-norm transformed vector in one table.

    Bit t is 1 exactly when the t-th hyperplane projection is >= 0; a zero
    projection counts as positive so equal inputs always collide.
    """
    x = np.asarray(x_transformed, dtype=float)
    if x.size != index.dim:
        raise ValueError(f"vector has dimension {x.size}, expected {index.dim}")
    raw = index.projections[table] @ x
    return int(_pack_bits(raw >= 0.0))


def build_lsh_index(points: EmbeddedCollection, params: LshParams | None = None,
                    seed: int = 0) -> LshIndex:
    """Hash every embedded point into ``tables`` buckets, deterministically per seed.

    The scale is the largest point norm, so all points fit the unit-ball
    transform.  Hashing is done in bulk: for structured points (p o u, u) the
    head projection collapses to a membership-matrix product, one float32
    matmul per chunk of rows unpacked from the collection's cached
    :attr:`~AssortmentCollection.packed_membership`.
    """
    if params is None:
        params = default_lsh_params(len(points))
    n_pts = len(points)
    dim = points.dim + 1
    rng = np.random.default_rng(seed)
    projections = rng.standard_normal((params.tables, params.bits, dim))
    scale = float(points.norms.max())

    flat_proj = projections.reshape(params.tables * params.bits, dim)
    # head . z for z = (p o u, u) equals u . (p o head_front + head_back)
    n = points.n
    combined = (flat_proj[:, :n] * points.prices + flat_proj[:, n:2 * n]).T.astype(np.float32)
    tail = flat_proj[:, 2 * n].astype(np.float32)
    slack = np.sqrt(np.maximum(0.0, 1.0 - (points.norms / scale) ** 2)).astype(np.float32)

    keys = np.empty((params.tables, n_pts), dtype=np.uint64)
    for lo in range(0, n_pts, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, n_pts)
        mem = points.source._membership_chunk(lo, hi)  # held to the next chunk: lower peak RSS
        raw = mem @ combined
        raw /= np.float32(scale)
        raw += slack[lo:hi, None] * tail[None, :]
        chunk_bits = (raw >= 0.0).reshape(hi - lo, params.tables, params.bits)
        keys[:, lo:hi] = _pack_bits(chunk_bits).T  # all zero with 0 bits

    # numpy radix-sorts integers of 16 bits or fewer; the narrowed keys have
    # the same values, so the stable order is the same
    order = np.argsort(keys.astype(np.min_scalar_type((1 << params.bits) - 1)),
                       axis=1, kind="stable")
    table_keys = np.take_along_axis(keys, order, axis=1)
    table_ids = order.astype(np.int32)
    return LshIndex(params, seed, scale, projections, table_keys, table_ids, n_pts)


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


def load_index(path) -> LshIndex:
    with np.load(path) as data:
        version = int(data["version"])
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported index format version {version}")
        params = LshParams(int(data["bits"]), int(data["tables"]),
                           int(data["scan_cap"]))
        return LshIndex(params, int(data["seed"]), float(data["scale"]),
                        data["projections"].copy(), data["table_keys"].copy(),
                        data["table_ids"].copy(), int(data["num_points"]))


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
    retrieved (at most tables * bits + 1 entries).  The first query with a
    key vector probes the buckets and rescores through
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
        # packed key vector -> None (nothing retrieved) or [candidates,
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
        vector probes the tables (see :meth:`_retrieve`).
        """
        qkeys = _pack_bits(self._a - threshold * self._b >= 0.0)
        memo_key = qkeys.tobytes()
        if memo_key not in self._memo:
            cand = self._retrieve(qkeys)
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

    def _retrieve(self, qkeys: np.ndarray) -> np.ndarray | None:
        """Probe one bucket per table, in table order, until ``scan_cap``
        retrievals (duplicates included) have been seen; return the
        distinct ids in first-retrieval order, so ties stay deterministic,
        or None when every probed bucket is empty."""
        index = self.index
        budget = index.params.scan_cap
        retrieved: list[np.ndarray] = []
        count = 0
        for t in range(index.params.tables):
            ids = index.bucket(t, qkeys[t])
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
