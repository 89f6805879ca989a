"""Domain types and exact evaluation of multinomial-logit assortment revenue.

Items are indexed 1..n in non-increasing price order.  A buyer offered the
set A picks item i with probability v_i / (v0 + sum_{j in A} v_j), where v0
is the weight of leaving without a purchase.  The seller's expected revenue
of A is the price-weighted sum of those pick probabilities.
"""

import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "Instance",
    "Assortment",
    "AssortmentCollection",
    "SolverResult",
    "revenue",
    "collection_revenues",
    "normalize",
    "validate_collection",
]


_PACK_ROWS = 512  # rows densified at a time while packing the membership
_DECODE_ROWS = 256  # packed rows unpacked at a time while decoding them
_SUM_BLOCK = 1 << 15  # membership entries per block of set_sums
_SCREEN_LOOKUPS = 1 << 21  # lookups per block of _screen: its sums stay in cache
_SINGLE_ROUNDOFF = 2.0 ** -24  # of float32, in which the screen adds
_SINGLE_TINY = float(np.finfo(np.float32).tiny)  # 2^-126, smallest normal
_SINGLE_MAX = float(np.finfo(np.float32).max)


def _pack_rows(mask: np.ndarray) -> np.ndarray:  # the packed_membership layout
    return np.packbits(mask, axis=1, bitorder="little")


# row b holds the 8 bits of byte b, little bit order, as float32 0/1
_UNPACK = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1,
                        bitorder="little").astype(np.float32)
_POPCOUNT = _UNPACK.sum(axis=1).astype(np.uint8)  # bits set in each byte value


def _index_dtype(n: int) -> np.dtype:
    """The narrowest of int16, int32 and int64 that holds ``n`` itself, so
    that a 0-based member index plus one, its item, never wraps."""
    return next(np.dtype(t) for t in (np.int16, np.int32, np.int64) if n <= np.iinfo(t).max)


def _decode_rows(packed: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(flat, lengths) of rows packed as :func:`_pack_rows` packs ``width``
    columns: each row's set columns, sorted and concatenated, in
    :func:`_index_dtype` of ``width``, and how many each row has.

    The counts come from a byte popcount table, so the flat array is
    allocated once; then a chunk of rows at a time is unpacked, read as
    bool and its set positions, modulo the width, written into it.  No
    whole mask and no int64 index array over every row exists."""
    lengths = np.empty(len(packed), dtype=np.int64)
    ends = [0]  # where each chunk's indices end in flat
    for lo in range(0, len(packed), _DECODE_ROWS):
        part = lengths[lo:lo + _DECODE_ROWS]
        _POPCOUNT.take(packed[lo:lo + _DECODE_ROWS]).sum(axis=1, dtype=np.int64, out=part)
        ends.append(ends[-1] + int(part.sum()))
    flat = np.empty(ends[-1], dtype=_index_dtype(width))
    for lo, start, end in zip(range(0, len(packed), _DECODE_ROWS), ends, ends[1:]):
        # flatnonzero takes half the time on the bool view as on the bytes;
        # no name holds a chunk's temporaries, so one chunk's are alive at once
        np.remainder(np.flatnonzero(np.unpackbits(
            packed[lo:lo + _DECODE_ROWS], axis=1, count=width, bitorder="little").view(bool)),
            width, out=flat[start:end])
    return flat, lengths


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _item_array(items, owner: str) -> np.ndarray:
    """``items`` as one int64 array; an item that is not a whole number is
    rejected, naming its ``owner``, rather than truncated."""
    arr = items if isinstance(items, np.ndarray) else np.array(list(items))
    if arr.size == 0:
        return np.empty(0, dtype=np.int64)
    whole = arr.dtype.kind in "iu" or (
        arr.dtype.kind == "f" and np.isfinite(arr).all() and (arr == np.trunc(arr)).all())
    if arr.ndim != 1 or not whole:
        raise ValueError(f"{owner} contains a non-integer item; items are whole numbers")
    return arr.astype(np.int64, copy=False)


def _check_v0(v0) -> None:
    # a bool is an int; a string or None would fail the comparison with TypeError
    if isinstance(v0, bool) or not isinstance(v0, numbers.Real) or not 0.0 < v0 < np.inf:
        raise ValueError("v0 must be a positive finite number")


@dataclass(frozen=True)
class Instance:
    """Item prices and choice weights, sorted by non-increasing price.

    ``weights[k]`` is the preference weight of item ``k + 1`` and ``v0`` the
    weight of walking away without buying; scaling both together leaves
    every revenue unchanged.  ``item_ids`` keeps the caller's labels when
    :meth:`from_items` had to re-sort.
    """

    prices: np.ndarray
    weights: np.ndarray
    v0: float
    item_ids: tuple[int, ...] | None = None

    def __post_init__(self):
        prices = _frozen_array(self.prices)
        weights = _frozen_array(self.weights)
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "weights", weights)
        if prices.ndim != 1 or prices.size < 1 or prices.shape != weights.shape:
            raise ValueError("prices and weights must be 1-d arrays of equal length >= 1")
        # every comparison with NaN is false, so each check asks for what holds
        if not (np.isfinite(prices) & (prices >= 0)).all():
            raise ValueError("prices must be finite and non-negative")
        if (prices[1:] > prices[:-1]).any():
            raise ValueError("prices must be non-increasing; use Instance.from_items to sort")
        if not (np.isfinite(weights) & (weights >= 0)).all():
            raise ValueError("weights must be finite and non-negative")
        _check_v0(self.v0)
        if self.item_ids is not None:
            ids = tuple(_item_array(self.item_ids, "item_ids").tolist())
            if len(ids) != prices.size:
                raise ValueError("item_ids must have one label per item")
            if len(set(ids)) != len(ids):
                raise ValueError("item_ids must be distinct; a label names one item")
            object.__setattr__(self, "item_ids", ids)

    @property
    def n(self) -> int:
        return int(self.prices.size)

    @property
    def p1(self) -> float:
        """Top price; an upper bound on the revenue of every assortment."""
        return float(self.prices[0])

    def labels(self) -> tuple[int, ...]:
        """External label of each item position (identity when never sorted)."""
        return self.item_ids if self.item_ids is not None else tuple(range(1, self.n + 1))

    @classmethod
    def from_items(cls, prices, weights, v0, item_ids=None) -> "Instance":
        """Build an instance from arbitrarily ordered items, sorting by price.

        The original labels survive in ``item_ids`` so that assortments can be
        reported in the caller's numbering.
        """
        p = np.asarray(prices, dtype=float)
        w = np.asarray(weights, dtype=float)
        if p.shape != w.shape:
            raise ValueError("prices and weights must have equal length")
        labels = tuple(item_ids) if item_ids is not None else tuple(range(1, p.size + 1))
        if len(labels) != p.size:
            raise ValueError("item_ids must have one label per item")
        order = np.argsort(-p, kind="stable")
        return cls(p[order], w[order], v0, tuple(labels[i] for i in order))


@dataclass(frozen=True)
class Assortment:
    """A subset of items by 1-based index.

    Empty assortments are allowed only as a "nothing found" sentinel;
    members of a feasible collection must be non-empty.
    """

    items: frozenset[int] = frozenset()

    def __post_init__(self):
        items = self.items
        if not (isinstance(items, np.ndarray) and items.dtype.kind in "iu"):
            items = _item_array(items, "assortment")
        # tolist() yields Python ints in one call, not one int() per member
        object.__setattr__(self, "items", frozenset(items.tolist()))

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.items))

    def __contains__(self, item: int) -> bool:
        return item in self.items

    def indices(self) -> np.ndarray:
        """Sorted 0-based positions of the members."""
        return np.sort(np.fromiter(self.items, dtype=np.int64, count=len(self.items))) - 1


class AssortmentCollection:
    """An explicit list of feasible assortments over items 1..n.

    Membership is stored as one concatenated index array so that per-set
    reductions vectorize; individual :class:`Assortment` views are built on
    demand.  Instances are immutable after construction.
    """

    def __init__(self, sets: Iterable, n: int):
        members: list[np.ndarray] = []
        for k, s in enumerate(sets):
            items = s.items if isinstance(s, Assortment) else s
            members.append(np.unique(_item_array(items, f"set {k}")) - 1)
        lengths = np.fromiter((m.size for m in members), dtype=np.int64, count=len(members))
        flat = np.concatenate(members) if members else np.empty(0, dtype=np.int64)
        self._init_arrays(n, flat, lengths)

    def _init_arrays(self, n: int, flat: np.ndarray, lengths: np.ndarray) -> None:
        """Every constructor ends here, so the collection invariants are
        checked in one place, once.  Members are sorted and unique, so each
        set's first and last members bound it: the range check is O(sets).
        It reads the caller's values; only then is ``flat`` stored in
        :func:`_index_dtype` of n, the narrowest of int16, int32 and int64
        that holds n itself (an item of 65541 would wrap to 5 in int16).
        Starts and lengths stay int64."""
        if lengths.size == 0:
            raise ValueError("collection must contain at least one assortment")
        if np.any(lengths == 0):
            raise ValueError("feasible assortments must be non-empty")
        self.n = int(n)
        starts = np.zeros(lengths.size, dtype=np.int64)
        np.cumsum(lengths[:-1], out=starts[1:])
        outside = (flat[starts] < 0) | (flat[starts + lengths - 1] >= self.n)
        if outside.any():
            bad = int(np.argmax(outside))
            mem = flat[starts[bad]:starts[bad] + lengths[bad]]
            item = int(mem[(mem < 0) | (mem >= self.n)][0]) + 1
            raise ValueError(f"set {bad} contains item index {item}, outside 1..{self.n}")
        self._flat = flat.astype(_index_dtype(self.n), copy=False)
        self._lengths = lengths
        self._starts = starts
        self._kept: dict[str, tuple] = {}  # see _keep
        for arr in (self._flat, self._lengths, self._starts):
            arr.setflags(write=False)

    @classmethod
    def from_membership(cls, mask: np.ndarray, n: int | None = None) -> "AssortmentCollection":
        """Build from a boolean matrix with one row per assortment."""
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2:
            raise ValueError("membership mask must be a 2-d matrix, one row per set")
        width = mask.shape[1]
        obj = cls.__new__(cls)
        obj._init_arrays(n if n is not None else width, *_decode_rows(_pack_rows(mask), width))
        return obj

    @classmethod
    def _from_packed(cls, packed: np.ndarray, n: int) -> "AssortmentCollection":
        """Build from rows in the :attr:`packed_membership` layout, copied
        to its byte-major storage, then decoded a chunk at a time."""
        stored = np.empty(packed.shape[::-1], dtype=np.uint8)
        for lo in range(0, len(packed), _PACK_ROWS):
            stored[:, lo:lo + _PACK_ROWS] = packed[lo:lo + _PACK_ROWS].T
        stored.setflags(write=False)
        obj = cls.__new__(cls)
        obj._init_arrays(n, *_decode_rows(packed, n))
        obj.__dict__["packed_membership"] = stored.T
        return obj

    @classmethod
    def _from_arrays(cls, n: int, flat: np.ndarray, lengths: np.ndarray) -> "AssortmentCollection":
        obj = cls.__new__(cls)
        obj._init_arrays(n, np.asarray(flat, dtype=np.int64).copy(),
                         np.asarray(lengths, dtype=np.int64).copy())
        return obj

    def __len__(self) -> int:
        return int(self._lengths.size)

    def member_indices(self, i: int) -> np.ndarray:
        """0-based item positions of set ``i`` (sorted)."""
        start = self._starts[i]
        return self._flat[start:start + self._lengths[i]]

    def __getitem__(self, i: int) -> Assortment:
        return Assortment(self.member_indices(i) + 1)

    def __iter__(self) -> Iterator[Assortment]:
        for i in range(len(self)):
            yield self[i]

    @cached_property
    def flat_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(concatenated 0-based indices, start offsets, lengths) for reductions.

        The indices are in the narrowest of int16, int32 and int64 that holds
        n itself, so 2 bytes each below n = 2^15; offsets and lengths are
        int64.  Widen the indices before arithmetic that can pass n."""
        return self._flat, self._starts, self._lengths

    @cached_property
    def packed_membership(self) -> np.ndarray:
        """Read-only (sets, ceil(n/8)) bit matrix of the membership.

        Item i of set s is bit i % 8 of byte i // 8 in row s (little bit
        order, as ``np.unpackbits(..., bitorder="little")`` reads it).  It
        is the transposed view of one C-contiguous (ceil(n/8), sets) array,
        so each byte position's bytes are contiguous, as the screen reads
        them.  The collection is immutable, so the matrix is built once,
        from :attr:`flat_arrays` a chunk of rows at a time (a generated
        catalog arrives with it), and every screen and index build reuses it.
        """
        sets, n = len(self), self.n
        out = np.empty(((n + 7) // 8, sets), dtype=np.uint8)
        for lo in range(0, sets, _PACK_ROWS):
            hi = min(lo + _PACK_ROWS, sets)
            rows = np.zeros((hi - lo) * n, dtype=bool)
            first, last = self._starts[lo], self._starts[hi - 1] + self._lengths[hi - 1]
            rows[np.repeat(np.arange(hi - lo) * n, self._lengths[lo:hi])
                 + self._flat[first:last]] = True
            out[:, lo:hi] = _pack_rows(rows.reshape(hi - lo, n)).T
        out.setflags(write=False)
        return out.T

    def _membership_rows(self, rows, out: np.ndarray | None = None) -> np.ndarray:
        """Dense float32 0/1 membership of the sets ``rows``, a slice or an
        array of set ids, unpacked from :attr:`packed_membership` by one
        gather through ``_UNPACK``, into the head of ``out``, of shape
        (at least len(rows), ceil(n/8), 8), when one is given."""
        packed = self.packed_membership[rows]
        if out is not None:
            out = out[:len(packed)]
        # a byte always indexes one of _UNPACK's 256 rows, so "clip" only
        # drops the bounds check, and with it np.take's buffering of ``out``
        dense = _UNPACK.take(packed, axis=0, out=out, mode="clip")
        return dense.reshape(len(packed), -1)[:, :self.n]

    def _keep(self, name: str, key: np.ndarray, make):
        """``make(key)``, kept under ``name`` with a copy of ``key`` and reused
        while later keys are equal.  One pair per name, replaced whole, so
        concurrent callers each get the value of their own key."""
        kept = self._kept.get(name)
        if kept is None or not np.array_equal(kept[0], key):
            key = np.array(key, dtype=float)  # a copy, so the key cannot change
            kept = self._kept[name] = (key, make(key))
        return kept[1]

    def set_sums(self, values: np.ndarray, ids: np.ndarray | None = None) -> np.ndarray:
        """Per-item ``values`` summed over each set, or over sets ``ids`` in order.

        ``values`` has shape (n,), or (k, n) for k quantities summed over the
        same sets; the result has shape (sets,) or (k, sets).  Every exact
        per-set sum goes through here.  A set's sum depends only on its own
        members, so it is bit-identical whether taken over the whole
        collection or over any selection of ids.  Whole sets are reduced in
        blocks of about ``_SUM_BLOCK`` membership entries: the k rows are
        interleaved into one (n, k) copy, so one gather through a block's
        indices fetches every row into one buffer made per call, which
        stays in cache, and no temporary grows with the entries.
        """
        values = np.asarray(values, dtype=float)
        if values.shape[-1:] != (self.n,):
            raise ValueError(f"values must have {self.n} entries per row, one per item")
        if ids is None:
            flat, starts = self._flat, self._starts
        else:
            lengths = self._lengths[ids]
            # one slice per set: for 75 sets of ~500 members, copying the
            # contiguous runs takes half the time of one fancy-index gather
            runs = [self._flat[lo:lo + size] for lo, size in
                    zip(self._starts[ids].tolist(), lengths.tolist())]
            flat = np.concatenate(runs) if runs else self._flat[:0]
            starts = np.zeros(lengths.size, dtype=np.int64)
            np.cumsum(lengths[:-1], out=starts[1:])
        cuts, edges = [0, starts.size], [0, flat.size]
        # a block holds the sets starting in one window of _SUM_BLOCK entries;
        # a call of up to two blocks, as a hashed rescore is, fits cache whole
        if flat.size > 2 * _SUM_BLOCK:
            cuts[1:1] = (np.flatnonzero(np.diff(starts // _SUM_BLOCK)) + 1).tolist()
            edges[1:1] = starts[cuts[1:-1]].tolist()
        rows = np.ascontiguousarray(values.reshape(-1, self.n).T)  # (n, k)
        buf = np.empty((max(hi - lo for lo, hi in zip(edges, edges[1:])), rows.shape[1]))
        out = np.empty((rows.shape[1], starts.size))
        # every index is in 0..n-1, as _init_arrays checked, so "clip" only
        # drops np.take's bounds check, and it writes straight into the buffer
        for a, b, lo, hi in zip(cuts, cuts[1:], edges, edges[1:]):
            part = buf[:hi - lo]
            np.take(rows, flat[lo:hi], axis=0, out=part, mode="clip")
            local = starts[a:b] - lo if lo else starts[a:b]
            for row, sums in zip(part.T, out):  # a column view sums as its copy would
                np.add.reduceat(row, local, out=sums[a:b])
        return out.reshape(values.shape[:-1] + starts.shape)

    def _screen(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        """Bounds (lower, upper), each of shape (2, sets), that hold every
        sum of :meth:`set_sums` over two value rows, or None where the
        screen does not run.

        Each byte of :attr:`packed_membership` names which of 8 items a set
        holds, so a 256-entry table per byte position holds their partial
        sums ("Four Russians", Arlazarov et al. 1970): a set costs ceil(n/8)
        lookups instead of one gather per member.  The two rows are looked
        up together, as the real and imaginary parts of one complex table.
        The tables are built in float64 and rounded once to complex64, so a
        lookup moves 8 bytes, and the sums are accumulated in complex64.
        A block of sets is read by byte position, in place: the membership
        is stored byte-major, so each position's bytes are contiguous, and
        each position's lookups are added into the block's sums in turn.
        A set's sum adds its terms in byte order whatever the block size,
        so the bounds do not depend on it.

        The bound, with w = ceil(n/8), u = 2^-24 and gamma_k(u) = k u /
        (1 - k u) (Higham, Accuracy and Stability of Numerical Algorithms,
        2002, secs. 3.1 and 4.2).  Let s be a set's true sum.  A table entry
        adds at most 8 values in float64, within gamma_7(2^-53) <= u of
        their sum, and is rounded once to float32, within u more: every
        value is 0 or at least float32's smallest normal, so every entry is
        too, and rounding it is relative.  A screened sum adds w entries in
        float32, starting from zero, so w - 1 roundings; in all, it lies
        within a = gamma_(w+1)(u) of s (Higham's lemma 3.3).  A sum of
        :meth:`set_sums` adds at most m = 8w terms in float64, so it lies
        within b = gamma_m(2^-53) of s, and b < a / 2^25.  The two differ
        by at most (a + b) / (1 - a) < 2a of the screened sum, and the
        bounds widen that to delta = 4a, which also covers the rounding of
        delta and of the two products; at n = 1000, delta = 3.0e-5.

        The screen runs only where it pays: where its (N + 256) w lookups
        and table entries are at most half the membership entries (so
        sparse sets never pack), and only for finite values, each 0 or
        between float32's smallest normal and float32's largest value over
        2n, so no entry, sum or bound overflows.  It returns None otherwise.
        """
        sets, width = len(self), (self.n + 7) // 8
        k_u = (width + 1) * _SINGLE_ROUNDOFF  # the bound needs a <= 1/4: k_u <= 1/5
        if 2 * (sets + 256) * width > self._flat.size or 5 * k_u > 1:
            return None
        values = np.asarray(values, dtype=float)
        # NaN fails every test; a negative value or a nonzero one below the
        # smallest normal fails the first
        if not (((values == 0) | (values >= _SINGLE_TINY)).all()
                and values.max() < _SINGLE_MAX / (2 * self.n)):
            return None
        pairs = np.zeros((8 * width, 2))
        pairs[:self.n] = values.T
        pairs = pairs.view(complex).reshape(width, 8)
        # entry b of a byte's table sums the items of the bits set in b
        tables = np.zeros((width, 256), dtype=complex)
        for bit in range(8):
            np.add(tables[:, :1 << bit], pairs[:, bit, None],
                   out=tables[:, 1 << bit:2 << bit])
        tables = tables.astype(np.complex64)  # each entry rounded once
        packed = self.packed_membership.T  # (width, sets), C-contiguous
        sums = np.zeros(sets, dtype=np.complex64)
        step = min(sets, max(1, _SCREEN_LOOKUPS // width))  # sets per block
        buf = np.empty(step, dtype=np.complex64)
        for lo in range(0, sets, step):
            hi = min(lo + step, sets)
            part, out = buf[:hi - lo], sums[lo:hi]
            # every byte is a valid table index, so "clip" only drops the
            # check; the method skips np.take's wrapper, 500 calls a screen
            # at n=1000, N=51200
            for table, byte in zip(tables, packed[:, lo:hi]):
                table.take(byte, out=part, mode="clip")
                out += part
        lower = sums.view(np.float32).reshape(sets, 2).T.astype(float)
        delta = 4 * k_u / (1 - k_u)
        upper = lower * (1 + delta)
        lower *= 1 - delta
        return lower, upper

    def _argmax(self, values: np.ndarray, score) -> tuple[int, float]:
        """Lowest id and value of the maximum of ``score(*self.set_sums(values))``.

        ``score(A, B)`` maps the two rows of sums to one score per set, and
        must not fall as A grows nor rise as B grows.  Correctly rounded
        arithmetic keeps such a formula monotone, so with the bounds of
        :meth:`_screen` it bounds every exact score from above and below
        without error analysis of its own.  Then only the sets whose upper
        score reaches the greatest lower score can hold the maximum or tie
        it; they are scored through ``set_sums(values, ids)``, bit-identical
        to the full sums, and the answer equals the unscreened one.  The
        screen, or the full sums where it does not run, is kept (:meth:`_keep`).
        """
        bounds = self._keep("screen", values, self._screen)
        if bounds is None:
            ids, sums = None, self._keep("sums", values, self.set_sums)
        else:
            lower, upper = bounds
            ids = np.flatnonzero(score(upper[0], lower[1]) >= score(lower[0], upper[1]).max())
            sums = self.set_sums(values, ids)
        scores = score(*sums)
        best = int(np.argmax(scores))
        return (best if ids is None else int(ids[best])), float(scores[best])


@dataclass(frozen=True)
class SolverResult:
    """Outcome of one solver run.

    ``revenue`` is always :func:`revenue` of the returned set, its one
    revenue (the exact scan's sum), never a search bound.  The solver's
    final bracket on the optimum is ``revenue_interval``; ``estimate`` is
    set by solvers whose estimate can differ from it (noisy search).
    """

    assortment: Assortment
    revenue: float
    revenue_interval: tuple[float, float]
    iterations: int
    wall_time: float
    estimate: float | None = None

    def __post_init__(self):
        lo, hi = self.revenue_interval
        if not lo <= hi:  # also rejects a NaN bound
            raise ValueError("revenue_interval must satisfy lower <= upper")
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")


def revenue(a: Assortment, inst: Instance) -> float:
    """Expected revenue of offering assortment ``a``: sum of price-weighted
    multinomial-logit pick probabilities.  The empty assortment earns 0.
    A set has one revenue, the scan's: its members are summed as
    :meth:`AssortmentCollection.set_sums` sums them, bit for bit."""
    idx = a.indices()
    if idx.size and (idx[0] < 0 or idx[-1] >= inst.n):
        bad = int(idx[0] + 1 if idx[0] < 0 else idx[-1] + 1)
        raise ValueError(f"item index {bad} out of range 1..{inst.n}")
    return _sorted_revenue(inst, idx)


def _sorted_revenue(inst: Instance, idx: np.ndarray) -> float:
    """:func:`revenue` of the set at ascending 0-based positions ``idx`` of
    ``inst``, which the caller has checked; 0 for no positions."""
    if idx.size == 0:
        return 0.0
    values, revenues = _revenue_terms(inst, idx)
    return revenues(*np.add.reduceat(values, [0], axis=1)[:, 0].tolist())


def _value_rows(prices: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The per-item rows (p o v, v) whose per-set sums (A, B) give revenue
    A / (v0 + B) and the threshold score A - K B.  Every exact path builds
    its rows here, so a customer's screen, kept under its rows, serves the
    scan and the exact engine alike."""
    return np.array([prices * weights, weights])


def _revenue_terms(inst: Instance, items=slice(None)):
    """The value rows of ``items`` (all by default) and the revenue of
    their sums, num / (v0 + den)."""
    return (_value_rows(inst.prices[items], inst.weights[items]),
            lambda num, den: num / (inst.v0 + den))


def collection_revenues(c: AssortmentCollection, inst: Instance) -> np.ndarray:
    """Exact revenue of every set, vectorized; entry i is ``revenue(c[i], inst)``."""
    validate_collection(c, inst)
    values, revenues = _revenue_terms(inst)
    return revenues(*c.set_sums(values))


def normalize(inst: Instance) -> Instance:
    """Rescale prices so the top price is 1; every revenue scales by 1/p1."""
    p1 = inst.p1
    if p1 <= 0:
        raise ValueError("cannot normalize a degenerate instance with top price 0")
    return Instance(inst.prices / p1, inst.weights, inst.v0, inst.item_ids)


def validate_collection(c: AssortmentCollection, inst: Instance) -> None:
    """Check that the collection is over the instance's items, in O(1); every
    other invariant holds from the collection's construction."""
    if inst.n != c.n:
        raise ValueError(f"collection is over {c.n} items but instance has {inst.n}")
