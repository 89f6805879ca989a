"""Domain types and exact evaluation of multinomial-logit assortment revenue.

Items are indexed 1..n in non-increasing price order.  A buyer offered the
set A picks item i with probability v_i / (v0 + sum_{j in A} v_j), where v0
is the weight of leaving without a purchase.  The seller's expected revenue
of A is the price-weighted sum of those pick probabilities.
"""

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


_PACK_ROWS = 4096  # rows densified at a time while packing the membership


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Instance:
    """Item prices and choice weights, sorted by non-increasing price.

    ``weights[k]`` is the preference weight of item ``k + 1`` and ``v0`` the
    weight of walking away without buying.  ``price_scale`` carries the
    original top price through :func:`normalize` so results can be mapped
    back to currency units.  ``item_ids`` keeps the caller's labels when
    :meth:`from_items` had to re-sort.
    """

    prices: np.ndarray
    weights: np.ndarray
    v0: float
    price_scale: float = 1.0
    item_ids: tuple[int, ...] | None = None

    def __post_init__(self):
        prices = _frozen_array(self.prices)
        weights = _frozen_array(self.weights)
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "weights", weights)
        if prices.ndim != 1 or prices.size < 1 or prices.shape != weights.shape:
            raise ValueError("prices and weights must be 1-d arrays of equal length >= 1")
        if np.any(np.diff(prices) > 0):
            raise ValueError("prices must be non-increasing; use Instance.from_items to sort")
        if np.any(prices < 0):
            raise ValueError("prices must be non-negative")
        if np.any((weights < 0) | (weights > 1)):
            raise ValueError("weights must lie in [0, 1]")
        if not 0.0 < self.v0 <= 1.0:
            raise ValueError("v0 must lie in (0, 1]")
        if not self.price_scale > 0:
            raise ValueError("price_scale must be positive")
        if self.item_ids is not None:
            ids = tuple(int(i) for i in self.item_ids)
            if len(ids) != prices.size:
                raise ValueError("item_ids must have one label per item")
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
    def from_items(cls, prices, weights, v0, item_ids=None, price_scale: float = 1.0) -> "Instance":
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
        return cls(p[order], w[order], v0, price_scale,
                   tuple(int(labels[i]) for i in order))


@dataclass(frozen=True)
class Assortment:
    """A subset of items by 1-based index.

    Empty assortments are allowed only as a "nothing found" sentinel;
    members of a feasible collection must be non-empty.
    """

    items: frozenset[int] = frozenset()

    def __post_init__(self):
        items = self.items
        if isinstance(items, np.ndarray) and items.dtype.kind in "iu":
            # tolist() yields Python ints in one call, not one int() per member
            items = frozenset(items.tolist())
        else:
            items = frozenset(int(i) for i in items)
        object.__setattr__(self, "items", items)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.items))

    def __contains__(self, item: int) -> bool:
        return item in self.items

    def indices(self) -> np.ndarray:
        """Sorted 0-based positions of the members."""
        return np.fromiter(sorted(self.items), dtype=np.int64, count=len(self.items)) - 1

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(sorted(self.items))


class AssortmentCollection:
    """An explicit list of feasible assortments over items 1..n.

    Membership is stored as one concatenated index array so that per-set
    reductions vectorize; individual :class:`Assortment` views are built on
    demand.  Instances are immutable after construction.
    """

    def __init__(self, sets: Iterable, n: int):
        members: list[np.ndarray] = []
        for s in sets:
            items = s.items if isinstance(s, Assortment) else s
            arr = np.fromiter((int(i) for i in items), dtype=np.int64)
            members.append(np.unique(arr) - 1)
        lengths = np.fromiter((m.size for m in members), dtype=np.int64, count=len(members))
        flat = np.concatenate(members) if members else np.empty(0, dtype=np.int64)
        self._init_arrays(n, flat, lengths)

    def _init_arrays(self, n: int, flat: np.ndarray, lengths: np.ndarray) -> None:
        """Every constructor ends here, so the collection invariants are
        checked in one place, once.  Members are sorted and unique, so each
        set's first and last members bound it: the range check is O(sets)."""
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
        self._flat = flat
        self._lengths = lengths
        self._starts = starts
        for arr in (self._flat, self._lengths, self._starts):
            arr.setflags(write=False)

    @classmethod
    def from_membership(cls, mask: np.ndarray, n: int | None = None) -> "AssortmentCollection":
        """Build from a boolean matrix with one row per assortment."""
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2:
            raise ValueError("membership mask must be a 2-d matrix, one row per set")
        # row-major flat positions modulo the row width are the column
        # indices, sorted within each row; fresh int64 arrays need no copy
        flat = np.flatnonzero(mask)
        flat %= mask.shape[1]
        obj = cls.__new__(cls)
        obj._init_arrays(n if n is not None else mask.shape[1], flat,
                         mask.sum(axis=1, dtype=np.int64))
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
        """(concatenated 0-based indices, start offsets, lengths) for reductions."""
        return self._flat, self._starts, self._lengths

    @cached_property
    def packed_membership(self) -> np.ndarray:
        """Read-only (sets, ceil(n/8)) bit matrix of the membership.

        Item i of set s is bit i % 8 of byte i // 8 in row s (little bit
        order, as ``np.unpackbits(..., bitorder="little")`` reads it).  The
        collection is immutable, so the matrix is built once, from
        :attr:`flat_arrays` a chunk of rows at a time, and every index build
        over the collection reuses it.
        """
        sets, n = len(self), self.n
        out = np.empty((sets, (n + 7) // 8), dtype=np.uint8)
        for lo in range(0, sets, _PACK_ROWS):
            hi = min(lo + _PACK_ROWS, sets)
            rows = np.zeros((hi - lo) * n, dtype=bool)
            first, last = self._starts[lo], self._starts[hi - 1] + self._lengths[hi - 1]
            rows[np.repeat(np.arange(hi - lo) * n, self._lengths[lo:hi])
                 + self._flat[first:last]] = True
            out[lo:hi] = np.packbits(rows.reshape(hi - lo, n), axis=1, bitorder="little")
        out.setflags(write=False)
        return out

    def set_sums(self, values: np.ndarray, ids: np.ndarray | None = None) -> np.ndarray:
        """Per-item ``values`` summed over each set, or over sets ``ids`` in order.

        ``values`` has shape (n,), or (k, n) for k quantities summed over the
        same sets; the result has shape (sets,) or (k, sets).  Every per-set
        reduction goes through here.  A set's sum depends only on its own
        members, so it is bit-identical whether taken over the whole
        collection or over any selection of ids.  Rows are gathered one at a
        time, so the peak temporary is one float per membership entry.
        """
        values = np.asarray(values)
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
        out = np.empty(values.shape[:-1] + starts.shape)
        for row in np.ndindex(values.shape[:-1]):
            out[row] = np.add.reduceat(values[row][flat], starts)
        return out


@dataclass(frozen=True)
class SolverResult:
    """Outcome of one solver run.

    ``revenue`` is always the exact evaluation of the returned assortment,
    never a search bound.  ``revenue_interval`` is the solver's final
    bracket on the optimum.  ``estimate`` is set by solvers whose revenue
    estimate can differ from the returned set's revenue (noisy search).
    """

    assortment: Assortment
    revenue: float
    revenue_interval: tuple[float, float]
    iterations: int
    wall_time: float
    estimate: float | None = None

    def __post_init__(self):
        lo, hi = self.revenue_interval
        if lo > hi:
            raise ValueError("revenue_interval must satisfy lower <= upper")
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")


def revenue(a: Assortment, inst: Instance) -> float:
    """Expected revenue of offering assortment ``a``: sum of price-weighted
    multinomial-logit pick probabilities.  The empty assortment earns 0."""
    if len(a) == 0:
        return 0.0
    idx = a.indices()
    if idx[0] < 0 or idx[-1] >= inst.n:
        bad = int(idx[0] + 1 if idx[0] < 0 else idx[-1] + 1)
        raise ValueError(f"item index {bad} out of range 1..{inst.n}")
    w = inst.weights[idx]
    num = float(inst.prices[idx] @ w)
    return num / (inst.v0 + float(w.sum()))


def collection_revenues(c: AssortmentCollection, inst: Instance) -> np.ndarray:
    """Exact revenue of every set in the collection, vectorized."""
    validate_collection(c, inst)
    num, den = c.set_sums(np.stack([inst.prices * inst.weights, inst.weights]))
    return num / (inst.v0 + den)


def normalize(inst: Instance) -> Instance:
    """Rescale prices so the top price is 1, composing into ``price_scale``.

    Revenue of any set scales by exactly 1/p1, so argmaxes are unchanged.
    """
    p1 = inst.p1
    if p1 <= 0:
        raise ValueError("cannot normalize a degenerate instance with top price 0")
    return Instance(inst.prices / p1, inst.weights, inst.v0,
                    inst.price_scale * p1, inst.item_ids)


def validate_collection(c: AssortmentCollection, inst: Instance) -> None:
    """Check that the collection is over the instance's items, in O(1); every
    other invariant holds from the collection's construction."""
    if inst.n != c.n:
        raise ValueError(f"collection is over {c.n} items but instance has {inst.n}")
