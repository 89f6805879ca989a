"""Instance generation, itemset-file ingestion, and result serialization.

Itemset files use the plain text layout produced by common frequent-itemset
miners: one set per line as whitespace-separated integer item ids, with an
optional trailing "#SUP: <count>" annotation that is ignored here.
"""

import csv
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .model import (AssortmentCollection, Instance, SolverResult, _check_v0,
                    _pack_rows)

__all__ = [
    "GenSpec",
    "generate_instance",
    "load_itemsets",
    "load_prices",
    "instance_from_files",
    "save_instance",
    "load_instance",
    "save_itemsets",
    "ResultRecord",
    "write_results",
]


@dataclass(frozen=True)
class GenSpec:
    """Recipe for a random instance.

    ``num_sets`` is the number of distinct feasible assortments to sample
    uniformly from all non-empty subsets; None means a capacity-style
    instance with no explicit collection.  ``v0`` is the no-purchase weight,
    a positive finite number as :class:`Instance` requires.
    """

    n: int
    num_sets: int | None = None
    price_range: tuple[float, float] = (0.0, 1000.0)
    v0: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.num_sets is not None and self.num_sets < 1:
            raise ValueError("num_sets must be positive when given")
        if self.price_range[0] > self.price_range[1]:
            raise ValueError("price_range must satisfy lo <= hi")
        _check_v0(self.v0)


_DRAW_VALUES = 1 << 14  # uniforms per block of rows in subset sampling


def _sample_distinct_subsets(rng: np.random.Generator, n: int,
                             count: int) -> AssortmentCollection:
    """``count`` distinct non-empty uniform subsets, in first-drawn order.
    Uniforms are drawn a block of rows at a time into one reused buffer
    (the stream is sequential, so they equal one ``rng.random((chunk, n))``)
    and packed as drawn, in the collection's ``packed_membership`` layout.
    Rows are deduplicated on their packed bits, one void value each, which
    ``np.unique`` sorts several times faster than ``axis=0``; the collection
    copies the packed rows byte-major, so the catalog is packed once."""
    if count > 2**n - 1:
        raise ValueError(
            f"cannot draw {count} distinct non-empty subsets of {n} items")
    row = np.dtype((np.void, (n + 7) // 8))
    seen = np.empty(0, dtype=row)
    block = np.empty((max(1, _DRAW_VALUES // n), n))
    while seen.size < count:
        chunk = max(256, count - seen.size)
        packed = np.empty((chunk, row.itemsize), dtype=np.uint8)
        for lo in range(0, chunk, len(block)):
            hi = min(lo + len(block), chunk)
            draws = block[:hi - lo]
            rng.random(out=draws)
            packed[lo:hi] = _pack_rows(draws < 0.5)
        keys = packed.view(row).ravel()
        # first occurrences over the rows kept so far, then this chunk's;
        # those falling in this chunk are its new rows
        _, first = np.unique(np.concatenate([seen, keys]), return_index=True)
        new = np.sort(first[first >= seen.size]) - seen.size
        new = new[packed[new].any(axis=1)][:count - seen.size]
        seen = np.concatenate([seen, keys[new]])
    return AssortmentCollection._from_packed(seen.view(np.uint8).reshape(count, -1), n)


def generate_instance(spec: GenSpec) -> tuple[Instance, AssortmentCollection | None]:
    """Draw an instance (and optionally a collection), deterministic per seed.

    Prices are drawn uniformly then sorted descending; weights are uniform
    on [0, 1]; feasible sets are distinct uniform non-empty subsets.
    """
    rng = np.random.default_rng(spec.seed)
    prices = np.sort(rng.uniform(*spec.price_range, size=spec.n))[::-1].copy()
    weights = rng.uniform(0.0, 1.0, size=spec.n)
    inst = Instance(prices, weights, spec.v0)
    if spec.num_sets is None:
        return inst, None
    return inst, _sample_distinct_subsets(rng, spec.n, spec.num_sets)


def load_itemsets(path, min_card: int = 1,
                  max_card: int | None = None) -> tuple[AssortmentCollection, tuple[int, ...]]:
    """Parse an itemset file, keep sets with min_card <= |S| <= max_card.

    Item ids are remapped to a dense 1..n range; the returned tuple maps
    dense index k (position k-1) back to the original id.
    """
    raw_sets: list[list[int]] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.partition("#")[0].strip()
            if not line.strip():
                continue
            tokens = body.split()
            if not tokens:
                raise ValueError(f"{path}: line {lineno}: no item ids before annotation")
            try:
                ids = sorted({int(t) for t in tokens})
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: malformed item id") from None
            raw_sets.append(ids)

    hi = max_card if max_card is not None else max((len(s) for s in raw_sets), default=0)
    kept = [s for s in raw_sets if min_card <= len(s) <= hi]
    if not kept:
        raise ValueError(f"{path}: no itemsets left after cardinality filtering")

    original_ids = sorted({i for s in kept for i in s})
    dense = {orig: k + 1 for k, orig in enumerate(original_ids)}
    collection = AssortmentCollection(
        ([dense[i] for i in s] for s in kept), n=len(original_ids))
    return collection, tuple(original_ids)


def load_prices(path) -> list[tuple[int, float]]:
    """Parse an id,price CSV; rejects duplicates and negative or non-finite prices."""
    out: list[tuple[int, float]] = []
    seen: set[int] = set()
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        cols = [c.strip().lower() for c in reader.fieldnames or []]
        if "id" not in cols or "price" not in cols:
            raise ValueError(f"{path}: header must contain 'id' and 'price' columns")
        idc = (reader.fieldnames or [])[cols.index("id")]
        prc = (reader.fieldnames or [])[cols.index("price")]
        for rowno, row in enumerate(reader, start=2):
            try:
                item = int(row[idc])
                price = float(row[prc])
            except (TypeError, ValueError):
                raise ValueError(f"{path}: row {rowno}: malformed id or price") from None
            if item in seen:
                raise ValueError(f"{path}: row {rowno}: duplicate id {item}")
            if not (np.isfinite(price) and price >= 0):
                raise ValueError(f"{path}: row {rowno}: price {price} is negative or not finite")
            seen.add(item)
            out.append((item, price))
    return out


def instance_from_files(itemsets_path, prices_path=None, *, min_card: int = 1,
                        max_card: int | None = None,
                        price_range: tuple[float, float] = (0.0, 1000.0),
                        v0: float = 1.0, seed: int = 0,
                        ) -> tuple[Instance, AssortmentCollection]:
    """Assemble a ready-to-solve instance from mined itemsets.

    Prices come from the CSV when present; items missing from it (or all
    items, when no CSV is given) get prices drawn uniformly from
    ``price_range``.  Weights are always drawn uniformly on [0, 1].  The
    instance is sorted by price and the collection's indices are remapped to
    match, so external ids survive in ``Instance.item_ids``.
    """
    collection, original_ids = load_itemsets(itemsets_path, min_card, max_card)
    n = collection.n
    rng = np.random.default_rng(seed)
    prices = rng.uniform(*price_range, size=n)
    if prices_path is not None:
        table = dict(load_prices(prices_path))
        for k, orig in enumerate(original_ids):
            if orig in table:
                prices[k] = table[orig]
    weights = rng.uniform(0.0, 1.0, size=n)
    inst = Instance.from_items(prices, weights, v0, item_ids=original_ids)
    return inst, onto_instance(collection, original_ids, inst)


def onto_instance(collection: AssortmentCollection, labels: Sequence[int],
                  inst: Instance) -> AssortmentCollection:
    """Re-index a collection whose item k is labelled ``labels[k - 1]`` (as
    :func:`load_itemsets` numbers them) onto the positions of ``inst``'s
    items with those labels; a label the instance lacks is rejected."""
    position = {label: k for k, label in enumerate(inst.labels())}
    missing = [label for label in labels if label not in position]
    if missing:
        raise ValueError(f"itemsets name item {missing[0]}, which the instance does not have")
    new_pos = np.array([position[label] for label in labels], dtype=np.int64)
    flat, _, lengths = collection.flat_arrays
    moved = new_pos[flat]
    seg = np.repeat(np.arange(lengths.size), lengths)
    moved = moved[np.lexsort((moved, seg))]  # keep each set's indices sorted
    return AssortmentCollection._from_arrays(inst.n, moved, lengths)


def save_instance(inst: Instance, path) -> None:
    """Write an instance as JSON (prices, weights, v0, labels)."""
    payload = {
        "prices": inst.prices.tolist(),
        "weights": inst.weights.tolist(),
        "v0": inst.v0,
        "item_ids": list(inst.labels()),
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def _json_number(x) -> bool:
    """Is ``x`` a JSON number?  JSON true and false are not, though Python
    counts bool as int."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def load_instance(path) -> Instance:
    """Read an instance written by :func:`save_instance`, ignoring other keys
    (older files carry a ``price_scale``); a missing or mistyped key raises
    ValueError naming it."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: an instance file must be a JSON object")
    for key in ("prices", "weights", "v0"):
        if key not in payload:
            raise ValueError(f"{path}: instance file has no {key!r}")
    if not _json_number(payload["v0"]):
        raise ValueError(f"{path}: 'v0' must be a number")
    for key in ("prices", "weights", "item_ids"):
        values = payload.get(key)  # a null item_ids means no labels
        if values is not None and not (isinstance(values, list)
                                       and all(map(_json_number, values))):
            raise ValueError(f"{path}: {key!r} must be a list of numbers")
    return Instance(payload["prices"], payload["weights"], payload["v0"],
                    tuple(payload["item_ids"]) if payload.get("item_ids") else None)


def save_itemsets(collection: AssortmentCollection, path) -> None:
    """Write a collection in the one-set-per-line text format."""
    with open(path, "w") as fh:
        for i in range(len(collection)):
            fh.write(" ".join(str(j + 1) for j in collection.member_indices(i)))
            fh.write("\n")


@dataclass(frozen=True)
class ResultRecord:
    """One benchmark row; oracle-dependent metrics may be absent (None)."""

    run_id: str
    algo: str
    n: int
    N: int | None
    eps: float
    iterations: int | None
    wall_time_s: float
    revenue: float
    rel_error: float | None
    overlap: float | None

    @classmethod
    def from_result(cls, run_id: str, algo: str, n: int, N: int | None,
                    eps: float, result: SolverResult,
                    optimum: SolverResult | None = None) -> "ResultRecord":
        rel = overlap = None
        if optimum is not None and optimum.revenue > 0:
            rel = (optimum.revenue - result.revenue) / optimum.revenue
            ref = optimum.assortment.items
            overlap = len(result.assortment.items & ref) / len(ref) if ref else None
        return cls(run_id, algo, n, N, eps, result.iterations, result.wall_time,
                   result.revenue, rel, overlap)


def write_results(records: Sequence[ResultRecord], path, fmt: str = "csv") -> None:
    """Write rows in :class:`ResultRecord` field order, as CSV or JSON."""
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=[f.name for f in fields(ResultRecord)])
            writer.writeheader()
            writer.writerows(map(asdict, records))  # None is written as an empty field
    elif fmt == "json":
        Path(path).write_text(json.dumps([asdict(r) for r in records], indent=2) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}; use 'csv' or 'json'")
