"""The lookup-table screen of exact scans: ``exhaustive_search`` and
``ExactMips.query`` score exactly only the sets the screen keeps, and must
answer as the unscreened argmax does, bit for bit, ties to the lowest id."""

import os
import signal
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from assortmax import (AssortmentCollection, ExactMips, GenSpec, Instance,
                       assort_mnl, collection_revenues, embed_collection,
                       exhaustive_search, generate_instance)
from assortmax import model
from assortmax.model import _revenue_terms

SRC = Path(__file__).resolve().parent.parent / "src"


def dense_collection(rng, n, num_sets, density):
    mask = rng.random((num_sets, n)) < density
    mask[np.arange(num_sets), rng.integers(0, n, num_sets)] = True  # no empty set
    return AssortmentCollection.from_membership(mask)


def quantized_instance(rng, n):
    # few distinct prices and weights: many sets tie in real arithmetic and
    # differ only by rounding, where a screen without its bound picks wrong
    prices = np.sort(rng.choice([1.0, 1.5, 2.0, 3.0, 7.0], n))[::-1].copy()
    weights = rng.choice([0.1, 0.2, 0.3, 0.7], n)
    return Instance(prices, weights, float(rng.choice([0.3, 1.0])))


def unscreened_revenue_argmax(c, inst):
    revs = collection_revenues(c, inst)
    best = int(np.argmax(revs))
    return best, float(revs[best])


def unscreened_query(c, weights, prices, K):
    A, B = c.set_sums(np.stack([weights * prices, weights]))
    s = A - K * B
    best = int(np.argmax(s))
    return best, float(s[best])


# (n, sets, density): n = 1..8 fill one byte, the rest pad the last one
SHAPES = [(3, 3000, 0.85), (8, 1000, 0.6), (13, 1000, 0.5), (21, 800, 0.5),
          (64, 800, 0.4), (100, 1500, 0.5)]


class TestScreenedScansMatchTheFullScan:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("shape", SHAPES, ids=[f"n{s[0]}" for s in SHAPES])
    def test_random_collections_and_thresholds(self, shape, seed):
        n, num_sets, density = shape
        rng = np.random.default_rng(1000 * n + seed)
        c = dense_collection(rng, n, num_sets, density)
        inst = quantized_instance(rng, n) if seed % 2 else Instance(
            np.sort(rng.uniform(0, 10, n))[::-1].copy(), rng.uniform(0, 1, n), 1.0)
        assert c._screen(_revenue_terms(inst)[0]) is not None  # the screen runs

        best, rev = unscreened_revenue_argmax(c, inst)
        res = exhaustive_search(c, inst)
        assert res.assortment == c[best] and res.revenue == rev
        assert res.revenue_interval == (rev, rev) and res.iterations == len(c)

        engine = ExactMips(embed_collection(c, inst), inst.weights)
        revs = np.sort(collection_revenues(c, inst))[::-1]
        # at K = the best revenue the best set maximizes A - K B, and the
        # sets close to it in revenue come close to it in score
        thresholds = np.r_[np.linspace(0.0, inst.p1, 17), revs[:4],
                           np.nextafter(rev, 0), np.nextafter(rev, np.inf),
                           2 * inst.p1, 0.5 * rev]
        assert thresholds.size == 25
        for K in thresholds:
            assert engine.query(K) == unscreened_query(c, inst.weights, inst.prices, K)
        # the engine answered from the screen the scan kept, never the full sums
        key, bounds = c._kept["screen"]
        assert bounds is not None and "sums" not in c._kept
        assert np.array_equal(key, _revenue_terms(inst)[0])

    def test_the_bench_shape_takes_the_screen(self):
        for seed in range(3):
            inst, c = generate_instance(GenSpec(n=60, num_sets=800, seed=seed))
            assert c._screen(_revenue_terms(inst)[0]) is not None


class TestTies:
    def test_duplicate_sets_give_the_lowest_id(self):
        rng = np.random.default_rng(3)
        n = 8
        mask = rng.random((600, n)) < 0.6
        mask[:, 0] = True
        inst = quantized_instance(rng, n)
        best, _ = unscreened_revenue_argmax(AssortmentCollection.from_membership(mask), inst)
        copy = mask[best]
        for at in (450, 200, 90):  # copies of the best set
            mask = np.insert(mask, at, copy, axis=0)
        c = AssortmentCollection.from_membership(mask)
        values, revenues = _revenue_terms(inst)
        assert c._screen(values) is not None
        revs = collection_revenues(c, inst)
        tied = np.flatnonzero(revs == revs.max())
        assert tied.size >= 4
        best = int(tied[0])
        assert c._argmax(values, revenues) == (best, revs[best])
        assert c._kept["screen"][1] is not None
        engine = ExactMips(embed_collection(c, inst), inst.weights)
        for K in (0.0, 0.5, 1.0, revs[best]):
            assert engine.query(K) == unscreened_query(c, inst.weights, inst.prices, K)
        # at K = the best revenue, the best set and its copies maximize A - K B
        assert engine.query(revs[best])[0] == best

    def test_a_zero_weight_item_ties_and_the_lowest_id_wins(self):
        # weights and prices are dyadic, so every sum is exact in any order
        n = 8
        prices = np.array([8.0, 7, 6, 5, 4, 3, 2, 1])
        weights = np.array([0.5, 0.25, 0.0, 0.75, 0.5, 1.0, 0.25, 0.5])
        inst = Instance(prices / 8, weights, 1.0)
        rng = np.random.default_rng(4)
        mask = rng.random((700, n)) < 0.5
        mask[:, 7] = True  # weak sets: only item 8 in common
        mask[:, :2] = False
        best = [0, 1, 3]
        mask[[100, 300, 500]] = False
        mask[300, best] = True  # the best set, and at a later id with item 3
        mask[500, best + [2]] = True
        mask[100, best + [2]] = True  # at an earlier id too, with item 3
        c = AssortmentCollection.from_membership(mask)
        assert c._screen(_revenue_terms(inst)[0]) is not None
        revs = collection_revenues(c, inst)
        assert np.flatnonzero(revs == revs.max()).tolist() == [100, 300, 500]
        res = exhaustive_search(c, inst)
        assert res.assortment == c[100] and 3 in res.assortment.items
        engine = ExactMips(embed_collection(c, inst), inst.weights)
        for K in (0.0, 0.25, revs[100]):
            assert engine.query(K) == unscreened_query(c, inst.weights, inst.prices, K)
        assert engine.query(revs[100])[0] == 100


class TestWhereTheScreenRuns:
    @pytest.mark.parametrize("n", [3, 7, 8, 9, 13, 21, 64, 100])
    def test_bounds_hold_every_exact_sum(self, n):
        rng = np.random.default_rng(n)
        c = dense_collection(rng, n, 3000, 0.9)
        # magnitudes over 16 decades: the bound is relative, per set
        values = 10.0 ** rng.uniform(-8, 8, (2, n))
        bounds = c._screen(values)
        assert bounds is not None
        lower, upper = bounds
        exact = c.set_sums(values)
        assert lower.shape == upper.shape == exact.shape == (2, len(c))
        assert (lower <= exact).all() and (exact <= upper).all()
        assert (upper - lower <= 1e-12 * exact).all()  # and they stay tight

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_or_two_items_never_screen(self, n):
        # n members per set: N + 256 lookups per value row cost more than
        # half the n N entries
        inst = Instance([2.0, 1.0][:n], [0.5, 0.5][:n], 1.0)
        c = AssortmentCollection([range(1, n + 1)] * 5000, n=n)
        assert c._screen(_revenue_terms(inst)[0]) is None
        assert exhaustive_search(c, inst).revenue == (1.0 / 1.5 if n == 1 else 1.5 / 2.0)
        assert ExactMips(embed_collection(c, inst), inst.weights).query(1.0) == \
            unscreened_query(c, inst.weights, inst.prices, 1.0)
        assert "packed_membership" not in vars(c)

    def test_sparse_sets_never_pack(self):
        rng = np.random.default_rng(5)
        n = 1000
        sets = [rng.choice(n, int(rng.integers(2, 13)), replace=False) + 1
                for _ in range(3000)]
        c = AssortmentCollection(sets, n=n)
        inst = Instance(np.sort(rng.uniform(0, 10, n))[::-1].copy(),
                        rng.uniform(0, 1, n), 1.0)
        assert exhaustive_search(c, inst).assortment == c[unscreened_revenue_argmax(c, inst)[0]]
        engine = ExactMips(embed_collection(c, inst), inst.weights)
        for K in (0.0, 1.0, 5.0):
            assert engine.query(K) == unscreened_query(c, inst.weights, inst.prices, K)
        assert "packed_membership" not in vars(c)

    @pytest.mark.parametrize("bad", ["nan", "negative", "inf", "overflowing"])
    def test_values_the_bound_cannot_hold_are_not_screened(self, bad):
        rng = np.random.default_rng(6)
        c = dense_collection(rng, 16, 1000, 0.6)
        values = rng.uniform(0, 1, (2, 16))
        values[1, 3] = {"nan": np.nan, "negative": -1e-3, "inf": np.inf,
                        "overflowing": 1e308}[bad]
        assert c._screen(values) is None

    def test_negative_weights_take_the_full_scan(self):
        rng = np.random.default_rng(7)
        n = 16
        c = dense_collection(rng, n, 1000, 0.6)
        prices = np.sort(rng.uniform(0, 10, n))[::-1].copy()
        weights = rng.uniform(-1, 1, n)
        engine = ExactMips(embed_collection(c, Instance(prices, np.abs(weights), 1.0)),
                           weights)
        for K in (0.0, 2.0, 7.5):
            assert engine.query(K) == unscreened_query(c, weights, prices, K)
        assert c._kept["screen"][1] is None and "sums" in c._kept

    def test_thresholds_outside_the_bound_read_the_full_sums(self):
        rng = np.random.default_rng(8)
        n = 16
        c = dense_collection(rng, n, 1000, 0.6)
        inst = Instance(np.sort(rng.uniform(0, 10, n))[::-1].copy(),
                        rng.uniform(0, 1, n), 1.0)
        engine = ExactMips(embed_collection(c, inst), inst.weights)
        for K in (-3.0, np.inf, -np.inf):
            assert engine.query(K) == unscreened_query(c, inst.weights, inst.prices, K)
        best, s = engine.query(np.nan)
        assert best == 0 and np.isnan(s)  # as the full scan answers


@pytest.fixture
def screens(monkeypatch):
    """Whether each call of ``AssortmentCollection._screen`` made a screen."""
    made = []
    screen = AssortmentCollection._screen

    def spy(self, values):
        bounds = screen(self, values)
        made.append(bounds is not None)
        return bounds

    monkeypatch.setattr(AssortmentCollection, "_screen", spy)
    return made


class TestOneScreenPerCustomer:
    def test_scan_then_exact_solve_screen_once(self, screens):
        inst, c = generate_instance(GenSpec(n=60, num_sets=800, seed=2))
        scan = exhaustive_search(c, inst)
        solve = assort_mnl(c, inst, 0.1)
        assert screens == [True]
        assert solve.revenue >= scan.revenue - 0.1
        # a second engine of the same customer reuses it too
        assert ExactMips(embed_collection(c, inst), inst.weights).query(1.0) == \
            unscreened_query(c, inst.weights, inst.prices, 1.0)
        assert screens == [True]

    def test_a_new_customer_screens_once_more(self, screens):
        inst, c = generate_instance(GenSpec(n=60, num_sets=800, seed=2))
        other = Instance(inst.prices, inst.weights[::-1].copy(), inst.v0)
        for customer in (inst, other):
            exhaustive_search(c, customer)
            assort_mnl(c, customer, 0.1)
        assert screens == [True, True]
        exhaustive_search(c, inst)  # the kept pair is the last customer's
        assert screens == [True, True, True]

    def test_sparse_sets_take_their_full_sums_once(self, screens, monkeypatch):
        full = []
        set_sums = AssortmentCollection.set_sums

        def spy(self, values, ids=None):
            if ids is None:
                full.append(values.shape)
            return set_sums(self, values, ids)

        monkeypatch.setattr(AssortmentCollection, "set_sums", spy)
        rng = np.random.default_rng(11)
        n = 1000
        c = AssortmentCollection([rng.choice(n, int(rng.integers(2, 13)), replace=False) + 1
                                  for _ in range(3000)], n=n)
        inst = Instance(np.sort(rng.uniform(0, 10, n))[::-1].copy(),
                        rng.uniform(0, 1, n), 1.0)
        exhaustive_search(c, inst)
        for _ in range(3):
            engine = ExactMips(embed_collection(c, inst), inst.weights)
            for K in (0.0, 1.0, 5.0):
                engine.query(K)
        assert not any(screens) and "packed_membership" not in vars(c)
        assert full == [(2, n)]


def many_block_collection(seed):
    # n=1000 holds 262 sets per block: 8400 sets are 33 blocks, which 2, 4
    # and 5 shares do not divide
    rng = np.random.default_rng(seed)
    return dense_collection(rng, 1000, 8400, 0.5), rng.random((2, 1000))


class TestScreenShares:
    @pytest.mark.parametrize("workers", [2, 4, 5])
    def test_the_shared_screen_equals_the_serial_one(self, workers, monkeypatch):
        c, values = many_block_collection(11)
        monkeypatch.setattr(model, "_WORKERS", 1)
        serial = c._screen(values)
        monkeypatch.setattr(model, "_WORKERS", workers)
        shared = c._screen(values)
        assert serial is not None
        assert all(np.array_equal(a, b) for a, b in zip(serial, shared))

    def test_a_one_block_screen_never_reaches_the_pool(self, monkeypatch):
        rng = np.random.default_rng(12)
        c = dense_collection(rng, 40, 3000, 0.5)
        monkeypatch.setattr(model, "_WORKERS", 4)
        monkeypatch.setattr(model, "_screen_pool", None)  # a call would raise
        assert c._screen(rng.random((2, 40))) is not None

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_a_forked_child_screens(self, monkeypatch):
        monkeypatch.setattr(model, "_WORKERS", max(2, model._WORKERS))
        c, values = many_block_collection(13)
        expect = c._screen(values)  # the parent's pool has live threads
        pid = os.fork()
        if pid == 0:  # the child inherits the pool but not its threads
            ok = False
            try:
                ok = all(np.array_equal(a, b) for a, b in zip(expect, c._screen(values)))
            finally:
                os._exit(0 if ok else 1)
        deadline = time.monotonic() + 60
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0

    def test_import_starts_no_thread_and_a_screening_script_exits(self):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        script = ("import threading, assortmax\n"
                  "assert threading.active_count() == 1, threading.enumerate()\n"
                  "import numpy as np\n"
                  "from assortmax import model\n"
                  "model._WORKERS = max(2, model._WORKERS)\n"
                  "rng = np.random.default_rng(14)\n"
                  "c = assortmax.AssortmentCollection.from_membership("
                  "rng.random((1000, 1000)) < 0.5)\n"  # four blocks
                  "assert c._screen(rng.random((2, 1000))) is not None\n"
                  "assert model._pool is not None\n")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


def threads_get_the_serial_answer(num_sets):
    rng = np.random.default_rng(9)
    n = 40
    mask = rng.random((num_sets, n)) < 0.5
    mask[:, 0] = True
    insts = [quantized_instance(rng, n) for _ in range(4)]
    ref = AssortmentCollection.from_membership(mask)
    serial = [unscreened_revenue_argmax(ref, inst) for inst in insts]
    thresholds = np.linspace(0, 7, 9)

    def solve(c, inst):
        res = exhaustive_search(c, inst)
        engine = ExactMips(embed_collection(c, inst), inst.weights)
        return res.assortment, res.revenue, [engine.query(K) for K in thresholds]

    expect = [(ref[b], r, [unscreened_query(ref, i.weights, i.prices, K)
                           for K in thresholds]) for (b, r), i in zip(serial, insts)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-call
    try:
        for _ in range(3):
            # unpacked: the threads also race to pack the membership
            c = AssortmentCollection.from_membership(mask)
            with ThreadPoolExecutor(4) as pool:  # more workers than cores
                got = list(pool.map(solve, [c] * 4, insts, timeout=60))
            assert got == expect and "packed_membership" in vars(c)  # screened
    finally:
        sys.setswitchinterval(interval)


class TestConcurrencyAndMemory:
    def test_threads_get_the_serial_answer(self):
        threads_get_the_serial_answer(3000)  # one block of 40 items: no pool

    def test_threads_sharing_the_pool_get_the_serial_answer(self, monkeypatch):
        # three blocks, so the four callers' shares meet in the module's pool
        monkeypatch.setattr(model, "_WORKERS", max(2, model._WORKERS))
        threads_get_the_serial_answer(14000)

    def test_one_screen_call_stays_in_small_buffers(self):
        rng = np.random.default_rng(10)
        c = dense_collection(rng, 1000, 8400, 0.5)
        c.packed_membership  # packing is the collection's, made once
        values = rng.random((2, c.n))
        tracemalloc.start()
        try:
            c._screen(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one complex per lookup would be 16.8 MB, one float per entry 34 MB;
        # the tables (512 KB), a block's buffers and the bounds stay under 3
        assert peak < 3_000_000
