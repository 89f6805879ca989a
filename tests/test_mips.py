import hashlib
import re

import numpy as np
import pytest

from assortmax import (AssortmentCollection, ExactMips, GenSpec, Instance,
                       LshIndex, LshMips, LshParams, assort_mnl,
                       assort_mnl_approx, assort_mnl_approx_simple,
                       build_lsh_index, default_lsh_params, embed_collection,
                       generate_instance, load_index, normalize, save_index)
from assortmax.mips import (_CHUNK_ROWS, QueryVector, _hash_keys, _key_columns, _pack_bits,
                            _projections)

from conftest import random_instance
from reference import hash_key, simple_lsh_transform

# sha256 over the dtype, shape and bytes of projections, table_keys and
# table_ids of build_lsh_index(LshParams(bits, tables=3, scan_cap=9), seed=11)
# on generate_instance(GenSpec(n, num_sets=min(2**n - 1, 4500), seed=n)),
# keyed by (n, bits).  n=37's 4500 sets span five 1024-row build chunks
# (mips._CHUNK_ROWS).  The build's float32 matmul goes through BLAS, so the
# digests hold for the BLAS they were recorded with (OpenBLAS under numpy
# 2.4); another BLAS may round a projection that is within an ulp of zero
# to the other sign.
_PINNED_INDEX_SHA256 = {
    (1, 0): "c2cc36a8002a52f9224dbdf224faf51c7a174085f2ae798a5b3b4e09c7d5a27c",
    (1, 1): "19f3994916823304af86594ca53133dd3fe1542afbda06291cd65c9b91ae3a30",
    (1, 10): "6fce9754650f6e29c762064532d147e4f4a5ae8379a85020fefbb9dc7799ef1c",
    (1, 17): "939f74a87f03568c7fb798cb5de0747636efced84bf10adde4b8bd778f570953",
    (1, 64): "22744a339b01ba2fbdbd5c9f3d64e94b80c450c4543d49fa843b36d11751fd84",
    (7, 0): "fd0e354066198a9452719eda8ef6647d21f4100a4b32a116ef8777440011578d",
    (7, 1): "7a00db34a668b1c6acdd19e613f9376394ed505049ff2114e4918b8f49a5f653",
    (7, 10): "985b6fa90979741f4d555df9f7ff2cf10687f0a5500e448393d5bcd4783eeb09",
    (7, 17): "71d75e865dc7b2ef1df06affe8b65eac4479020b78361566efba4300f4d180e5",
    (7, 64): "9fd276720ecd99305908513fb5ed47890eb67d9d0b76d3ddbf5f7b4d6338e390",
    (8, 0): "3c5c4c3aca65f199cddf0d2523a4f70a0368858ddd95d7ced008c3ffa3b68830",
    (8, 1): "5805825a1ba6fe281a9b7911364f5e2da4e90e72db3dafd29dce08a27612f428",
    (8, 10): "bea888a0bd26283112def9cc8846b7753f010b1e7f3ee316401a3e2f4ee6f7f6",
    (8, 17): "dca15bbbd03000bbc1091d7db6fa6fc3d376e3dc5bfa376564afdb119aaea23d",
    (8, 64): "15bf7cfda289a0cd1159347a377e1d9fa68b4c9ec0aa5ccedc0bc1e4ebb77a75",
    (9, 0): "58e59048793a3209686ae2a6a8103d3429d176b3510dae6f27194247fc936b92",
    (9, 1): "7c09eb28347607accd1c6585751b9800d1eb4ba25b81535ec79c4507dbce42d3",
    (9, 10): "b51d14b63b759d673364ced0c7ac6541bef55d94769a22464acccd0868d156a2",
    (9, 17): "5994f7d5ef64a96bc537c76262e1e9f5fabb7b1029ccf79043a5f9284dc980fe",
    (9, 64): "8349809b903341a9050f2ab4d138c05b42c96af52d7c801a7d0a4592b36fa81c",
    (37, 0): "2c664f6098acfc45cdd512b09be631494e7db0e20a6d58f92234d862686a328a",
    (37, 1): "16afa2f397d9eaab780937266a1c961f0ed43349cd75fc09a73c14db66c3c99a",
    (37, 10): "cbfa9c1372785ba525e8bf59821be8af88fa4971d58f4c6856b55e99b1fee860",
    (37, 17): "b67e8c3df54dd83c76abd892aef468ede6510d24e46e18b2f0fa878e274d9dbb",
    (37, 64): "00e423e3dead34aa46b058648b0f488097f0870f925e485d2723ced65be2e8fd",
}


class _IndexProbe:
    """Index stand-in that records the key of every bucket lookup and counts
    reads of the projection tensor; everything else goes to the index."""

    def __init__(self, index):
        self._index = index
        self.keys: list[tuple[int, int]] = []
        self.projection_reads = 0

    def __getattr__(self, name):
        if name == "projections":
            self.projection_reads += 1
        return getattr(self._index, name)

    def bucket(self, table, key):
        self.keys.append((table, int(key)))
        return self._index.bucket(table, key)


class _SourceProbe:
    """Collection stand-in that counts the sum gathers over chosen sets
    (``set_sums`` with ids); everything else goes to the collection."""

    def __init__(self, source):
        self._source = source
        self.set_sums_calls = 0

    def __getattr__(self, name):
        return getattr(self._source, name)

    def __getitem__(self, i):
        return self._source[i]

    def set_sums(self, values, ids=None):
        self.set_sums_calls += ids is not None
        return self._source.set_sums(values, ids)


class _PointsProbe:
    """Embedded-collection stand-in that counts rescoring calls
    (``scores_at``) and lists each one's threshold and candidates; its
    ``source`` counts the sum gathers made outside them."""

    def __init__(self, points):
        self._points = points
        self.source = _SourceProbe(points.source)
        self.scores_at_calls = 0
        self.rescored: list[tuple[float, list]] = []

    def __len__(self):
        return len(self._points)

    def __getattr__(self, name):
        return getattr(self._points, name)

    def scores_at(self, q, ids):
        self.scores_at_calls += 1
        self.rescored.append((q.threshold, ids.tolist()))
        return self._points.scores_at(q, ids)


class _Thresholds:
    """Engine wrapper that lists the thresholds a solve asks."""

    def __init__(self, inner):
        self.inner, self.asked = inner, []

    @property
    def points(self):
        return self.inner.points

    def query(self, threshold):
        self.asked.append(threshold)
        return self.inner.query(threshold)


class _FreshEngine:
    """Engine that answers every threshold with a newly made LshMips, so
    no answer can depend on an earlier query."""

    def __init__(self, index, points, weights):
        self.index, self.points, self.weights = index, points, weights

    def query(self, threshold):
        return LshMips(self.index, self.points, self.weights).query(threshold)


# sha256 over repr((sorted items, revenue, revenue_interval, iterations)) of
# assort_mnl_approx_simple(eps=1e-4) and assort_mnl_approx(eps=0.05, nu=0.01)
# on normalize(generate_instance(GenSpec(30, num_sets=3000,
# price_range=(0, 1), seed=s))) for s in 0..3, with params None and
# LshParams(8, 10, 30) and index seed s, in that loop order.  Re-recorded
# when revenue() began to sum a set as the exact scan does: revenue moved
# by at most 2 ulps in 12 of the 16 answers, and no set, bracket or
# iteration count changed.  Revenue no longer depends on the BLAS, but like
# the build digests it holds only for the BLAS the index builds use.
_PINNED_HASHED_SOLVES_SHA256 = (
    "edd7ccace8521b1295c5568a18e6e8d075d5e68d5fad370d74aee44ea1c0803c")


class TestEmbedding:
    def test_vector_layout(self, e1, e1_triplet):
        pts = embed_collection(e1_triplet, e1)
        assert pts[1].tolist() == [10.0, 8.0, 0.0, 1.0, 1.0, 0.0]

    def test_norm_cached_correctly(self, e1, e1_triplet):
        pts = embed_collection(e1_triplet, e1)
        for i, x in enumerate(pts):
            assert pts.norms[i] == pytest.approx(np.linalg.norm(x), rel=1e-12)

    def test_norms_only_when_read(self):
        inst, coll = generate_instance(GenSpec(n=15, num_sets=90, seed=4))
        pts = embed_collection(coll, inst)
        assort_mnl(coll, inst, inst.p1 / 100, mips=ExactMips(pts, inst.weights))
        dense = [np.linalg.norm(pts[i]) for i in range(len(pts))]
        assert "norms" not in coll._kept  # exact scoring and dense points never read them
        build_lsh_index(pts, seed=1)
        norms = coll._kept["norms"][1]
        assert not norms.flags.writeable
        assert np.allclose(norms, dense, rtol=1e-12, atol=0)

    def test_norms_kept_per_catalog_at_equal_prices(self):
        # a fresh embed of the same catalog at an equal (copied) price array
        # reuses the norms; an embed at other prices takes its own
        inst, coll = generate_instance(GenSpec(n=15, num_sets=90, seed=4))
        first = embed_collection(coll, inst).norms
        again = embed_collection(coll, Instance(inst.prices.copy(), inst.weights, 1.0))
        assert coll._kept["norms"][1] is first
        assert again.norms is first
        other = embed_collection(coll, normalize(inst))
        assert other.norms is not first
        assert np.allclose(other.norms, [np.linalg.norm(other[i]) for i in range(len(coll))],
                           rtol=1e-12, atol=0)
        fresh = embed_collection(AssortmentCollection._from_arrays(
            coll.n, *coll.flat_arrays[::2]), inst)
        assert fresh.norms.tobytes() == first.tobytes()  # same values, taken anew

    def test_hand_dot(self, e1, e1_triplet):
        pts = embed_collection(e1_triplet, e1)
        q = QueryVector(e1.weights, 4.0)
        assert float(pts[1] @ q.vector) == pytest.approx(2.8)

    def test_price_equal_threshold_cancels(self, e1):
        pts = embed_collection(AssortmentCollection([{3}], n=3), e1)
        q = QueryVector(e1.weights, 5.0)
        assert float(pts.scores_at(q)[0]) == pytest.approx(0.0, abs=1e-12)

    def test_dot_identity_random(self):
        # embedding identity: dense dot == margin sum, checked per draw
        rng = np.random.default_rng(11)
        for _ in range(1000):
            inst = random_instance(rng, int(rng.integers(2, 15)))
            members = [i + 1 for i in range(inst.n) if rng.random() < 0.5] or [1]
            coll = AssortmentCollection([members], n=inst.n)
            pts = embed_collection(coll, inst)
            K = float(rng.uniform(0, inst.p1))
            q = QueryVector(inst.weights, K)
            direct = sum(inst.weights[i - 1] * (inst.prices[i - 1] - K)
                         for i in members)
            assert np.isclose(float(pts[0] @ q.vector), direct,
                              rtol=1e-9, atol=1e-9)
            assert np.isclose(float(pts.scores_at(q)[0]), direct,
                              rtol=1e-9, atol=1e-9)

    def test_query_vector_structure(self, e1):
        q = QueryVector(e1.weights, 2.5)
        assert np.allclose(q.vector[3:], -2.5 * q.vector[:3])

    def test_scores_match_dense_reference(self):
        # the query is its weights and threshold; scores cannot drop a
        # second half of the dense vector that disagrees with them
        inst, coll = generate_instance(GenSpec(n=12, num_sets=60, seed=8))
        pts = embed_collection(coll, inst)
        w = inst.weights.copy()
        for K in (0.0, 123.0, inst.p1):
            q = QueryVector(w, K)
            dense = [float(pts[i] @ q.vector) for i in range(len(pts))]
            assert np.allclose(pts.scores_at(q), dense, rtol=1e-12, atol=1e-9)
        w[0] = 5.0  # the query keeps its own read-only copy
        assert q.weights[0] == inst.weights[0] and not q.weights.flags.writeable
        with pytest.raises(ValueError, match="1-d"):
            QueryVector(np.ones((2, 3)), 1.0)


class TestQueryExact:
    def test_hand_scores(self, e1, e1_triplet):
        pts = embed_collection(e1_triplet, e1)
        q = QueryVector(e1.weights, 3.0)
        assert pts.scores_at(q).tolist() == pytest.approx([1.4, 3.4, 3.0])
        assert ExactMips(pts, e1.weights).query(3.0) == (1, pytest.approx(3.4))

    def test_single_point(self, e1):
        pts = embed_collection(AssortmentCollection([{2, 3}], n=3), e1)
        for K in (0.0, 3.0, 12.0):
            assert ExactMips(pts, e1.weights).query(K)[0] == 0

    def test_high_threshold_least_negative(self, e1, e1_triplet):
        pts = embed_collection(e1_triplet, e1)
        q = QueryVector(e1.weights, 12.0)  # above every price
        scores = pts.scores_at(q)
        assert (scores <= 0).all()
        sid, s = ExactMips(pts, e1.weights).query(12.0)
        assert sid == int(np.argmax(scores)) and s == scores.max()

    def test_tie_breaks_low_id(self, e1):
        coll = AssortmentCollection([{1, 2}, {1, 2}], n=3)  # duplicate sets
        pts = embed_collection(coll, e1)
        assert ExactMips(pts, e1.weights).query(1.0)[0] == 0

    @pytest.mark.parametrize("weights, message", [
        ([0.2, 0.4], "weights have dimension 2, expected 3"),
        (0.2, "weights have dimension 1, expected 3"),
        ([[0.2, 0.4, 0.5]], "weights have dimension 1 x 3, expected 3"),
        ([0.2, np.nan, 0.5], "weights must be finite"),
        ([0.2, np.inf, 0.5], "weights must be finite")])
    def test_weights_checked_at_construction(self, e1, e1_triplet, weights, message):
        # as LshMips checks them, before any query can fail on a broadcast
        # or answer (0, nan)
        with pytest.raises(ValueError, match=re.escape(message)):
            ExactMips(embed_collection(e1_triplet, e1), weights)

    @pytest.mark.parametrize("weights, message", [
        ([0.2, np.nan, 0.5], "weights must be finite"),
        ([0.2, np.inf, 0.5], "weights must be finite"),
        ([0.2, 0.4], "weights have dimension 2, expected 3"),
        ([[0.2, 0.4, 0.5]], "weights have dimension 1 x 3, expected 3")])
    @pytest.mark.parametrize("engine", [
        ExactMips, lambda pts, weights: LshMips(build_lsh_index(pts), pts, weights)],
        ids=["exact", "lsh"])
    def test_both_engines_check_weights_alike(self, e1, e1_triplet, engine, weights,
                                              message):
        with pytest.raises(ValueError, match=re.escape(message)):
            engine(embed_collection(e1_triplet, e1), weights)

    def test_rescoring_checks_the_query_weights(self, e1, e1_triplet):
        pts = embed_collection(e1_triplet, e1)
        with pytest.raises(ValueError, match="weights must be finite"):
            pts.scores_at(QueryVector([0.2, np.nan, 0.5], 1.0))

    def test_negative_weights_accepted(self, e1, e1_triplet):
        pts = embed_collection(e1_triplet, e1)
        assert ExactMips(pts, [0.2, -0.4, 0.5]).query(3.0) == (0, pytest.approx(1.4))


class TestTransform:
    def test_zero_vector(self):
        out = simple_lsh_transform(np.zeros(4), 2.0)
        assert out.tolist() == [0, 0, 0, 0, 1]

    def test_unit_norm_boundary(self):
        x = np.array([0.6, 0.8])
        out = simple_lsh_transform(x, 1.0)
        assert out.tolist() == pytest.approx([0.6, 0.8, 0.0], abs=1e-8)

    def test_hand_example(self):
        out = simple_lsh_transform(np.array([3.0, 4.0]), 10.0)
        assert out.tolist() == pytest.approx([0.3, 0.4, np.sqrt(0.75)])
        assert np.linalg.norm(out) == pytest.approx(1.0)

    def test_norm_above_scale_rejected(self):
        with pytest.raises(ValueError, match="exceeds scale"):
            simple_lsh_transform(np.array([3.0, 4.0]), 4.0)

    def test_order_preserved_through_transform(self):
        # inner products against a padded unit query keep their ranking
        rng = np.random.default_rng(4)
        xs = rng.normal(size=(20, 6))
        y = rng.normal(size=6)
        scale = float(np.linalg.norm(xs, axis=1).max())
        yq = np.concatenate([y / np.linalg.norm(y), [0.0]])
        raw = xs @ y
        transformed = np.array([simple_lsh_transform(x, scale) @ yq for x in xs])
        assert (np.argsort(raw) == np.argsort(transformed)).all()


class TestHashKey:
    @pytest.fixture
    def small_index(self, e1, e1_triplet):
        pts = embed_collection(e1_triplet, e1)
        return pts, build_lsh_index(pts, LshParams(bits=8, tables=4, scan_cap=12), seed=9)

    def test_zero_projection_counts_positive(self, small_index):
        pts, idx = small_index
        # orthogonal input: every projection row dotted with 0-vector is 0
        x = np.zeros(idx.dim)
        key = hash_key(x, 0, idx)
        assert key == (1 << idx.params.bits) - 1  # all bits set

    def test_antisymmetry(self, small_index):
        pts, idx = small_index
        rng = np.random.default_rng(0)
        x = rng.normal(size=idx.dim)
        x /= np.linalg.norm(x)
        k_pos = hash_key(x, 0, idx)
        k_neg = hash_key(-x, 0, idx)
        # opposite vectors disagree on every non-boundary bit
        assert k_pos ^ k_neg == (1 << idx.params.bits) - 1

    def test_deterministic(self, small_index):
        pts, idx = small_index
        x = simple_lsh_transform(pts[0], idx.scale)
        assert hash_key(x, 1, idx) == hash_key(x, 1, idx)

    def test_collision_law_monte_carlo(self, e1):
        # single-bit agreement frequency follows 1 - arccos(s)/pi
        pts = embed_collection(AssortmentCollection([{1}], n=1),
                               Instance([1.0], [0.5], 1.0))
        idx = build_lsh_index(pts, LshParams(bits=64, tables=400, scan_cap=1),
                              seed=2024)
        nbits = 64 * 400
        for s in (-0.5, 0.0, 0.7071):
            x = np.array([1.0, 0.0, 0.0])
            y = np.array([s, np.sqrt(1 - s * s), 0.0])
            bits_x = np.zeros(nbits, dtype=bool)
            bits_y = np.zeros(nbits, dtype=bool)
            for t in range(400):
                kx, ky = hash_key(x, t, idx), hash_key(y, t, idx)
                for b in range(64):
                    bits_x[t * 64 + b] = (kx >> b) & 1
                    bits_y[t * 64 + b] = (ky >> b) & 1
            freq = float(np.mean(bits_x == bits_y))
            assert freq == pytest.approx(1 - np.arccos(s) / np.pi, abs=0.02)

    @pytest.mark.parametrize("bits", [0, 6, 64])
    def test_engine_keys_match_hash_key(self, bits):
        # the engine hashes q_K from its per-engine projections of v; the
        # reference is hash_key of the normalized, zero-padded dense query,
        # compared on every bit whose projection is clear of zero
        tables = 5
        for seed in range(4):
            inst, coll = generate_instance(GenSpec(n=15, num_sets=100, seed=seed))
            pts = embed_collection(coll, inst)
            idx = build_lsh_index(pts, LshParams(bits, tables, scan_cap=10**6),
                                  seed=seed)
            probe = _IndexProbe(idx)
            for K in np.random.default_rng(seed).uniform(0, inst.p1, 8):
                probe.keys.clear()
                # a fresh engine per K: an engine probes each key vector once
                LshMips(probe, pts, inst.weights).query(K)
                q = QueryVector(inst.weights, K).vector
                xq = np.concatenate([q / np.linalg.norm(q), [0.0]])
                assert [t for t, _ in probe.keys] == list(range(tables))
                for t, key in probe.keys:
                    clear = np.flatnonzero(np.abs(idx.projections[t] @ xq) > 1e-12)
                    mask = sum(1 << int(b) for b in clear)
                    assert (key ^ hash_key(xq, t, idx)) & mask == 0
        # a zero weight vector projects to zero everywhere: every bit is set
        probe.keys.clear()
        LshMips(probe, pts, np.zeros(inst.n)).query(0.5)
        assert {key for _, key in probe.keys} == {(1 << bits) - 1}


class TestIndex:
    def test_default_params(self):
        assert default_lsh_params(4) == LshParams(2, 2, 6)
        assert default_lsh_params(51200) == LshParams(16, 227, 681)
        assert default_lsh_params(1) == LshParams(0, 1, 3)

    @pytest.mark.parametrize("kwargs", [
        dict(bits=-1, tables=2, scan_cap=6),
        dict(bits=2, tables=0, scan_cap=6),
        dict(bits=2, tables=2, scan_cap=0),
        dict(bits=65, tables=2, scan_cap=6),
    ])
    def test_param_validation(self, kwargs):
        with pytest.raises(ValueError):
            LshParams(**kwargs)

    def test_deterministic_build(self, e1, e1_all):
        pts = embed_collection(e1_all, e1)
        a = build_lsh_index(pts, seed=5)
        b = build_lsh_index(pts, seed=5)
        assert a.table_keys.tobytes() == b.table_keys.tobytes()
        assert a.table_ids.tobytes() == b.table_ids.tobytes()
        c = build_lsh_index(pts, seed=6)
        assert (a.table_keys.tobytes() != c.table_keys.tobytes()
                or a.table_ids.tobytes() != c.table_ids.tobytes())

    @pytest.mark.parametrize("n, bits", sorted(_PINNED_INDEX_SHA256))
    def test_build_is_pinned_bit_for_bit(self, n, bits):
        inst, coll = generate_instance(GenSpec(n, num_sets=min(2**n - 1, 4500), seed=n))
        idx = build_lsh_index(embed_collection(coll, inst),
                              LshParams(bits, tables=3, scan_cap=9), seed=11)
        # the digests were recorded with the keys stored as uint64; the
        # build now keeps them in the narrowest dtype that holds ``bits``
        assert idx.table_keys.dtype == np.dtype(
            f"uint{next(w for w in (8, 16, 32, 64) if bits <= w)}")
        h = hashlib.sha256()
        for a in (idx.projections, idx.table_keys.astype(np.uint64), idx.table_ids):
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(np.ascontiguousarray(a).tobytes())
        assert h.hexdigest() == _PINNED_INDEX_SHA256[n, bits]

    @pytest.mark.parametrize("num_sets", [1023, 1024, 1025])
    @pytest.mark.parametrize("bits", [0, 1, 8, 9, 16, 17, 32, 33, 64])
    def test_hash_keys_match_the_divide_add_compare(self, bits, num_sets):
        # the reference is the rule the build used before keys were packed
        # narrow: raw / scale + slack * tail rounded in float32 and compared
        # with 0, packed into uint64 by _pack_bits, over the same chunks
        inst, coll = generate_instance(GenSpec(n=40, num_sets=num_sets, seed=bits))
        pts = embed_collection(coll, inst)
        tables, n = 3, pts.n
        proj = _projections(LshParams(bits, tables, scan_cap=9), num_sets, pts.dim + 1)
        flat = proj.reshape(tables * bits, pts.dim + 1)
        combined = (flat[:, :n] * pts.prices + flat[:, n:2 * n]).T.astype(np.float32)
        tail = flat[:, 2 * n].astype(np.float32)
        scale = float(pts.norms.max())
        slack = np.sqrt(np.maximum(0.0, 1.0 - (pts.norms / scale) ** 2)).astype(np.float32)
        assert slack[np.argmax(pts.norms)] == 0.0  # the largest-norm set
        expect = np.empty((tables, num_sets), dtype=np.uint64)
        for lo in range(0, num_sets, _CHUNK_ROWS):
            hi = min(lo + _CHUNK_ROWS, num_sets)
            raw = coll._membership_rows(slice(lo, hi)) @ combined
            raw /= np.float32(scale)
            raw += slack[lo:hi, None] * tail
            expect[:, lo:hi] = _pack_bits((raw >= 0.0).reshape(hi - lo, tables, bits)).T
        columns, neg_tail = _key_columns(pts.prices, proj)
        keys = _hash_keys(pts, columns, neg_tail, tables)
        assert keys.dtype == np.dtype(f"uint{next(w for w in (8, 16, 32, 64) if bits <= w)}")
        assert np.array_equal(keys.astype(np.uint64), expect)
        ids = np.arange(1, num_sets, 3)
        assert np.array_equal(_hash_keys(pts, columns, neg_tail, tables, ids), keys[:, ids])

    def test_every_point_in_every_table(self, e1, e1_all):
        pts = embed_collection(e1_all, e1)
        idx = build_lsh_index(pts, LshParams(3, 5, 15), seed=1)
        for t in range(5):
            assert sorted(idx.table_ids[t].tolist()) == list(range(len(pts)))

    def test_scale_is_max_norm(self, e1, e1_all):
        pts = embed_collection(e1_all, e1)
        idx = build_lsh_index(pts, seed=0)
        assert idx.scale == pytest.approx(pts.norms.max())
        assert (pts.norms <= idx.scale + 1e-12).all()

    def test_hash_key_matches_bucket_membership(self):
        inst, coll = generate_instance(GenSpec(n=12, num_sets=60, seed=8))
        pts = embed_collection(coll, inst)
        idx = build_lsh_index(pts, LshParams(bits=6, tables=3, scan_cap=20),
                              seed=13)
        for i in (0, 7, 31, 59):
            x = simple_lsh_transform(pts[i], idx.scale)
            for t in range(3):
                assert i in idx.bucket(t, hash_key(x, t, idx)).tolist()

    def test_bucket_keeps_keys_above_2_53_apart(self):
        # float64 has a 53-bit significand: compared as floats these three
        # keys are equal
        keys = np.array([[2**62, 2**62 + 1, 2**62 + 2]], dtype=np.uint64)
        idx = LshIndex(LshParams(bits=64, tables=1, scan_cap=3), 0, 1.0,
                       np.zeros((1, 64, 3)), keys,
                       np.array([[0, 1, 2]], dtype=np.int32), 3)
        for i, key in enumerate(keys[0].tolist()):
            assert idx.bucket(0, key).tolist() == [i]

    def test_bits64_self_lookups_return_one_key(self):
        inst, coll = generate_instance(GenSpec(n=20, num_sets=400, seed=0))
        pts = embed_collection(coll, inst)
        idx = build_lsh_index(pts, LshParams(bits=64, tables=3, scan_cap=9),
                              seed=0)
        for t in range(3):
            keys = idx.table_keys[t]
            for key in np.unique(keys):
                assert (idx.bucket(t, int(key)).tolist()
                        == idx.table_ids[t][keys == key].tolist())

    def test_serialization_round_trip(self, tmp_path, e1, e1_all):
        pts = embed_collection(e1_all, e1)
        idx = build_lsh_index(pts, seed=3)
        path = tmp_path / "index.npz"
        save_index(idx, path)
        back = load_index(path)
        assert back.params == idx.params
        assert back.seed == idx.seed and back.scale == idx.scale
        assert np.array_equal(back.projections, idx.projections)
        assert np.array_equal(back.table_keys, idx.table_keys)
        assert np.array_equal(back.table_ids, idx.table_ids)
        assert (LshMips(back, pts, e1.weights).query(2.0)
                == LshMips(idx, pts, e1.weights).query(2.0))

    def test_loads_files_that_store_rho(self, tmp_path, e1, e1_all):
        # files written before rho left the index still carry the field
        idx = build_lsh_index(embed_collection(e1_all, e1), seed=3)
        save_index(idx, tmp_path / "index.npz")
        with np.load(tmp_path / "index.npz") as data:
            fields = dict(data)
        assert "rho" not in fields
        np.savez_compressed(tmp_path / "old.npz", rho=np.float64(0.5), **fields)
        back = load_index(tmp_path / "old.npz")
        assert back.params == idx.params
        assert np.array_equal(back.table_keys, idx.table_keys)


    @pytest.mark.parametrize("bits", [0, 6, 12, 17, 64])
    def test_loads_archives_with_uint64_keys(self, tmp_path, bits):
        # archives written before the build kept keys narrow store them as
        # uint64: they load narrow, and they and an index handed uint64
        # keys answer every query as the index saved
        inst, coll = generate_instance(GenSpec(n=15, num_sets=300, seed=bits))
        pts = embed_collection(coll, inst)
        idx = build_lsh_index(pts, LshParams(bits, tables=5, scan_cap=12), seed=bits)
        save_index(idx, tmp_path / "index.npz")
        with np.load(tmp_path / "index.npz") as data:
            fields = dict(data)
        fields["table_keys"] = fields["table_keys"].astype(np.uint64)
        np.savez_compressed(tmp_path / "old.npz", **fields)
        back = load_index(tmp_path / "old.npz")
        assert back.table_keys.dtype == idx.table_keys.dtype
        assert idx.table_keys.itemsize < 8 or bits == 64
        assert np.array_equal(back.table_keys, idx.table_keys)
        wide = LshIndex(idx.params, idx.seed, idx.scale, idx.projections,
                        idx.table_keys.astype(np.uint64), idx.table_ids, idx.num_points)
        engines = [LshMips(index, pts, inst.weights) for index in (idx, back, wide)]
        answers = [[engine.query(K) for engine in engines]
                   for K in np.linspace(-0.5 * inst.p1, 1.5 * inst.p1, 61)]
        assert all(a == row[0] for row in answers for a in row)
        assert bits > 6 or sum(row[0] is not None for row in answers) > 10
        # at more bits the queries' buckets are mostly empty: look up every
        # stored key instead
        for t in range(5):
            for key in np.unique(idx.table_keys[t]).tolist():
                want = idx.bucket(t, key).tolist()
                assert want and back.bucket(t, key).tolist() == want
                assert wide.bucket(t, key).tolist() == want

    def test_bucket_takes_a_key_of_any_integer_type(self):
        # 12-bit keys are stored as uint16; a key that type cannot hold
        # finds nothing, where a cast would wrap it onto a stored key
        inst, coll = generate_instance(GenSpec(n=20, num_sets=400, seed=0))
        idx = build_lsh_index(embed_collection(coll, inst), LshParams(12, 2, 9), seed=0)
        assert idx.table_keys.dtype == np.uint16
        key = int(idx.table_keys[1, 0])
        want = idx.bucket(1, idx.table_keys[1, 0]).tolist()
        assert want and idx.table_ids[1, 0] in want
        for same in (key, np.uint64(key), np.int64(key), np.uint8(key) if key < 256 else key):
            assert idx.bucket(1, same).tolist() == want
        for outside in (key + 2**16, np.uint64(key + 2**16), -1, np.int64(-1), 2**64):
            assert idx.bucket(1, outside).size == 0


class TestQueryLsh:
    def test_degenerate_index_equals_exact(self):
        inst, coll = generate_instance(GenSpec(n=15, num_sets=120,
                                               price_range=(0, 1), seed=21))
        pts = embed_collection(coll, inst)
        idx = build_lsh_index(pts, LshParams(bits=0, tables=1, scan_cap=120),
                              seed=2)
        exact = ExactMips(pts, inst.weights)
        hashed = LshMips(idx, pts, inst.weights)
        for K in np.linspace(0.0, inst.p1, 9):
            assert hashed.query(K) == exact.query(K)

    def test_score_never_above_exact(self):
        inst, coll = generate_instance(GenSpec(n=25, num_sets=300, seed=22))
        pts = embed_collection(coll, inst)
        idx = build_lsh_index(pts, seed=14)
        exact = ExactMips(pts, inst.weights)
        hashed = LshMips(idx, pts, inst.weights)
        for K in np.linspace(0.0, inst.p1, 20):
            ans = hashed.query(K)
            if ans is not None:
                assert ans[1] <= exact.query(K)[1] + 1e-12

    def test_empty_probes_return_none(self, e1):
        # one stored point; steer the query to the opposite key by negation
        coll = AssortmentCollection([{1, 2, 3}], n=3)
        pts = embed_collection(coll, e1)
        idx = build_lsh_index(pts, LshParams(bits=12, tables=1, scan_cap=5),
                              seed=77)
        stored_key = idx.table_keys[0, 0]
        hashed = LshMips(idx, pts, e1.weights)
        found_none = False
        for K in np.linspace(0, 20, 41):
            q = QueryVector(e1.weights, K)
            ans = hashed.query(K)
            qn = q.vector / np.linalg.norm(q.vector)
            key = hash_key(np.concatenate([qn, [0.0]]), 0, idx)
            if key != stored_key:
                assert ans is None
                found_none = True
            else:
                assert ans is not None
        assert found_none

    def test_scan_cap_limits_candidates(self, e1, e1_all):
        # cap 1 with a degenerate single bucket scans only the first point
        pts = embed_collection(e1_all, e1)
        idx = build_lsh_index(pts, LshParams(bits=0, tables=1, scan_cap=1),
                              seed=0)
        q = QueryVector(e1.weights, 0.0)
        assert (LshMips(idx, pts, e1.weights).query(0.0)
                == (0, pytest.approx(float(pts.scores_at(q)[0]))))

    def test_queries_never_read_the_projections(self):
        # per query, hashing costs O(tables * bits): the engine projects the
        # weights once, and a query must not touch the (tables, bits, 2n + 1)
        # projection tensor again
        inst, coll = generate_instance(GenSpec(n=30, num_sets=200, seed=5))
        pts = embed_collection(coll, inst)
        probe = _IndexProbe(build_lsh_index(pts, seed=5))
        mips = LshMips(probe, pts, inst.weights)
        probe.projection_reads = 0
        for K in np.linspace(0.0, inst.p1, 14):
            mips.query(K)
        assert len(probe.keys) >= 14
        assert probe.projection_reads == 0

    def test_hashed_solves_are_pinned(self):
        h = hashlib.sha256()
        for seed in range(4):
            inst, coll = generate_instance(GenSpec(30, num_sets=3000,
                                                   price_range=(0, 1), seed=seed))
            inst = normalize(inst)
            for params in (None, LshParams(8, 10, 30)):
                for res in (assort_mnl_approx_simple(coll, inst, 1e-4,
                                                     params=params, seed=seed),
                            assort_mnl_approx(coll, inst, 0.05, 0.01,
                                              params=params, seed=seed)):
                    h.update(repr((sorted(res.assortment.items), res.revenue,
                                   res.revenue_interval, res.iterations)).encode())
        assert h.hexdigest() == _PINNED_HASHED_SOLVES_SHA256

    def test_dimension_mismatch(self, e1, e1_triplet):
        pts = embed_collection(e1_triplet, e1)
        idx = build_lsh_index(pts, seed=0)
        other = Instance([3.0, 2.0], [0.5, 0.5], 1.0)
        with pytest.raises(ValueError, match="dimension"):
            LshMips(idx, pts, other.weights)
        with pytest.raises(ValueError, match="dimension"):
            pts.scores_at(QueryVector(other.weights, 1.0))

    @staticmethod
    def _thresholds(p1: float, seed: int) -> np.ndarray:
        """Sweeping, random and repeated thresholds, below 0 and above p1."""
        sweep = np.linspace(-0.5 * p1, 1.5 * p1, 25)
        rng = np.random.default_rng(seed)
        rand = rng.uniform(-p1, 2 * p1, 25)
        return np.concatenate([sweep, rand, sweep[::-1], rng.choice(rand, 25),
                               [0.0, p1, 0.0, p1]])

    @pytest.mark.parametrize("bits", [0, 6, 64])
    def test_remembered_answers_match_a_fresh_engine(self, bits):
        answers = []
        for seed in range(3):
            inst, coll = generate_instance(GenSpec(n=15, num_sets=200, seed=seed))
            pts = embed_collection(coll, inst)
            idx = build_lsh_index(pts, LshParams(bits, tables=5, scan_cap=12),
                                  seed=seed)
            mips = LshMips(idx, pts, inst.weights)
            for K in self._thresholds(inst.p1, seed):
                ans = mips.query(K)
                assert ans == LshMips(idx, pts, inst.weights).query(K), (seed, K)
                answers.append(ans)
        if bits == 64:
            assert None in answers  # at 64 bits almost every bucket is empty
        else:
            assert any(a is not None for a in answers)

    @pytest.mark.parametrize("bits", [1, 6, 64])
    def test_memo_is_bounded_by_key_flips(self, bits):
        # each key bit flips at most once in K, so an engine meets at most
        # tables * bits + 1 key vectors, each probed exactly once
        tables = 4
        inst, coll = generate_instance(GenSpec(n=12, num_sets=150, seed=bits))
        pts = embed_collection(coll, inst)
        probe = _IndexProbe(build_lsh_index(pts, LshParams(bits, tables, 6),
                                            seed=bits))
        mips = LshMips(probe, pts, inst.weights)
        for K in np.concatenate([self._thresholds(inst.p1, 1),
                                 np.linspace(-50 * inst.p1, 50 * inst.p1, 400)]):
            mips.query(K)
        assert 1 < len(mips._memo) <= tables * bits + 1
        assert sum(t == 0 for t, _ in probe.keys) == len(mips._memo)

    def test_repeated_keys_probe_and_rescore_nothing(self):
        inst, coll = generate_instance(GenSpec(n=20, num_sets=300, seed=3))
        pts = _PointsProbe(embed_collection(coll, inst))
        probe = _IndexProbe(build_lsh_index(pts._points, LshParams(4, 6, 20),
                                            seed=3))
        mips = LshMips(probe, pts, inst.weights)
        first = mips.query(0.25 * inst.p1)
        assert first is not None and probe.keys and pts.scores_at_calls == 1
        # thresholds just beside the first share its key vector
        for K in (0.25 * inst.p1, 0.25 * inst.p1 * (1 + 1e-12), 0.25 * inst.p1):
            probe.keys.clear()
            assert mips.query(K) == LshMips(probe._index, pts._points,
                                            inst.weights).query(K)
            assert probe.keys == [] and pts.scores_at_calls == 1
        assert pts.source.set_sums_calls == 1  # the candidates' sums, taken once

    @pytest.mark.parametrize("bits", [3, 6, 12])
    def test_solves_reach_the_tracers_hooks(self, bits):
        # the benchmark times bucket lookups and rescoring by wrapping the
        # index and points an engine is built from, as the probes here do: a
        # hashed solve must look up one bucket per probed table, in order
        # until scan_cap ids are retrieved, and rescore each new key
        # vector's candidates once
        tables, cap = 6, 20
        lookups = rescores = repeats = 0
        for seed in range(3):
            inst, coll = generate_instance(GenSpec(30, num_sets=2000, price_range=(0, 1),
                                                   seed=seed))
            inst = normalize(inst)
            pts = embed_collection(coll, inst)
            idx = build_lsh_index(pts, LshParams(bits, tables, cap), seed=seed)
            traced = _IndexProbe(idx), _PointsProbe(pts)
            for solve in (lambda lsh: assort_mnl_approx(coll, inst, 0.05, 0.01, lsh=lsh),
                          lambda lsh: assort_mnl_approx_simple(coll, inst, 1e-4, lsh=lsh)):
                traced[0].keys.clear()
                traced[1].rescored.clear()
                engine = _Thresholds(LshMips(*traced, inst.weights))
                solve(engine)
                a = idx.projections[:, :, :pts.n] @ inst.weights
                b = idx.projections[:, :, pts.n:2 * pts.n] @ inst.weights
                want_lookups, want_rescored, seen = [], [], set()
                for K in engine.asked:
                    signs = a - K * b >= 0.0
                    if signs.tobytes() in seen:
                        continue
                    seen.add(signs.tobytes())
                    retrieved = []
                    for t in range(tables):
                        key = sum(1 << int(j) for j in np.flatnonzero(signs[t]))
                        ids = idx.bucket(t, key).tolist()
                        want_lookups.append((t, key))
                        retrieved += ids[:cap - len(retrieved)]
                        if len(retrieved) >= cap:
                            break
                    if retrieved:
                        want_rescored.append((K, list(dict.fromkeys(retrieved))))
                assert traced[0].keys == want_lookups
                assert traced[1].rescored == want_rescored
                lookups += len(want_lookups)
                rescores += len(want_rescored)
                repeats += len(engine.asked) - len(seen)
        assert lookups > rescores > 0 and repeats > 0

    def test_engines_keep_their_weights_when_the_caller_overwrites_them(self):
        # each threshold is asked before and after the caller overwrites the
        # array the engines were built from, so the hashed engine's second
        # asks repeat its key vectors; K = -1 is scanned in full
        inst, coll = generate_instance(GenSpec(n=30, num_sets=400, seed=8))
        pts = embed_collection(coll, inst)
        weights = inst.weights.copy()
        engines = [ExactMips(pts, weights),
                   LshMips(build_lsh_index(pts, LshParams(3, 8, 40), seed=8), pts, weights)]
        thresholds = [-1.0, 0.0, 0.1 * inst.p1, 0.3 * inst.p1, 0.6 * inst.p1]
        before = [[engine.query(K) for K in thresholds] for engine in engines]
        weights[:] = weights[::-1].copy()
        assert [[engine.query(K) for K in thresholds] for engine in engines] == before
        assert before[1].count(None) < len(thresholds) - 1  # the hashed engine retrieves

    @pytest.mark.parametrize("bits", [0, 6, 64])
    def test_solvers_answer_as_with_fresh_engines(self, bits):
        for seed in range(3):
            inst, coll = generate_instance(GenSpec(30, num_sets=2000,
                                                   price_range=(0, 1), seed=seed))
            inst = normalize(inst)
            pts = embed_collection(coll, inst)
            idx = build_lsh_index(pts, LshParams(bits, tables=8, scan_cap=24),
                                  seed=seed)
            fresh = _FreshEngine(idx, pts, inst.weights)
            for solve in (lambda lsh: assort_mnl_approx(coll, inst, 0.05, 0.01, lsh=lsh),
                          lambda lsh: assort_mnl_approx_simple(coll, inst, 1e-4, lsh=lsh)):
                got = solve(LshMips(idx, pts, inst.weights))
                want = solve(fresh)
                assert (got.assortment, got.revenue, got.revenue_interval,
                        got.iterations) == (want.assortment, want.revenue,
                                            want.revenue_interval, want.iterations)

    @pytest.mark.xfail(
        strict=False,
        reason="stated recall target is not met by plain sign-projection "
               "tables at the default shape; transformed cosines concentrate "
               "near zero at this scale, so per-bucket discrimination is weak "
               "(measured 67 of 250 queries, a 0.268 pass rate, with this "
               "test's seeds and shape)")
    def test_recall_target_at_defaults(self):
        hits = total = 0
        for trial in range(50):
            inst, coll = generate_instance(GenSpec(n=50, num_sets=1000,
                                                   price_range=(0, 1),
                                                   seed=1000 + trial))
            pts = embed_collection(coll, inst)
            exact = ExactMips(pts, inst.weights)
            hashed = LshMips(build_lsh_index(pts, seed=trial), pts, inst.weights)
            rng = np.random.default_rng(50_000 + trial)
            for K in rng.uniform(0, 0.5 * inst.p1, 5):
                _, exact_score = exact.query(K)
                ans = hashed.query(K)
                total += 1
                if ans is not None and ans[1] >= 0.95 * exact_score:
                    hits += 1
        assert hits / total >= 0.90
