"""Workloads, the closed customer loop, output checks and metrics.

A customer is one fresh vector of MNL weights over a fixed catalog.  Each
workload runs one client in a closed loop: the next customer starts only
after every solver has finished the current one.  Only the package's public
API is called, and the library receives only the generated inputs.
"""

import math
import os
import platform
import resource
import statistics
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from assortmax import (BenchConfig, ExactMips, GenSpec, Instance, LshMips,
                       assort_mnl, assort_mnl_approx_simple, assort_mnl_bz,
                       assort_mnl_capacitated, build_lsh_index,
                       embed_collection, exhaustive_search, generate_instance,
                       revenue)
from run import BLAS_VARS
from tracing import Tracer, TracedEngine, TracedIndex, TracedPoints

__all__ = ["WORKLOADS", "HELD_OUT_SEED", "run"]

# Seed kept out of all tuning; a later speed or quality claim is confirmed
# on it before it is accepted.
HELD_OUT_SEED = 1708055

# setup_s is the median of repeated full set-ups: at least SETUP_MIN_REPEATS,
# and more while the set-ups so far took under SETUP_MIN_SECONDS, so that a
# set-up of a few milliseconds is still measured steadily.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPEATS = 200
OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass(frozen=True)
class Workload:
    """Shape of one workload; ``headline`` is the solver reported as solve_ms."""

    name: str
    n: int
    num_sets: int | None
    headline: str
    eps: float = 0.1
    capacity: int | None = None
    c_min: int | None = None
    rounds: int = 15
    alpha: float = 0.3
    shared_index: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("cold-6b", n=1000, num_sets=51200, headline="hashed"),
    Workload("customers-6b", n=1000, num_sets=51200, headline="hashed",
             shared_index=True),
    Workload("capacity-1e5", n=100_000, num_sets=None, headline="topc",
             capacity=50, c_min=10),
    Workload("noisy-12k", n=1000, num_sets=12800, headline="bz"),
)}

# Shapes small enough for the self-check to run every workload in seconds.
TOY_SHAPES = {
    "cold-6b": dict(n=30, num_sets=200),
    "customers-6b": dict(n=30, num_sets=200),
    "capacity-1e5": dict(n=300, capacity=5, c_min=2),
    "noisy-12k": dict(n=30, num_sets=200, rounds=5),
}

# Name under which each solver's per-customer time is reported.
ROLE_METRIC = {"scan": "scan_ms", "exact": "exact_ms", "hashed": "hashed_ms",
               "bz": "noisy_ms", "topc": "cap_ms", "lb": "cap_lb_ms"}


def toy(w: Workload) -> Workload:
    return replace(w, **TOY_SHAPES[w.name])


def _span(tracer, name, count=-1):
    return tracer.span(name, count) if tracer is not None else nullcontext()


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def _rate(times_ms):
    """Calls per second of the summed call time."""
    return len(times_ms) / (sum(times_ms) / 1e3) if times_ms else 0.0


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


# --------------------------------------------------------------------------
# Catalog set-up


@dataclass
class Catalog:
    """One catalog and, on customers-6b, its embedding and shared indexes.

    Each set-up builds one index, with a seed of its own.  The indexes of
    the first SETUP_MIN_REPEATS untraced set-ups are kept, and every customer
    is solved on each of them: how full the probed buckets are, and so the
    hashed solve time, depends on the index draw, and a run that averages
    over a few draws repeats more closely.
    """

    inst: Instance
    coll: object = None
    points: object = None
    indexes: list = field(default_factory=list)


def lsh_params(num_sets: int):
    """The index shape of ``bench``: 20 tables, scan cap 80, sized bits."""
    return BenchConfig().lsh_params(num_sets)


def _count_bytes(rec, index) -> None:
    """Store an index's array bytes as the count of its build span."""
    if rec is not None:
        rec[5] = sum(a.nbytes for a in (index.projections, index.table_keys,
                                        index.table_ids))


def setup(w: Workload, catalog_seed: int, index_seed: int,
          tracer: Tracer | None) -> Catalog:
    """Everything done once per catalog, before the timed loop."""
    with _span(tracer, "data.generate"):
        inst, coll = generate_instance(
            GenSpec(n=w.n, num_sets=w.num_sets, seed=catalog_seed))
    cat = Catalog(inst, coll)
    if w.shared_index:
        with _span(tracer, "mips.embed"):
            cat.points = embed_collection(coll, inst)
        with _span(tracer, "mips.build") as rec:
            cat.indexes.append(
                build_lsh_index(cat.points, lsh_params(len(coll)), index_seed))
            _count_bytes(rec, cat.indexes[0])
    return cat


class MembershipCheck:
    """Decides whether an assortment is one of the collection's sets.

    Sets are bucketed by (size, sum of member indices), so a lookup compares
    only the few sets that agree on both.
    """

    def __init__(self, coll):
        flat, starts, lengths = coll.flat_arrays
        self.coll = coll
        self.lengths = lengths
        self.sums = np.add.reduceat(flat, starts)

    def __call__(self, a) -> bool:
        idx = a.indices()
        same = np.flatnonzero((self.lengths == idx.size) & (self.sums == idx.sum()))
        return any(np.array_equal(self.coll.member_indices(int(i)), idx)
                   for i in same)


def check_result(res, inst, *, member=None, size=None, floor=None):
    """First problem with a solver's answer, or None when it is correct.

    ``member`` tests collection membership, ``size`` is the allowed
    (min, max) cardinality, and ``floor`` the least acceptable revenue.
    """
    a = res.assortment
    if member is not None and not member(a):
        return f"assortment of {len(a)} items is not in the collection"
    if size is not None and not size[0] <= len(a) <= size[1]:
        return f"|A| = {len(a)} is outside [{size[0]}, {size[1]}]"
    exact = revenue(a, inst)
    if not math.isclose(res.revenue, exact, rel_tol=1e-9, abs_tol=1e-12):
        return f"reported revenue {res.revenue!r} differs from revenue(A) = {exact!r}"
    if floor is not None and res.revenue < floor - 1e-9 * max(1.0, abs(floor)):
        return f"revenue {res.revenue!r} is below the required {floor!r}"
    return None


# --------------------------------------------------------------------------
# One run's measurements


class Run:
    """Times, checks and counts of every solver call in one pass over the
    customers (traced or not)."""

    def __init__(self, tracer: Tracer | None, inject=None):
        self.tracer = tracer
        self.inject = inject or {}
        self.times: dict[str, list[float]] = defaultdict(list)
        self.iterations: dict[str, list[int]] = defaultdict(list)
        self.rel_errors: dict[str, list[float]] = defaultdict(list)
        self.customer_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._customer_s = 0.0

    def _excluded(self) -> float:
        return self.tracer.excluded_s if self.tracer is not None else 0.0

    def _fail(self, role: str, problem: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{role}: {problem}")

    def call(self, role: str, solve, check):
        """Time one solver call and check its answer; a failed check or an
        exception is counted and the run goes on.  Returns the result, or
        None when the call raised."""
        self.attempted += 1
        excluded = self._excluded()
        t0 = time.perf_counter()
        try:
            with _span(self.tracer, f"solver.{role}"):
                res = solve()
        except Exception as exc:  # a solver defect must not stop the run
            self._customer_s += time.perf_counter() - t0 - (self._excluded() - excluded)
            self._fail(role, f"{type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - t0 - (self._excluded() - excluded)
        self.times[role].append(elapsed * 1e3)
        self.iterations[role].append(res.iterations)
        self._customer_s += elapsed
        if role in self.inject:
            res = self.inject[role](res)
        try:
            problem = check(res)
        except Exception as exc:  # e.g. an item index outside the catalog
            problem = f"{type(exc).__name__} while checking: {exc}"
        if problem is not None:
            self._fail(role, problem)
        return res

    def rel_error(self, role: str, res, opt) -> None:
        if res is not None and opt is not None and opt.revenue > 0:
            self.rel_errors[role].append((opt.revenue - res.revenue) / opt.revenue)

    def end_customer(self) -> None:
        self.customer_ms.append(self._customer_s * 1e3)
        self._customer_s = 0.0


# --------------------------------------------------------------------------
# Solvers as the workloads call them


def _exact(cat, inst, eps, tracer):
    if tracer is None:
        return assort_mnl(cat.coll, inst, eps)
    with tracer.span("mips.embed"):
        points = embed_collection(cat.coll, inst)
    engine = TracedEngine(ExactMips(points, inst.weights), tracer,
                          "mips.exact_query", inst.v0)
    return assort_mnl(cat.coll, inst, eps, mips=engine)


def _hashed(cat, inst, eps, seed, tracer, index=None):
    """Hashed solve on a shared index, or, without one, after embedding and
    building a fresh index as the ``solve`` CLI does."""
    points = cat.points
    if index is None:
        with _span(tracer, "mips.embed"):
            points = embed_collection(cat.coll, inst)
        with _span(tracer, "mips.build") as rec:
            index = build_lsh_index(points, lsh_params(len(cat.coll)), seed)
            _count_bytes(rec, index)
    if tracer is None:
        engine = LshMips(index, points, inst.weights)
    else:
        inner = LshMips(TracedIndex(index, tracer), TracedPoints(points, tracer),
                        inst.weights)
        engine = TracedEngine(inner, tracer, "mips.lsh_query", inst.v0)
    res = assort_mnl_approx_simple(cat.coll, inst, eps, lsh=engine)
    if tracer is not None:
        engine.shadow(ExactMips(points, inst.weights))
    return res


def _capacitated(inst, w, variant, tracer):
    if tracer is None:
        return assort_mnl_capacitated(inst, w.capacity, w.eps, variant,
                                      c_min=w.c_min)
    stamps = [time.perf_counter()]
    res = assort_mnl_capacitated(inst, w.capacity, w.eps, variant, c_min=w.c_min,
                                 on_iteration=lambda _: stamps.append(time.perf_counter()))
    for start, end in zip(stamps, stamps[1:]):
        tracer.mark(f"solver.{variant}.comparison", start, end)
    return res


def _probe_build(cat, inst, seed, tracer):
    """Time one embed and one build at the shape ``assort_mnl_bz`` rebuilds
    every round; bz offers no injection point to time its own builds."""
    with tracer.span("probe.build"):
        with tracer.span("mips.embed"):
            points = embed_collection(cat.coll, inst)
        with tracer.span("mips.build") as rec:
            _count_bytes(rec, build_lsh_index(points, lsh_params(len(cat.coll)), seed))


def customer(w: Workload, cat: Catalog, member, weights, seed: int, run: Run) -> None:
    """Every solver of the workload on one customer, each answer checked."""
    tracer = run.tracer
    inst = Instance(cat.inst.prices, weights, cat.inst.v0)
    if w.num_sets is None:
        run.call("topc", lambda: _capacitated(inst, w, "topc", tracer),
                 lambda r: check_result(r, inst, size=(0, w.capacity),
                                        floor=r.revenue_interval[0]))
        run.call("lb", lambda: _capacitated(inst, w, "lb", tracer),
                 lambda r: check_result(r, inst, size=(w.c_min, w.capacity)))
        run.end_customer()
        return

    def in_collection(r):
        return check_result(r, inst, member=member)

    opt = run.call("scan", lambda: exhaustive_search(cat.coll, inst), in_collection)
    if w.headline == "bz":
        res = run.call("bz", lambda: assort_mnl_bz(
            cat.coll, inst, w.eps * inst.p1, w.rounds, w.alpha,
            params=lsh_params(len(cat.coll)), seed=seed), in_collection)
        run.rel_error("bz", res, opt)
        if tracer is not None:
            _probe_build(cat, inst, seed, tracer)
        run.end_customer()
        return
    if not w.shared_index:
        floor = opt.revenue - w.eps if opt is not None else None
        run.call("exact", lambda: _exact(cat, inst, w.eps, tracer),
                 lambda r: check_result(r, inst, member=member, floor=floor))
    for index in cat.indexes or [None]:
        res = run.call("hashed", lambda: _hashed(cat, inst, w.eps, seed, tracer, index),
                       in_collection)
        run.rel_error("hashed", res, opt)
    run.end_customer()


# --------------------------------------------------------------------------
# Metrics


def end_to_end(w: Workload, run: Run, setup_s: list[float], peak_mb: float) -> dict:
    """The metrics a user sees, named the same on every workload.

    customers_per_s counts customers served per second of solver time, all
    of the workload's solvers included; solves_per_s counts calls of the
    workload's headline solver per second of its own time.  Both are
    totals over the run, not medians: the hashed solve time is bimodal
    (one bucket fills the scan cap, or every table is probed), and a median
    of such a mix jumps between the modes from one run to the next.
    """
    return {
        "setup_s": (_median(setup_s), "s"),
        "customers_per_s": (_rate(run.customer_ms), "1/s"),
        "solves_per_s": (_rate(run.times[w.headline]), "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def solver_metrics(run: Run) -> dict:
    """Per-solver times, quality and failures, each with its sample count."""
    out = {f"customer_ms.p{q}": {"value": _percentile(run.customer_ms, q), "unit": "ms",
                                 "samples": len(run.customer_ms)} for q in (50, 90)}
    for role, times in run.times.items():
        name = ROLE_METRIC[role]
        out[f"{name}.p50"] = {"value": _median(times), "unit": "ms", "samples": len(times)}
        out[f"{name}.p90"] = {"value": _percentile(times, 90), "unit": "ms",
                              "samples": len(times)}
    if run.times.get("hashed"):
        out["hashed_customers_per_s"] = {"value": _rate(run.times["hashed"]), "unit": "1/s",
                                         "samples": len(run.times["hashed"])}
    for role, errs in run.rel_errors.items():
        name = "noisy" if role == "bz" else role
        out[f"{name}_rel_error.mean"] = {"value": float(np.mean(errs)),
                                         "unit": "ratio", "samples": len(errs)}
    out["fail_rate"] = {"value": run.failed / run.attempted if run.attempted else 0.0,
                        "unit": "ratio", "failed": run.failed,
                        "attempted": run.attempted}
    return out


def layer_metrics(w: Workload, cat: Catalog, tracer: Tracer, run: Run) -> dict:
    """Per-layer metrics from the traced pass; a layer the workload never
    enters reports 0."""
    spans = tracer.spans
    by_name: dict[str, list[int]] = defaultdict(list)
    children: dict[int, list[int]] = defaultdict(list)
    for i, rec in enumerate(spans):
        by_name[rec[0]].append(i)
        children[rec[3]].append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def durs(name, scale=1e3):
        return [dur(i) * scale for i in by_name[name]]

    def self_ms(name):
        return _median([(dur(i) - sum(dur(c) for c in children[i])) * 1e3
                        for i in by_name[name]])

    customers = max(1, len(run.customer_ms))
    queries = by_name["mips.lsh_query"]
    buckets = by_name["mips.bucket"]
    rescores = by_name["mips.rescore"]
    hashed_when_yes = [hashed for exact, hashed in tracer.comparisons if exact]
    bz = [dur(i) * 1e3 / w.rounds for i in by_name["solver.bz"]]
    scans = durs("solver.scan", 1.0)
    arrays = cat.coll.flat_arrays if cat.coll is not None else ()
    entries = arrays[0].size if arrays else 0
    # An exact comparison reads the membership index array and gathers one
    # float64 per entry through it.
    exact_mb = ((arrays[0].nbytes + 8 * entries) / 1e6
                if by_name["mips.exact_query"] else 0.0)
    return {
        "data.generate_s": (_median(durs("data.generate", 1.0)), "s"),
        "mips.embed_ms": (_median(durs("mips.embed")), "ms"),
        "mips.build_ms": (_median(durs("mips.build")), "ms"),
        "mips.lsh_queries": (len(queries) / customers, "count/customer"),
        "mips.lsh_query_ms": (_median(durs("mips.lsh_query")), "ms"),
        "mips.bucket_lookups": (len(buckets) / max(1, len(queries)), "count/query"),
        "mips.bucket_us": (_median(durs("mips.bucket", 1e6)), "us"),
        "mips.empty_bucket_ratio": (
            sum(spans[i][5] == 0 for i in buckets) / max(1, len(buckets)), "ratio"),
        "mips.candidates": (
            sum(spans[i][5] for i in rescores) / max(1, len(queries)), "count/query"),
        "mips.rescore_us": (_median(durs("mips.rescore", 1e6)), "us"),
        "mips.false_negative_rate": (
            hashed_when_yes.count(False) / max(1, len(hashed_when_yes)), "ratio"),
        "mips.exact_query_ms": (_median(durs("mips.exact_query")), "ms"),
        "mips.exact_query_mb": (exact_mb, "MB"),
        "mips.membership_bytes": (sum(a.nbytes for a in arrays), "bytes"),
        "mips.index_bytes": (_median([spans[i][5] for i in by_name["mips.build"]]),
                             "bytes"),
        "solvers.exact.comparisons": (_median(run.iterations["exact"]), "count"),
        "solvers.hashed.comparisons": (_median(run.iterations["hashed"]), "count"),
        "solvers.topc.comparisons": (_median(run.iterations["topc"]), "count"),
        "solvers.lb.comparisons": (_median(run.iterations["lb"]), "count"),
        "solvers.exact.self_ms": (self_ms("solver.exact"), "ms"),
        "solvers.hashed.self_ms": (self_ms("solver.hashed"), "ms"),
        "solvers.cap_comparison_ms": (_median(durs("solver.topc.comparison")), "ms"),
        "solvers.cap_lb_comparison_ms": (_median(durs("solver.lb.comparison")), "ms"),
        "noisy.ms_per_round": (_median(bz), "ms"),
        "oracles.scan_entries_per_s": (
            entries / _median(scans) if scans else 0.0, "1/s"),
    }


# --------------------------------------------------------------------------
# Provenance


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    git = Path(__file__).resolve().parent.parent / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def provenance(w: Workload, seed: int, catalog_seed: int, trace: bool) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_thread_cap": {v: os.environ.get(v) for v in BLAS_VARS},
        "commit": _git_commit(),
        "shape": asdict(w),
        "lsh": asdict(lsh_params(w.num_sets)) if w.num_sets else None,
        "seed": seed,
        "catalog_seed": catalog_seed,
        "held_out_seed": HELD_OUT_SEED,
        "loop": "closed, one client, one process",
        "traced": trace,
    }


# --------------------------------------------------------------------------
# Driver


def _values(metrics: dict) -> dict:
    return {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}


def run(name: str, seed: int, seconds: float, trace: bool, *, toy_shapes=False,
        max_customers: int | None = None, inject=None) -> tuple[dict, dict]:
    """Run one workload; returns (full report, contract result line).

    Set-up is repeated (alternating untraced and traced when tracing); the
    last catalog is kept, with the shared indexes (see ``Catalog``).  The
    timed loop then serves customers until ``seconds`` have passed, or
    ``max_customers`` are done.
    A traced run serves each customer twice, untraced then traced, so the
    tracing overhead is a paired difference.  ``toy_shapes``,
    ``max_customers`` and ``inject`` (role -> function applied to that
    solver's answers before they are checked) serve the self-check.
    """
    if name not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    w = toy(WORKLOADS[name]) if toy_shapes else WORKLOADS[name]
    catalog_ss, customer_ss, index_ss = np.random.SeedSequence(seed).spawn(3)
    catalog_seed = int(catalog_ss.generate_state(1)[0])
    index_seeds = np.random.default_rng(index_ss)
    tracer = Tracer() if trace else None

    setup_plain, setup_traced, indexes = [], [], []
    cat = None
    started = time.perf_counter()
    while (len(setup_plain) < SETUP_MIN_REPEATS
           or (time.perf_counter() - started < SETUP_MIN_SECONDS
               and len(setup_plain) < SETUP_MAX_REPEATS)):
        for traced in ((False, True) if trace else (False,)):
            cat = None  # free the previous catalog before drawing the next
            t0 = time.perf_counter()
            cat = setup(w, catalog_seed, int(index_seeds.integers(2**32)),
                        tracer if traced else None)
            (setup_traced if traced else setup_plain).append(time.perf_counter() - t0)
            if not traced:
                indexes += cat.indexes
    cat.indexes = indexes[:SETUP_MIN_REPEATS]
    member = MembershipCheck(cat.coll) if cat.coll is not None else None

    plain = Run(None, inject)
    traced_run = Run(tracer, inject) if trace else None
    rng = np.random.default_rng(customer_ss)
    rss_before_traced = None
    deadline = time.perf_counter() + seconds
    done = 0
    while done == 0 or (time.perf_counter() < deadline
                        and (max_customers is None or done < max_customers)):
        weights = rng.uniform(0.0, 1.0, size=w.n)
        cust_seed = int(rng.integers(2**32))
        customer(w, cat, member, weights, cust_seed, plain)
        if trace:
            if rss_before_traced is None:
                rss_before_traced = _peak_rss_mb()
            tracer.customer = done
            with tracer.span("customer"):
                customer(w, cat, member, weights, cust_seed, traced_run)
            tracer.customer = -1
        done += 1
    peak_mb = _peak_rss_mb()

    untraced = end_to_end(w, plain, setup_plain, peak_mb)
    report = {
        "workload": w.name,
        "provenance": provenance(w, seed, catalog_seed, trace),
        "customers": done,
        "end_to_end": _values(untraced),
        "solvers": solver_metrics(plain),
        "failures": plain.failures,
    }
    runs = [plain]
    if trace:
        runs.append(traced_run)
        # Both passes share one process, so the peak RSS the traced passes
        # add is the growth of the peak while they ran.
        with_trace = end_to_end(w, traced_run, setup_traced, peak_mb)
        overhead = {f"overhead.{k}": (with_trace[k][0] - v, u)
                    for k, (v, u) in untraced.items()}
        overhead["overhead.peak_rss_mb"] = (peak_mb - rss_before_traced, "MB")
        layers = {**layer_metrics(w, cat, tracer, traced_run), **overhead}
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{w.name}-{seed}.jsonl"
        tracer.write(spans_path)
        report.update({
            "end_to_end_traced": _values(with_trace),
            "solvers_traced": solver_metrics(traced_run),
            "failures_traced": traced_run.failures,
            "per_layer": _values(layers),
            "spans_file": str(spans_path.relative_to(OUT_DIR.parent.parent)),
        })
        metrics = layers
    else:
        metrics = untraced
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": _values(metrics)}
    return report, line
