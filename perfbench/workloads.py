"""The benchmark's three closed-loop workloads.

Each workload has one caller that hands the sampler its next batch only
after the previous call returns, as a ``foreachBatch`` loop does. Inputs
are generated here from the run's seed; every batch is built (and, on
Spark, checkpointed) before its timed call, and only calls into
``repro``'s public API are timed. A run measures a fixed number of whole
cycles of its schedule, sized from ``seconds`` by the cycle's nominal
length on a 4-core machine, so every run of a workload does the same
operations; then it checks its outputs with ``checks``, untimed.

* ``saturated`` - Dist-CP and Cent-KV-CJ D-R-TBS in the saturated regime
  (paper Fig. 7): every measured round is Alg. 2's saturated branch.
* ``drift`` - Dist-CP D-R-TBS over bursts, lulls, empty batches and
  time gaps, so all four Alg. 2 branches and Alg. 3 run on Spark; the
  sample is read after every round. Serial R-TBS runs the same schedule
  first, as the single-threaded baseline.
* ``knn_refresh`` - serial R-TBS with the Table 1 protocol: realize the
  sample, fit kNN, predict the batch, then advance (paper Sec. 6.2).
"""
from __future__ import annotations

import os
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

import checks
from tracing import RESERVOIR_OPS, SparkCounters, Tracer, event_log_totals, trace_common, trace_drtbs

SETUP_REPS = 3  # set-ups per run; setup_s reports their median
BRANCHES = ("unsaturated", "overshoot", "saturated", "undershoot")
LANES = ("dist_cp", "kv_cj")

# saturated: the paper's Fig. 7 setting at the ROADMAP baseline scale
SAT_N, SAT_B, SAT_LAM = 100_000, 50_000, 0.07
SAT_IMPLS = {"dist_cp": dict(storage="cp", strategy="dist"), "kv_cj": dict(storage="kv", retrieval="cj")}
SAT_CYCLE = 4  # Dist-CP partitions repeat 8 -> 12 -> 16 -> 4 with 4-partition batches
SAT_CYCLE_NOMINAL_S = 10.0

# drift: (fraction of n, dt) per round; from an empty sample the cycle
# runs unsaturated, unsaturated with downsampling, overshoot, saturated
# twice, undershoot on an empty batch, a lull after a gap of 2, and a
# gap of 100 that decays every old item away.
DRIFT_N, DRIFT_LAM = 50_000, 0.5
DRIFT_CYCLE = ((0.6, 1.0), (0.3, 1.0), (0.8, 1.0), (0.5, 1.0), (0.5, 1.0), (0.0, 1.0), (0.1, 2.0), (0.0, 100.0))
DRIFT_SETUP_ROUNDS = 2
DRIFT_CYCLE_NOMINAL_S = 10.0
SERIAL_PASSES = 3

# knn_refresh: the Table 1 protocol for R-TBS, P(10,10), lambda = 0.07
KNN = dict(n=1000, b=100, k=7, lam=0.07, warmup=100, n_batches=60)
KNN_STEP_S = 0.0042  # one refresh step on the reference machine (traced runs)
# knn_refresh measures this share of --seconds, which keeps a run of the
# three workloads near two minutes; the Spark workloads already spend more
# than half of each run on JVM start and set-up.
KNN_SHARE = 0.5
KNN_CHUNKS = 8  # the runs are set up and measured in this many shares
KNN_CHECK_EVERY = 10  # every 10th step is checked against brute-force kNN


class OpFailed(Exception):
    """An operation of the workload raised; the run stops measuring."""


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    e2e: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            raise OpFailed from exc


@dataclass
class Ctx:
    seed: int
    seconds: float
    trace: bool
    P: int
    session: object = None  # run.SparkRun, for the Spark workloads
    tracer: Tracer | None = None


def rows(seed: int, lane: int, t: int, size: int) -> pd.DataFrame:
    """Batch ``t`` of a lane: ``size`` rows ``(t, key)``, random keys."""
    rng = np.random.default_rng([seed, lane, t])
    return pd.DataFrame({"t": np.full(size, t, dtype=np.int64), "key": rng.integers(0, 1 << 62, size=size)})


def spark_batch(spark, pdf: pd.DataFrame, P: int):
    """A checkpointed P-partition batch, so re-evaluation is stable."""
    # partitions are counted after the checkpoint, where it costs no planning
    df = spark.createDataFrame(pdf, schema="t long, key long").localCheckpoint(eager=True)
    if df.rdd.getNumPartitions() != P:
        df = df.repartition(P).localCheckpoint(eager=True)
    return df


def partition_counts(df, P: int) -> list[int]:
    """Rows per partition of a checkpointed batch, counted natively."""
    from pyspark.sql import functions as F

    got = dict(df.groupBy(F.spark_partition_id().alias("p")).count().collect())
    return [int(got.get(p, 0)) for p in range(df.rdd.getNumPartitions())]


def branch(law: checks.WeightLaw, W_before: float) -> str:
    """Alg. 2 branch a round took, from the closed-form weights."""
    n, W = law.n, law.total_weight()
    if W_before < n - checks.EPS:
        return "overshoot" if W > n + checks.EPS else "unsaturated"
    return "saturated" if W >= n - checks.EPS else "undershoot"


def cycles(seconds: float, nominal_s: float) -> int:
    return max(1, round(seconds / nominal_s))


def median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def p95(xs) -> float:
    return float(np.percentile(xs, 95)) if xs else 0.0


@dataclass
class Lane:
    """One Spark sampler under test and the benchmark's record of it."""

    label: str
    idx: int
    sampler: object
    law: checks.WeightLaw
    fed: list = field(default_factory=list)
    advance_s: list = field(default_factory=list)
    read_s: list = field(default_factory=list)
    items: int = 0
    partitions: list = field(default_factory=list)
    branches: dict = field(default_factory=lambda: dict.fromkeys(BRANCHES, 0))

    def feed(self, t: int, pdf: pd.DataFrame, dt: float) -> str:
        W_before = self.law.total_weight()
        self.law.feed(t, len(pdf), dt)
        self.fed.append(pdf)
        return branch(self.law, W_before)


def _timed_spark_call(ctx: Ctx, out: Outcome, lane: Lane, counters, fn, *args, **kwargs):
    if ctx.tracer is not None:
        ctx.tracer.label = lane.label
    if counters is not None:
        counters.begin(lane.label)
    try:
        start = time.perf_counter()
        res = out.call(fn, *args, **kwargs)
        return res, time.perf_counter() - start
    finally:
        if counters is not None:
            counters.end()


# ----------------------------------------------------------------------
# saturated
# ----------------------------------------------------------------------
def saturated(ctx: Ctx, out: Outcome) -> None:
    from repro.distributed import DRTBS

    ctx.session.start()
    spark, P = ctx.session.spark, ctx.P
    setup_s, fill = [], {label: [] for label in LANES}
    g0 = time.perf_counter()
    fills = [rows(ctx.seed, idx, 0, SAT_N) for idx in range(len(SAT_IMPLS))]
    fill_batches = [spark_batch(spark, pdf, P) for pdf in fills]
    out.layer["datagen.stream_s"] = time.perf_counter() - g0
    for rep in range(SETUP_REPS):
        start = time.perf_counter()
        lanes = []
        for idx, (label, impl) in enumerate(SAT_IMPLS.items()):
            pdf, batch = fills[idx], fill_batches[idx]
            sampler = DRTBS(spark, SAT_LAM, SAT_N, seed=ctx.seed * 10 + idx, target_partitions=P, **impl)
            lane = Lane(label, idx, sampler, checks.WeightLaw(SAT_LAM, SAT_N))
            lane.feed(0, pdf, 1.0)
            f0 = time.perf_counter()
            # one batch of exactly n items: saturated from round 1 on, so
            # Alg. 3 never runs in this workload
            out.call(sampler.advance, batch)
            fill[label].append(time.perf_counter() - f0)
            lanes.append(lane)
        setup_s.append(time.perf_counter() - start)

    # warm-up round: the select UDFs' first run; the measured rounds then
    # start at the same point of the partition cycle in every run
    w0 = time.perf_counter()
    for lane in lanes:
        pdf = rows(ctx.seed, lane.idx, 1, SAT_B)
        batch = spark_batch(spark, pdf, P)
        lane.feed(1, pdf, 1.0)
        out.call(lane.sampler.advance, batch)
    warmup_s = time.perf_counter() - w0

    counters = _install_tracing(ctx, lanes)
    rounds: list[float] = []
    t = 2
    try:
        for _ in range(cycles(ctx.seconds, SAT_CYCLE_NOMINAL_S)):
            for _ in range(SAT_CYCLE):
                rt = 0.0
                for lane in lanes:
                    pdf = rows(ctx.seed, lane.idx, t, SAT_B)
                    batch = spark_batch(spark, pdf, P)
                    lane.branches[lane.feed(t, pdf, 1.0)] += 1
                    _, dur = _timed_spark_call(ctx, out, lane, counters, lane.sampler.advance, batch)
                    lane.advance_s.append(dur)
                    lane.items += SAT_B
                    rt += dur
                    if ctx.trace:
                        lane.partitions.append(lane.sampler.reservoir.df.rdd.getNumPartitions())
                    s = lane.sampler
                    out.failures += lane.law.weight_failures(s.total_weight, s.sample_weight, f"{lane.label} round {t}")
                rounds.append(rt)
                t += 1
    except OpFailed:
        pass
    if ctx.tracer is not None:
        ctx.tracer.restore()

    if out.failed == 0:
        for lane in lanes:
            S = out.call(lane.sampler.sample_pandas)
            where = f"{lane.label} final sample"
            out.failures += checks.size_failures(len(S), lane.sampler.sample_weight, SAT_N, realized=False, where=where)
            out.failures += lane.law.age_failures(S["t"].to_numpy(), where)
            out.failures += checks.multiset_failures(pd.concat(lane.fed), S.assign(rid=0))

    items = sum(lane.items for lane in lanes)
    _report_e2e(ctx, out, setup_s, rounds, items)
    layer = out.layer
    layer["warmup_s"] = warmup_s
    for lane in lanes:
        layer[f"fill_s.{lane.label}"] = median(fill[lane.label])
    _report_spark_layers(ctx, out, lanes, counters)


# ----------------------------------------------------------------------
# drift
# ----------------------------------------------------------------------
def drift_schedule(seed: int, n_cycles: int) -> list[tuple[int, float]]:
    """The seeded schedule: DRIFT_CYCLE with batch sizes jittered by up
    to 10%, which keeps every round on its cycle position's branch."""
    rng = np.random.default_rng([seed, 99])
    total = DRIFT_SETUP_ROUNDS + n_cycles * len(DRIFT_CYCLE)
    out = []
    while len(out) < total:
        for frac, dt in DRIFT_CYCLE:
            out.append((int(round(frac * DRIFT_N * rng.uniform(0.9, 1.1))), dt))
    return out[:total]


def drift_serial(ctx: Ctx, out: Outcome, sched, batches) -> list[tuple[float, float]]:
    """Serial R-TBS over the whole schedule, SERIAL_PASSES times; returns
    the first pass's (W, C) per round."""
    from repro.core import RTBS

    items = [pdf["key"].tolist() for pdf in batches]
    weights, times, n_items = [], [], 0
    for p in range(SERIAL_PASSES):
        sampler = RTBS(DRIFT_LAM, DRIFT_N, seed=[ctx.seed, 5, p])
        law = checks.WeightLaw(DRIFT_LAM, DRIFT_N)
        for t, (b, dt) in enumerate(sched):
            start = time.perf_counter()
            out.call(sampler.advance, items[t], dt)
            times.append(time.perf_counter() - start)
            n_items += b
            if p == 0:
                law.feed(t, b, dt)
                weights.append((sampler.total_weight, sampler.sample_weight))
                out.failures += law.weight_failures(*weights[-1], f"serial round {t}")
    out.layer["core.rtbs.advance_s.serial"] = statistics.fmean(times)
    out.layer["core.rtbs.items_per_s.serial"] = n_items / sum(times)
    return weights


def drift(ctx: Ctx, out: Outcome) -> None:
    sched = drift_schedule(ctx.seed, cycles(ctx.seconds, DRIFT_CYCLE_NOMINAL_S))
    g0 = time.perf_counter()
    batches = [rows(ctx.seed, 0, t, b) for t, (b, _) in enumerate(sched)]
    out.layer["datagen.stream_s"] = time.perf_counter() - g0
    serial = drift_serial(ctx, out, sched, batches)

    ctx.session.start()
    from repro.distributed import DRTBS

    spark, P = ctx.session.spark, ctx.P
    reads: list[pd.DataFrame] = []

    def one_round(lane: Lane, t: int, counters=None) -> tuple[float, float]:
        b, dt = sched[t]
        pdf = batches[t]
        batch = spark_batch(spark, pdf, P)
        sizes = partition_counts(batch, P)
        br = lane.feed(t, pdf, dt)
        s = lane.sampler
        _, adv = _timed_spark_call(ctx, out, lane, counters, s.advance, batch, dt, batch_sizes=sizes)
        S, read = _timed_spark_call(ctx, out, lane, counters, s.sample_pandas)
        where = f"dist_cp round {t}"
        out.failures += lane.law.weight_failures(s.total_weight, s.sample_weight, where)
        if (s.total_weight, s.sample_weight) != serial[t]:
            out.failures.append(f"{where}: (W, C)={(s.total_weight, s.sample_weight)} but serial has {serial[t]}")
        out.failures += checks.size_failures(len(S), s.sample_weight, DRIFT_N, realized=True, where=where)
        out.failures += lane.law.age_failures(S["t"].to_numpy() if len(S) else np.empty(0), where)
        reads.append(S.assign(rid=t) if len(S) else pd.DataFrame({"rid": [], "t": [], "key": []}))
        lane.items += b
        lane.branches[br] += 1
        return adv, read

    setup_s, fill = [], []
    for rep in range(SETUP_REPS):
        start = time.perf_counter()
        reads.clear()
        sampler = DRTBS(spark, DRIFT_LAM, DRIFT_N, seed=ctx.seed * 10, target_partitions=P)
        lane = Lane("dist_cp", 0, sampler, checks.WeightLaw(DRIFT_LAM, DRIFT_N))
        try:
            fill.append(sum(sum(one_round(lane, t)) for t in range(DRIFT_SETUP_ROUNDS)))
        except OpFailed:
            break
        setup_s.append(time.perf_counter() - start)
    lane.items, lane.branches = 0, dict.fromkeys(BRANCHES, 0)

    counters = _install_tracing(ctx, [lane]) if out.failed == 0 else None
    rounds: list[float] = []
    try:
        for t in range(DRIFT_SETUP_ROUNDS, len(sched) if out.failed == 0 else 0):
            adv, read = one_round(lane, t, counters)
            lane.advance_s.append(adv)
            lane.read_s.append(read)
            rounds.append(adv + read)
            if ctx.trace:
                df = lane.sampler.reservoir.df
                lane.partitions.append(df.rdd.getNumPartitions() if df is not None else 0)
    except OpFailed:
        pass
    if ctx.tracer is not None:
        ctx.tracer.restore()

    if out.failed == 0:
        R = out.call(lane.sampler.reservoir.to_pandas)
        out.failures += checks.size_failures(
            len(R), lane.sampler.sample_weight, DRIFT_N, realized=False, where="dist_cp final reservoir"
        )
        out.failures += checks.multiset_failures(pd.concat(lane.fed), pd.concat(reads))

    _report_e2e(ctx, out, setup_s, rounds, lane.items)
    out.layer["fill_s.dist_cp"] = median(fill)
    out.layer["drtbs.read_p50_s.dist_cp"] = median(lane.read_s)
    _report_spark_layers(ctx, out, [lane], counters)


# ----------------------------------------------------------------------
# knn_refresh
# ----------------------------------------------------------------------
class StepClock:
    """The scheme as the harness sees it: one refresh step runs from the
    harness's ``sample()`` call to the return of its ``advance()``."""

    def __init__(self, scheme, tracer: Tracer | None):
        self.scheme = scheme
        self.steps: list[float] = []
        self._sample = tracer.wrap("core.rtbs.sample", scheme.sample) if tracer else scheme.sample
        self._advance = tracer.wrap("core.rtbs.advance", scheme.advance) if tracer else scheme.advance
        self._t0 = 0.0

    def sample(self):
        self._t0 = time.perf_counter()
        return self._sample()

    def advance(self, batch):
        self._advance(batch)
        self.steps.append(time.perf_counter() - self._t0)


class CheckedKNN:
    """``KNNClassifier`` as the harness sees it; keeps every
    KNN_CHECK_EVERY-th step's inputs and predictions for the check."""

    def __init__(self, k: int, log: list, counter: list, tracer: Tracer | None):
        from repro.ml import KNNClassifier

        self.model = KNNClassifier(k=k)
        self.log, self.counter = log, counter
        self._fit = tracer.wrap("knn.fit", self.model.fit) if tracer else self.model.fit
        self._predict = tracer.wrap("knn.predict", self.model.predict) if tracer else self.model.predict
        self._train = None

    def fit(self, X, y):
        self._fit(X, y)
        self._train = (X, y)
        return self

    def predict(self, X):
        pred = self._predict(X)
        self.counter[0] += 1
        if self.counter[0] % KNN_CHECK_EVERY == 0:
            self.log.append((*self._train, X, pred))
        return pred


def knn_refresh(ctx: Ctx, out: Outcome) -> None:
    from repro.datagen import Periodic, batches
    from repro.datagen.gaussian_mixture import GaussianMixtureStream
    from repro.experiments.harness import build_stream, make_scheme, run_prequential
    from repro.ml import KNNClassifier
    from repro.ml.metrics import misclassification_rate

    n, b, k, lam, warmup = KNN["n"], KNN["b"], KNN["k"], KNN["lam"], KNN["warmup"]
    n_runs = max(KNN_CHUNKS, round(KNN_SHARE * ctx.seconds / (KNN["n_batches"] * KNN_STEP_S)))
    # Run r is pinned to the r-th allowed CPU in turn: this single-threaded
    # loop then samples every core evenly instead of whichever one the
    # scheduler kept it on, whose speed varies with the host's other load.
    cpus = sorted(os.sched_getaffinity(0))

    def pin(r: int) -> None:
        os.sched_setaffinity(0, {cpus[r % len(cpus)]})

    def set_up(runs: range) -> tuple[list, float, float]:
        """The runs' streams, samplers and unevaluated warm-up batches."""
        prepared, gen_t, fill_t = [], 0.0, 0.0
        for r in runs:
            pin(r)
            g0 = time.perf_counter()
            X, y, bounds, ev = build_stream(
                GaussianMixtureStream(seed=[ctx.seed, r, 0]),
                Periodic(10, 10),
                warmup=warmup,
                n_batches=KNN["n_batches"],
                batch_size_fn=batches.constant(b),
                warmup_size=b,
            )
            scheme = make_scheme("rtbs", lam=lam, n=n, b=b, seed=[ctx.seed, r, 17])
            f0 = time.perf_counter()
            # the harness only advances over the warm-up batches
            out.call(
                run_prequential, scheme, lambda: KNNClassifier(k=k), X, y,
                bounds[:warmup], ev[:warmup], misclassification_rate, min_fit=k,
            )
            fill_t += time.perf_counter() - f0
            gen_t += f0 - g0
            prepared.append((X, y, bounds[warmup:], ev[warmup:], scheme))
        return prepared, gen_t, fill_t

    tracer = ctx.tracer
    steps: list[float] = []
    items = 0

    def measure(r: int, X, y, bounds, ev, scheme) -> None:
        nonlocal items
        pin(r)
        clock, log, counter = StepClock(scheme, tracer), [], [0]
        metric = out.call(
            run_prequential, clock, lambda: CheckedKNN(k, log, counter, tracer), X, y,
            bounds, ev, misclassification_rate, min_fit=k,
        )
        out.attempted += len(bounds) - 1  # one operation per refresh step
        steps.extend(clock.steps)
        items += sum(e - s for s, e in bounds)
        where = f"knn run {r}"
        for i, (Xtr, ytr, Xte, pred) in enumerate(log):
            out.failures += checks.knn_failures(Xtr, ytr, Xte, pred, k, f"{where} check {i}")
            if len(Xtr) > n:
                out.failures.append(f"{where}: sample of {len(Xtr)} items exceeds n={n}")
        law = checks.WeightLaw(lam, n)
        for t in range(warmup + len(bounds)):
            law.feed(t, b, 1.0)
        out.failures += law.weight_failures(scheme.total_weight, scheme.sample_weight, where)
        mean_miss = statistics.fmean(metric)
        if not 0.0 < mean_miss < 60.0:
            out.failures.append(f"{where}: mean misclassification {mean_miss:.1f}% outside (0, 60)")

    # Each of the SETUP_REPS set-ups covers every run, but is made one
    # share of the runs at a time, just before that share is measured with
    # the last set-up's samplers. The set-ups are thus spread over the
    # whole run, as the steps are, and see the same changes in the host's
    # speed instead of the few seconds at its start.
    setup_s, fill_s, datagen_s = ([0.0] * SETUP_REPS for _ in range(3))
    try:
        for c in range(KNN_CHUNKS):
            runs = range(c * n_runs // KNN_CHUNKS, (c + 1) * n_runs // KNN_CHUNKS)
            for rep in range(SETUP_REPS):
                start = time.perf_counter()
                prepared, gen_t, fill_t = set_up(runs)
                setup_s[rep] += time.perf_counter() - start
                fill_s[rep] += fill_t
                datagen_s[rep] += gen_t
            for r, run in zip(runs, prepared):
                measure(r, *run)
    except OpFailed:
        pass

    os.sched_setaffinity(0, cpus)
    _report_e2e(ctx, out, setup_s, steps, items)
    layer = out.layer
    layer["fill_s.knn"] = median(fill_s)
    layer["datagen.stream_s"] = median(datagen_s)
    layer["harness.refresh_p95_s"] = p95(steps)
    if tracer is not None and steps:
        per_step = {name: tracer.total(name) / len(steps) for name in ("core.rtbs.sample", "core.rtbs.advance", "knn.fit", "knn.predict")}
        layer["core.rtbs.sample_s.knn"] = tracer.mean("core.rtbs.sample")
        layer["core.rtbs.advance_s.knn"] = tracer.mean("core.rtbs.advance")
        layer["knn.fit_s"] = tracer.mean("knn.fit")
        layer["knn.predict_s"] = tracer.mean("knn.predict")
        layer["knn.predict_share"] = 100.0 * per_step["knn.predict"] / statistics.fmean(steps)
        layer["harness.step_self_s"] = statistics.fmean(steps) - sum(per_step.values())


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def _report_e2e(ctx: Ctx, out: Outcome, setup_s, rounds, items) -> None:
    session_s = ctx.session.start_s if ctx.session is not None else 0.0
    e2e = {
        "setup_s": session_s + median(setup_s),
        "ingest_items_per_s": items / sum(rounds) if rounds else 0.0,
    }
    out.e2e.update(e2e)
    out.layer["round_p50_s"] = median(rounds)
    print(f"[perfbench] set-up seconds: {[round(s, 4) for s in setup_s]}", file=sys.stderr)
    print(f"[perfbench] round seconds: {[round(r, 4) for r in rounds[:64]]}", file=sys.stderr)
    if ctx.session is not None:
        out.layer["spark.session_start_s"] = session_s
    if ctx.trace:
        out.layer.update({f"traced.{k}": v for k, v in e2e.items()})


def _install_tracing(ctx: Ctx, lanes) -> SparkCounters | None:
    if not ctx.trace:
        return None
    tracer = ctx.tracer
    for lane in lanes:
        trace_drtbs(tracer, lane.sampler, lane.label)
    trace_common(tracer)
    return SparkCounters(ctx.session.spark.sparkContext)


def _report_spark_layers(ctx: Ctx, out: Outcome, lanes, counters) -> None:
    layer = out.layer
    if counters is not None:
        time.sleep(1.0)  # let the status listener see the last jobs end
    for lane in lanes:
        L, n_rounds = lane.label, len(lane.advance_s)
        layer[f"drtbs.round_p50_s.{L}"] = median(lane.advance_s)
        layer[f"drtbs.items_per_s.{L}"] = lane.items / sum(lane.advance_s) if lane.advance_s else 0.0
        if L == "dist_cp":
            layer.update({f"drtbs.branch_rounds.{br}": lane.branches[br] for br in BRANCHES})
        if counters is None or n_rounds == 0:
            continue
        tr = ctx.tracer
        for op in RESERVOIR_OPS:
            layer[f"reservoir.{op}_s.{L}"] = tr.mean(f"reservoir.{op}.{L}")
            layer[f"reservoir.{op}_calls_per_round.{L}"] = tr.calls(f"reservoir.{op}.{L}") / n_rounds
        layer[f"reservoir.partitions_mean.{L}"] = statistics.fmean(lane.partitions)
        layer[f"reservoir.partitions_max.{L}"] = max(lane.partitions)
        layer[f"common.partition_sizes_calls_per_round.{L}"] = tr.calls(f"common.partition_sizes.{L}") / n_rounds
        layer[f"common.partition_sizes_s.{L}"] = tr.mean(f"common.partition_sizes.{L}")
        layer[f"common.decision_s.{L}"] = (
            tr.total(f"common.central_positions.{L}") + tr.total(f"common.distributed_counts.{L}")
        ) / n_rounds
        layer[f"drtbs.advance_self_s.{L}"] = tr.self_total(f"drtbs.advance.{L}") / n_rounds
        jobs, stages, tasks = counters.per_round(L, n_rounds)
        layer[f"spark.jobs_per_round.{L}"] = jobs
        layer[f"spark.stages_per_round.{L}"] = stages
        layer[f"spark.tasks_per_round.{L}"] = tasks
        print(f"[perfbench] {L} reservoir partitions per round: {lane.partitions}", file=sys.stderr)
    if counters is not None:
        ctx.session.stop()
        totals = event_log_totals(ctx.session.event_dir)
        for lane in lanes:
            n_rounds = max(1, len(lane.advance_s))
            got = totals.get(lane.label, {"run_s": 0.0, "shuffle_bytes": 0.0})
            layer[f"spark.executor_run_s_per_round.{lane.label}"] = got["run_s"] / n_rounds
            layer[f"spark.shuffle_bytes_per_round.{lane.label}"] = got["shuffle_bytes"] / n_rounds
