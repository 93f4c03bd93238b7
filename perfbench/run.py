"""Benchmark of D-R-TBS ingest, Alg. 3 on Spark, and kNN model refresh.

Run from the repository root:

    python3 perfbench/run.py --workload saturated --seed 1 --seconds 20 --trace 0

Workloads: ``saturated``, ``drift``, ``knn_refresh`` (see workloads.py
and README.md). Progress and check failures go to stderr; the last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics. Exits 2 without a result when the
program's sources (``src/repro``) are not beside this directory.
"""
from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import sys
import time

import workloads
from tracing import RESERVOIR_OPS, Tracer
from workloads import BRANCHES, LANES

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
P = min(4, os.cpu_count() or 1)  # local[P], batch partitions and shuffle partitions
DRIVER_MEM = "2g"
RESERVOIR_LANES = [(op, "dist_cp") for op in RESERVOIR_OPS] + [("replace_random", "kv_cj")]

E2E = {
    "setup_s": "s",
    "ingest_items_per_s": "items/s",
}

PER_LAYER = {
    "round_p50_s": "s",
    **{f"spark.{m}.{L}": u for m, u in (
        ("jobs_per_round", "count"), ("stages_per_round", "count"), ("tasks_per_round", "count"),
        ("executor_run_s_per_round", "s"), ("shuffle_bytes_per_round", "bytes"),
    ) for L in LANES},
    # Cent-KV-CJ runs only on saturated, where replace_random is its one
    # reservoir op in the measured rounds
    **{f"reservoir.{op}_s.{L}": "s" for op, L in RESERVOIR_LANES},
    **{f"reservoir.{op}_calls_per_round.{L}": "count" for op, L in RESERVOIR_LANES},
    **{f"reservoir.partitions_{m}.{L}": "count" for m in ("mean", "max") for L in LANES},
    **{f"common.partition_sizes_calls_per_round.{L}": "count" for L in LANES},
    **{f"common.partition_sizes_s.{L}": "s" for L in LANES},
    **{f"common.decision_s.{L}": "s" for L in LANES},
    **{f"drtbs.advance_self_s.{L}": "s" for L in LANES},
    **{f"drtbs.round_p50_s.{L}": "s" for L in LANES},
    **{f"drtbs.items_per_s.{L}": "items/s" for L in LANES},
    "drtbs.read_p50_s.dist_cp": "s",
    **{f"drtbs.branch_rounds.{b}": "count" for b in BRANCHES},
    "core.rtbs.advance_s.serial": "s",
    "core.rtbs.items_per_s.serial": "items/s",
    "core.rtbs.advance_s.knn": "s",
    "core.rtbs.sample_s.knn": "s",
    "knn.predict_s": "s",
    "knn.fit_s": "s",
    "knn.predict_share": "%",
    "harness.step_self_s": "s",
    "harness.refresh_p95_s": "s",
    "spark.session_start_s": "s",
    "fill_s.dist_cp": "s",
    "fill_s.kv_cj": "s",
    "fill_s.knn": "s",
    "datagen.stream_s": "s",
    "warmup_s": "s",
    **{f"traced.{name}": unit for name, unit in E2E.items()},
}


class SparkRun:
    """A local[P] Spark session whose files stay under ``work``."""

    def __init__(self, work: str, trace: bool):
        self.work = work
        self.trace = trace
        self.event_dir = os.path.join(work, "events")
        self.spark = None
        self.start_s = 0.0
        self._proc = None

    def start(self) -> None:
        local = os.path.join(self.work, "local")
        os.makedirs(local, exist_ok=True)
        os.makedirs(self.event_dir, exist_ok=True)
        java_opts = f"-Djava.io.tmpdir={self.work} -XX:-UsePerfData"
        os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
            f"--master local[{P}]", f"--driver-memory {DRIVER_MEM}",
            "--driver-java-options", shlex.quote(java_opts), "pyspark-shell",
        ])
        from pyspark.sql import SparkSession

        builder = (
            SparkSession.builder.appName("perfbench")
            .config("spark.driver.host", "127.0.0.1")
            .config("spark.ui.enabled", "false")
            .config("spark.ui.showConsoleProgress", "false")
            .config("spark.local.dir", local)
            .config("spark.default.parallelism", str(P))
            .config("spark.sql.shuffle.partitions", str(P))
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.sql.autoBroadcastJoinThreshold", "-1")
            .config("spark.eventLog.enabled", "true" if self.trace else "false")
            .config("spark.eventLog.dir", "file://" + self.event_dir)
            .config("spark.eventLog.compress", "false")
            .config("spark.eventLog.rolling.enabled", "false")
        )
        start = time.perf_counter()
        self.spark = builder.getOrCreate()
        self.start_s = time.perf_counter() - start
        self.spark.sparkContext.setLogLevel("ERROR")
        self._proc = getattr(self.spark.sparkContext._gateway, "proc", None)

    def stop(self) -> None:
        """Stop the session, then the JVM, and wait for it to exit."""
        if self.spark is None:
            return
        gateway = self.spark.sparkContext._gateway
        self.spark.stop()
        self.spark = None
        gateway.shutdown()
        if self._proc is not None:
            self._proc.terminate()
            self._proc.wait(timeout=60)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("saturated", "drift", "knn_refresh"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: program sources not found at {SRC}", file=sys.stderr)
        return 2
    work = os.path.join(BENCH_DIR, ".work", str(os.getpid()))
    os.makedirs(work)
    os.environ["TMPDIR"] = work
    os.environ.pop("SPARK_LOCAL_DIRS", None)  # would override spark.local.dir
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, SRC)

    ctx = workloads.Ctx(seed=args.seed, seconds=args.seconds, trace=bool(args.trace), P=P)
    if args.trace:
        ctx.tracer = Tracer()
    if args.workload != "knn_refresh":
        ctx.session = SparkRun(work, ctx.trace)
    out = workloads.Outcome()
    try:
        getattr(workloads, args.workload)(ctx, out)
    finally:
        if ctx.session is not None:
            ctx.session.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    for msg in out.failures[:20]:
        print(f"[perfbench] CHECK FAILED: {msg}", file=sys.stderr)
    catalogue = PER_LAYER if args.trace else E2E
    values = out.layer if args.trace else out.e2e
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in catalogue.items()}
    print(json.dumps({
        "correct": not out.failures,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
