"""Output checks, made apart from the program under test.

Each check recomputes what the sampler or model should have produced
from the benchmark's own record of its inputs, never from the program's
internal state: the weight law in closed form, Thm 4.2's age law, a
DuckDB multiset comparison of sampled rows against fed rows, and a
brute-force kNN. Every function returns a list of failure messages; an
empty list means the check passed.
"""
from __future__ import annotations

import math

import duckdb
import numpy as np
import pandas as pd

EPS = 1e-9
AGE_Z = 5.0  # sigmas of tolerance on each batch's count in the age law
AGE_SLACK = 2.0  # items: the partial item and rounding of fixed-size draws


class WeightLaw:
    """The benchmark's own ledger of one sampler's inputs.

    Records every batch fed (its id, size and arrival time) and gives
    ``W_t = sum_j B_j e^{-lam (T_t - T_j)}`` by direct summation, and
    ``C_t = min(n, W_t)``, the expected realized sample size.
    """

    def __init__(self, lam: float, n: int):
        self.lam = float(lam)
        self.n = int(n)
        self.now = 0.0
        self.batches: dict[int, tuple[int, float]] = {}  # id -> (B, T)

    def feed(self, batch_id: int, size: int, dt: float) -> None:
        if batch_id in self.batches:
            raise ValueError(f"batch {batch_id} fed twice")
        self.now += dt
        self.batches[batch_id] = (int(size), self.now)

    def total_weight(self) -> float:
        return math.fsum(
            b * math.exp(-self.lam * (self.now - t)) for b, t in self.batches.values()
        )

    def sample_weight(self) -> float:
        return min(float(self.n), self.total_weight())

    def weight_failures(self, W: float, C: float, where: str) -> list[str]:
        """The sampler's reported W and C against the closed form."""
        want_W, want_C = self.total_weight(), self.sample_weight()
        out = []
        if abs(W - want_W) > 1e-7 + 1e-9 * want_W:
            out.append(f"{where}: W={W!r}, closed form {want_W!r}")
        if abs(C - want_C) > 1e-7 + 1e-9 * want_C:
            out.append(f"{where}: C={C!r}, closed form min(n, W)={want_C!r}")
        return out

    def age_failures(self, sample_batch_ids: np.ndarray, where: str) -> list[str]:
        """Thm 4.2: each item of batch j is in S_t with probability
        p_j = (C_t/W_t) e^{-lam (T_t - T_j)}, so the sample's count from
        batch j is B_j p_j within AGE_Z binomial sigmas (fixed-size
        draws vary less than independent ones)."""
        W = self.total_weight()
        C = self.sample_weight()
        ids, counts = np.unique(np.asarray(sample_batch_ids), return_counts=True)
        got = dict(zip(ids.tolist(), counts.tolist()))
        out = [f"{where}: sampled rows of unfed batch {j}" for j in got if j not in self.batches]
        for j, (b, t) in self.batches.items():
            p = min(1.0, (C / W) * math.exp(-self.lam * (self.now - t))) if W > EPS else 0.0
            expect = b * p
            sigma = math.sqrt(b * p * (1.0 - p))
            c = got.get(j, 0)
            if abs(c - expect) > AGE_Z * sigma + AGE_SLACK:
                out.append(
                    f"{where}: batch {j} has {c} sampled items, "
                    f"Thm 4.2 expects {expect:.1f} +- {AGE_Z * sigma + AGE_SLACK:.1f}"
                )
        return out


def size_failures(rows: int, C: float, n: int, *, realized: bool, where: str) -> list[str]:
    """A reservoir holds floor(C) full items; a realized sample adds the
    partial item at most, and never exceeds n."""
    full = math.floor(C + EPS)
    allowed = {full}
    if realized and C - full > EPS:
        allowed.add(full + 1)
    out = []
    if rows not in allowed:
        out.append(f"{where}: {rows} rows, C={C!r} allows {sorted(allowed)}")
    if rows > n:
        out.append(f"{where}: {rows} rows exceed n={n}")
    return out


def multiset_failures(fed: pd.DataFrame, sampled: pd.DataFrame) -> list[str]:
    """Every sampled ``(t, key)`` row was fed, and no row of one read
    (``rid``) appears more often than it was fed."""
    con = duckdb.connect()
    try:
        con.register("fed", fed[["t", "key"]])
        con.register("sampled", sampled[["rid", "t", "key"]])
        bad = con.execute(
            """
            WITH f AS (SELECT t, key, count(*) AS c FROM fed GROUP BY t, key),
                 s AS (SELECT rid, t, key, count(*) AS c FROM sampled GROUP BY rid, t, key)
            SELECT s.rid, s.t, s.key, s.c, coalesce(f.c, 0)
            FROM s LEFT JOIN f USING (t, key)
            WHERE f.c IS NULL OR s.c > f.c
            ORDER BY s.rid, s.t, s.key
            LIMIT 3
            """
        ).fetchall()
    finally:
        con.close()
    return [
        f"read {rid}: row (t={t}, key={key}) sampled {c} times, fed {fc} times"
        for rid, t, key, c, fc in bad
    ]


def brute_knn_predict(X_train: np.ndarray, y_train: np.ndarray, X: np.ndarray, k: int) -> np.ndarray:
    """Reference kNN: full distance sort, majority vote, and among tied
    classes the one whose supporting vote is nearest."""
    k = min(k, len(X_train))
    d2 = ((X[:, None, :] - X_train[None, :, :]) ** 2).sum(axis=2)
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    out = np.empty(len(X), dtype=y_train.dtype)
    for i, votes in enumerate(y_train[order]):
        counts: dict = {}
        for v in votes:
            counts[v] = counts.get(v, 0) + 1
        best = max(counts.values())
        out[i] = next(v for v in votes if counts[v] == best)
    return out


def knn_failures(X_train, y_train, X, predicted, k: int, where: str) -> list[str]:
    want = brute_knn_predict(X_train, y_train, X, k)
    bad = np.flatnonzero(want != np.asarray(predicted))
    if len(bad) == 0:
        return []
    i = int(bad[0])
    return [
        f"{where}: {len(bad)} of {len(X)} predictions differ from brute-force kNN "
        f"(row {i}: got {predicted[i]}, want {want[i]})"
    ]
