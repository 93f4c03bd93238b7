"""The benchmark's output checks pass on correct outputs and fail on
broken ones: a sampler with the wrong decay, a reservoir that duplicates
or drops a row, and a kNN with a different tiebreak.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""
import json
import os
import sys

import numpy as np
import pandas as pd
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.core import RTBS  # noqa: E402
from repro.ml import KNNClassifier  # noqa: E402

N, LAM = 2_000, 0.5


def serial_run(seed, lam_sampler, sched, n=N):
    """Serial R-TBS over ``sched``; returns (sampler, fed rows, law)."""
    sampler = RTBS(lam_sampler, n, seed=seed)
    law = checks.WeightLaw(LAM, n)
    fed = []
    for t, (b, dt) in enumerate(sched):
        pdf = workloads.rows(seed, 0, t, b)
        fed.append(pdf)
        law.feed(t, b, dt)
        sampler.advance(list(zip(pdf["t"].tolist(), pdf["key"].tolist())), dt)
    return sampler, pd.concat(fed), law


def sample_frame(sampler, seed=0):
    S = sampler.sample(np.random.default_rng(seed))
    return pd.DataFrame(S, columns=["t", "key"]).astype("int64")


SCHED = [(int(f * N), dt) for f, dt in workloads.DRIFT_CYCLE[:5]]  # up to the saturated rounds


@pytest.mark.parametrize("cut", range(1, len(SCHED) + 1))
@pytest.mark.parametrize("seed", range(3))
def test_correct_sampler_passes_every_check(seed, cut):
    sampler, fed, law = serial_run(seed, LAM, SCHED[:cut])
    S = sample_frame(sampler, seed)
    assert law.weight_failures(sampler.total_weight, sampler.sample_weight, "w") == []
    assert law.age_failures(S["t"].to_numpy(), "age") == []
    assert checks.size_failures(len(S), sampler.sample_weight, N, realized=True, where="s") == []
    assert checks.multiset_failures(fed, S.assign(rid=0)) == []


def test_wrong_decay_fails_weight_and_age_law():
    sampler, _, law = serial_run(1, 2 * LAM, SCHED)
    S = sample_frame(sampler)
    assert law.weight_failures(sampler.total_weight, sampler.sample_weight, "w")
    assert law.age_failures(S["t"].to_numpy(), "age")


def test_age_law_alone_sees_wrong_decay():
    """Weights right, but items kept as if the decay were doubled."""
    sampler, _, law = serial_run(2, 2 * LAM, SCHED)
    S = sample_frame(sampler)
    right, _, _ = serial_run(2, LAM, SCHED)
    assert law.weight_failures(right.total_weight, right.sample_weight, "w") == []
    assert law.age_failures(S["t"].to_numpy(), "age")


def test_duplicated_row_fails_multiset():
    sampler, fed, _ = serial_run(3, LAM, SCHED)
    S = sample_frame(sampler)
    dup = pd.concat([S, S.iloc[:1]], ignore_index=True)
    assert checks.multiset_failures(fed, dup.assign(rid=0))


def test_unfed_row_fails_multiset():
    sampler, fed, _ = serial_run(3, LAM, SCHED)
    S = sample_frame(sampler)
    S.loc[0, "key"] = -1
    assert checks.multiset_failures(fed, S.assign(rid=0))


def test_dropped_row_fails_size():
    sampler, _, _ = serial_run(4, LAM, SCHED)
    S = sample_frame(sampler).iloc[1:]
    assert checks.size_failures(len(S), sampler.sample_weight, N, realized=False, where="s")


def tie_data():
    """Training points where k=4 neighbours split 2-2 between classes."""
    rng = np.random.default_rng(0)
    X_train = rng.normal(size=(400, 2))
    y_train = rng.integers(0, 6, size=400)
    X = rng.normal(size=(300, 2))
    return X_train, y_train, X


class SmallestLabelTiebreak(KNNClassifier):
    """kNN that breaks vote ties toward the smallest class label."""

    def predict(self, X):
        d2 = ((np.asarray(X)[:, None, :] - self._X[None, :, :]) ** 2).sum(axis=2)
        nn = np.argsort(d2, axis=1)[:, : self.k]
        out = []
        for votes in self._y[nn]:
            vals, counts = np.unique(votes, return_counts=True)
            out.append(vals[np.argmax(counts)])
        return np.array(out)


def test_program_knn_passes_brute_force():
    X_train, y_train, X = tie_data()
    pred = KNNClassifier(k=4).fit(X_train, y_train).predict(X)
    assert checks.knn_failures(X_train, y_train, X, pred, 4, "knn") == []


def test_other_tiebreak_fails_brute_force():
    X_train, y_train, X = tie_data()
    pred = SmallestLabelTiebreak(k=4).fit(X_train, y_train).predict(X)
    assert checks.knn_failures(X_train, y_train, X, pred, 4, "knn")


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
