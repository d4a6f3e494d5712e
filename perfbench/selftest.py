"""Tests for the benchmark itself (not collected by the repo's test run).

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from common import (  # noqa: E402
    OUT_DIR,
    ROOT,
    load_spec,
    pin_blas_threads,
    units,
    use_program_source,
)
from spans import Span, SpanRecorder, self_times, union_length  # noqa: E402

pin_blas_threads()
use_program_source()

import numpy as np  # noqa: E402

import run  # noqa: E402
import serve  # noqa: E402
import train  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


# ------------------------------------------------------------------- spans
def _span(name, lo, hi, parent=None):
    return Span(name=name, start_ns=lo, end_ns=hi, parent=parent)


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0
    assert union_length([(0, 10), (5, 15), (20, 25)]) == 20
    assert union_length([(0, 10), (2, 3), (10, 12)]) == 12


def test_self_time_nested_and_overlapping_children():
    spans = [
        _span("iter", 0, 100),  # 0
        _span("w0", 10, 50, parent=0),  # 1: overlaps w1
        _span("w1", 30, 70, parent=0),  # 2
        _span("inner", 20, 40, parent=1),  # 3: nested in w0
        _span("late", 90, 120, parent=0),  # 4: runs past its parent's end
    ]
    st = self_times(spans)
    # iter: 100 minus the union [10, 70] + [90, 100] = 100 - 70
    assert st[0] == 30
    assert st[1] == 40 - 20  # w0 minus inner
    assert st[2] == 40
    assert st[3] == 20
    assert st[4] == 30


def test_self_time_with_explicit_cross_process_children():
    spans = [_span("iter", 0, 100), _span("z", 10, 60), _span("z", 20, 90)]
    assert self_times(spans, {0: [1, 2]})[0] == 100 - 80


def test_recorder_parents_follow_the_calling_thread():
    rec = SpanRecorder()
    outer = rec.open("outer")
    rec.call("inner", lambda: None)
    rec.close(outer)
    assert [s.parent for s in rec.spans] == [None, 0]
    assert all(s.end_ns >= s.start_ns for s in rec.spans)


# ----------------------------------------------------------------- the spec
def test_benchmark_json_meets_the_contract():
    raw = (ROOT / "BENCHMARK.json").read_bytes()
    assert len(raw) <= 64 * 1024
    spec = json.loads(raw)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= len(spec["paths"]) <= 16
    for p in spec["paths"]:
        assert PATH.match(p) and not p.startswith("/") and ".." not in p.split("/")
    assert len(spec["command"]) <= 32 and all(len(c) <= 200 for c in spec["command"])
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        assert w["name"] in run.WORKLOADS
        names.append(w["name"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
        names.append(m["name"])
    for n in names:
        assert NAME.match(n)
    assert len(names) == len(set(names))
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_per_layer_metric_belongs_to_a_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    families = {f for fams in run.LAYERS.values() for f in fams}
    for m in spec["per_layer"]:
        assert m["name"].startswith(tuple(families)), m["name"]


def test_run_fails_without_the_program_source():
    bare = OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / BENCH.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, f"{BENCH.name}/run.py", "--workload", "train-enum",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_stop_children_ends_every_process_the_run_started():
    # In a separate interpreter, so this process's resource tracker is
    # left alone: start the tracker the multiprocessing pools use and a
    # child that would outlive the run, then stop both.
    script = (
        "import subprocess, sys\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "from multiprocessing import resource_tracker\n"
        "from common import live_children, stop_children\n"
        "resource_tracker.ensure_running()\n"
        "subprocess.Popen(['sleep', '60'])\n"
        "started = live_children()\n"
        "stop_children()\n"
        "print(len(started), len(live_children()))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["2", "0"]


# --------------------------------------------------------- small workloads
def _small(name: str, **kw) -> train.TrainConfig:
    base = dict(n=400, mus=train._geometric(1e-3, 2.0, 3), n_queries=40, knn=10,
                precision_floor=0.05)
    if name == "train-wide":
        base.update(dim=32, n_bits=24, ingest_rows=8)
    base.update(kw)
    return dataclasses.replace(train.WORKLOADS[name], **base)


@pytest.mark.parametrize("name", ["train-enum", "train-wide"])
def test_small_training_runs_pass_their_gates(name):
    cfg = _small(name)
    timed = train.run_timed(cfg, seed=3, seconds=0.0)
    assert timed["problems"] == []
    assert set(timed["metrics"]) == set(units(load_spec(), "end_to_end"))
    assert all(v > 0 for v in timed["metrics"].values())
    traced = train.run_traced(cfg, seed=3, seconds=0.0)
    assert traced["problems"] == []
    m = traced["metrics"]
    assert m["autoencoder.z_update.calls"] == train.MACHINES * len(cfg.mus)
    assert m["backends.hops_per_iter"] > 0 and m["backends.bytes_per_iter"] > 0
    assert 0 < m["autoencoder.z_update.self_s"]
    if cfg.ingest_rows:
        assert m["dataplane.rows_ingested"] == cfg.ingest_rows * train.MACHINES * len(cfg.mus)


def _final_params(backend_name: str, cfg: train.TrainConfig, seed: int):
    from repro.distributed.backends import get_backend

    inputs = train.make_inputs(cfg, seed)
    backend = get_backend(backend_name)(epochs=1, seed=seed,
                                        shuffle_within=cfg.shuffle_within)
    try:
        fit = train.run_fit(backend, cfg, inputs)
    finally:
        backend.close()
    enc, dec = fit.model.encoder, fit.model.decoder
    return fit.trajectory, [enc.A, enc.a, dec.B, dec.c]


@pytest.mark.parametrize("name", ["train-enum", "train-wide"])
def test_wall_clock_engines_match_sync_at_small_size(name):
    # Machine RNG streams are keyed per engine, so cross-engine equality
    # holds with within-shard shuffling off.
    cfg = _small(name, shuffle_within=False)
    ref_traj, ref = _final_params("sync", cfg, seed=5)
    for engine in ("multiprocess", "tcp"):
        traj, params = _final_params(engine, cfg, seed=5)
        assert traj == ref_traj, engine
        for a, b in zip(params, ref):
            np.testing.assert_array_equal(a, b)


def test_multiprocess_and_tcp_match_with_within_shard_shuffling():
    cfg = _small("train-wide")
    assert cfg.shuffle_within
    traj_mp, mp = _final_params("multiprocess", cfg, seed=7)
    traj_tcp, tcp = _final_params("tcp", cfg, seed=7)
    assert traj_mp == traj_tcp
    for a, b in zip(mp, tcp):
        np.testing.assert_array_equal(a, b)


@pytest.fixture
def small_serving(monkeypatch):
    for attr, value in dict(
        N_BASE=20_000, N_POOL=512, N_ADDS=512, N_TRAIN=1000, BURST_QUERIES=256,
        LADDER=(200, 400), STEP_WEIGHTS=(1.0, 1.0), REF_RATE=200,
        PRECISION_BASE=5000, PRECISION_QUERIES=100, ADD_INTERVAL_S=0.05,
    ).items():
        monkeypatch.setattr(serve, attr, value)


def test_small_serving_runs_pass_their_gates(small_serving):
    timed = serve.run_timed(seed=2, seconds=2.0)
    assert timed["problems"] == []
    assert timed["failed"] == 0
    assert all(v > 0 for v in timed["metrics"].values())
    traced = serve.run_traced(seed=2, seconds=2.0)
    assert traced["problems"] == []
    m = traced["metrics"]
    assert m["serve.batch_rows.mean"] >= 1
    assert m["serve.search.self_ms.p50"] > 0


def test_oracle_rejects_a_wrong_answer(small_serving):
    inputs = serve.make_inputs(4)
    model = serve.make_model(inputs)
    service = serve.start_service(model, inputs.base)
    try:
        _, answers = serve.burst(service, inputs)
    finally:
        service.close()
    oracle = serve.Oracle(model, inputs)
    assert oracle.check(answers) == 0
    answers[0].ids = answers[0].ids + 1
    assert oracle.check(answers) == 1


def test_code_gate_rejects_collapsed_codes(small_serving):
    inputs = serve.make_inputs(4)
    model = serve.make_model(inputs)
    assert serve.Oracle(model, inputs).code_problems() == []
    model.encoder.A[:] = 0  # every row now encodes to one code
    assert len(serve.Oracle(model, inputs).code_problems()) == 2
