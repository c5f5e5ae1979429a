"""Tests of the benchmark itself, at reduced sizes.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = run.load_spec()
# counts of rare events that read zero on a healthy run
MAY_STAY_ZERO = {"sl2_special.overshear_apply.rejected", "generic_projection.omega_check.failures"}


def _small(name: str, trace: bool) -> dict:
    return run.measure(name, seed=3, seconds=0, trace=trace, small=True, setup_repeats=1)


@pytest.fixture(scope="module")
def traced_runs() -> dict:
    return {name: _small(name, trace=True) for name in run.WORKLOAD_NAMES}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_end_to_end_metric_is_emitted(name, capsys):
    result = _small(name, trace=False)
    assert result["failed"] == 0, result["problems"]
    out = run.report(result, SPEC["end_to_end"], run.provenance(3))
    assert out["correct"] and out["attempted"] == result["attempted"] > 0
    for metric in SPEC["end_to_end"]:
        value = out["metrics"][metric["name"]]["value"]
        assert math.isfinite(value) and value > 0, metric["name"]
    printed = capsys.readouterr().out
    for key in ("setup_s", "items_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb",
                "out_bytes", "error_rate"):
        assert key in printed


def test_every_per_layer_metric_is_measured(traced_runs):
    for name, result in traced_runs.items():
        assert result["failed"] == 0, (name, result["problems"])
        details = result["details"]
        assert details["traced_passes"] == details["passes"] // 2 >= 1
    names = [m["name"] for m in SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for metric in names:
        if metric in MAY_STAY_ZERO:
            continue
        seen = [r["values"].get(metric, 0.0) for r in traced_runs.values()]
        assert any(v > 0 for v in seen), f"{metric} is zero on every workload"
    for result in traced_runs.values():
        assert 0.0 < result["values"]["trace.coverage_frac"] <= 1.0


def test_tracing_leaves_the_package_unpatched(traced_runs):
    from tamelab import cli, core, sl2_special

    assert cli.main.__module__ == "tamelab.cli" and not hasattr(cli.main, "__wrapped__")
    assert not hasattr(core.sl_matrix, "__wrapped__")
    assert not hasattr(sl2_special.sl_matrix, "__wrapped__")
    assert not hasattr(core.DiscreteSequence.__dict__["from_json"].__func__, "__wrapped__")
    assert cli.json.__name__ == "json"


def test_self_time_excludes_children():
    t = tracer.Tracer()
    outer = t.open("a.outer")
    inner = t.open("b.inner")
    t.close(inner)
    t.close(outer)
    t.start[0], t.end[0], t.start[1], t.end[1] = 0.0, 3.0, 1.0, 2.5
    summary = t.summary()
    assert summary["self_s"] == {"a.outer": 1.5, "b.inner": 1.5}
    assert summary["layer_self_s"] == {"a": 1.5, "b": 1.5}


def test_tail_has_ten_samples_beyond_it():
    values = list(range(100))
    assert run.tail(values) == (89, 90.0)
    assert run.tail([5.0, 1.0]) == (5.0, 100.0)


def _corrupting(op, passes, mutate, path):
    seen = {"n": 0}

    def call():
        result = op.call()
        if seen["n"] in passes:
            path.write_bytes(mutate(path.read_bytes()))
        seen["n"] += 1
        return result

    return dataclasses.replace(op, call=call)


def _with_corruption(monkeypatch, label, out_name, passes, mutate):
    """Runs flat-prefix with `mutate` applied to one operation's output."""
    base = workloads.WORKLOADS["flat-prefix"]

    def ops(ctx):
        return [
            _corrupting(op, passes, mutate, ctx.path(out_name)) if op.label.startswith(label) else op
            for op in base.ops(ctx)
        ]

    monkeypatch.setitem(workloads.WORKLOADS, "flat-prefix", dataclasses.replace(base, ops=ops))
    return _small("flat-prefix", trace=False)


def _flip_partial_sum_digit(data: bytes) -> bytes:
    at = data.index(b'"partial_sum": ') + len(b'"partial_sum": ') + 3
    digit = data[at:at + 1]
    return data[:at] + (b"7" if digit != b"7" else b"3") + data[at + 1:]


def test_corrupted_result_counts_as_failed(monkeypatch):
    result = _with_corruption(monkeypatch, "check rr-series", "rr.json", {1},
                              _flip_partial_sum_digit)
    assert result["failed"] == 1 and result["attempted"] == 27
    assert "partial sum" in result["problems"][0]
    assert result["values"]["error_rate"] == pytest.approx(1 / 27)


def test_changed_bytes_between_passes_count_as_failed(monkeypatch):
    # a trailing space keeps the document valid; only the byte check sees it
    result = _with_corruption(monkeypatch, "gen cn-powers", "powers.json", {1},
                              lambda data: data + b" ")
    assert result["failed"] == 1, result["problems"]
    assert "output bytes differ from the first pass" in result["problems"][0]


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload", "haar-mc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
