"""tamelab benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0

Runs one workload of ``workloads.py`` against the package source in
``src/`` of this checkout and prints its metrics, one per line with its
unit, then provenance, then, as the last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the ``end_to_end`` list of BENCHMARK.json;
with ``--trace 1`` they are its ``per_layer`` list, taken from spans
recorded around calls into each tamelab module (``tracer.py``).

``--seconds`` sets the run length through the number of passes: each
workload runs ``seconds // pass_s`` whole passes (at least its
``min_passes``), where ``pass_s`` is its nominal pass time on the
reference machine.  Both sides of a comparison therefore time the same
operations, and the tail percentile is taken over the same number of
samples.

Every pass repeats the same operations on the same inputs.  The latency
metrics first take each operation's median over the passes, which keeps a
burst of machine noise in one pass out of them.  ``op_p50_ms`` (printed,
not bounded) is the median of those, ``op_tail_ms`` the highest
percentile of them with ten operations beyond it (the maximum when there
are ten or fewer).

Set-up (a fresh interpreter importing ``tamelab.cli`` and building the
parser, plus writing the workload's fixtures) is repeated several times
and reported as its median.  Every time is reported in reference seconds:
``speed.py`` times a fixed task between operations and scales each
measurement by the machine's speed around it; the unscaled figures are
printed and kept in the result file.  Scratch files go to
``.bench_work/`` in the checkout; result and span files stay there after
the run.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads: every timing is single-threaded.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from speed import SpeedProbe  # noqa: E402
from tracer import OP_PREFIX, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("flat-prefix", "sl2-prefix", "sl2-batch", "haar-mc")
SUBCOMMANDS = ("gen", "check", "transform", "mc", "report")
SETUP_REPEATS = 5
TAIL_BEYOND = 10
SETUP_PROBE = "import tamelab.cli as c; c.build_parser()"


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it.

    Returns (value, percentile); with too few samples, the maximum.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "--work-tree", str(ROOT), *args],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout


def provenance(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_commit": commit.strip() if commit else "unknown (not a git checkout)",
        "git_dirty": None if status is None else bool(status.strip()),
    }


def _setup_once(workload, ctx, probe: SpeedProbe) -> tuple[float, float]:
    """One set-up as a CLI user pays it, plus the workload's fixtures.
    Returns (midpoint, seconds)."""
    probe.sample()
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_PROBE], env=_child_env(), cwd=ROOT, check=True)
    workload.prepare(ctx)
    raw = perf_counter() - t0
    return t0 + raw / 2, raw


def _run_op(op, tracer):
    """Times one operation, in an operation span when traced, then checks
    it untimed.  Returns (result, start, seconds, outcome or None, problems)."""
    span = tracer.open(OP_PREFIX + op.kind) if tracer else None
    t0 = perf_counter()
    try:
        result, error = op.call(), None
    except Exception as exc:  # a raising operation counts as failed
        result, error = None, f"raised {type(exc).__name__}: {exc}"
    dt = perf_counter() - t0
    if span is not None:
        tracer.close(span)
    if error:
        return result, t0, dt, None, [error]
    try:
        outcome = op.check(result)
    except Exception as exc:  # a check that cannot read the result fails it
        return result, t0, dt, None, [f"check raised {type(exc).__name__}: {exc}"]
    return result, t0, dt, outcome, list(outcome.problems)


def measure(name: str, seed: int, seconds: float, trace: bool, *, small: bool = False,
            setup_repeats: int = SETUP_REPEATS) -> dict:
    """Runs one workload and returns its metrics and run details."""
    from workloads import Context, WORKLOADS  # imports tamelab, which needs SRC on sys.path

    workload = WORKLOADS[name]
    workdir = WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ctx = Context(seed, workdir, small)
    probe = SpeedProbe()
    setup = [_setup_once(workload, ctx, probe) for _ in range(setup_repeats)]
    ops = workload.ops(ctx)

    passes = max(workload.min_passes, int(seconds // workload.pass_s))
    tracer = Tracer() if trace else None
    reference: list[bytes | None] = [None] * len(ops)
    timed = []  # (pass, op index, traced, midpoint, seconds) of operations that passed
    out_bytes: list[int] = []
    attempted = failed = 0
    problems: list[str] = []
    for p in range(passes):
        traced = tracer is not None and p % 2 == 1
        if traced:
            tracer.install()
        written = 0
        results = []
        try:
            for i, op in enumerate(ops):
                probe.sample_if_due()
                if traced:
                    tracer.op_id = p * len(ops) + i
                result, t0, dt, outcome, issues = _run_op(op, tracer if traced else None)
                digest = outcome.digest if outcome else b""
                if p == 0:
                    reference[i] = digest
                elif digest != reference[i]:
                    issues.append("output bytes differ from the first pass")
                results.append(result)
                written += outcome.out_bytes if outcome else 0
                attempted += 1
                if issues:
                    failed += 1
                    problems.extend(f"pass {p} [{op.label}]: {msg}" for msg in issues)
                else:
                    timed.append((p, i, traced, t0 + dt / 2, dt))
        finally:
            if traced:
                tracer.uninstall()
        if workload.summary is not None:
            written += workload.summary(ctx, results)
        out_bytes.append(written)
    probe.sample()

    setup_s = [raw * probe.scale(mid) for mid, raw in setup]
    scaled = [(p, i, traced, dt * probe.scale(mid), dt) for p, i, traced, mid, dt in timed]
    runs: list[list[float]] = [[] for _ in ops]
    raw_runs: list[list[float]] = [[] for _ in ops]
    pass_time: dict[bool, dict[int, float]] = {False: {}, True: {}}
    kind_time: dict[str, dict[int, float]] = {kind: {} for kind in SUBCOMMANDS}
    items = 0
    for p, i, traced, ref_s, raw in scaled:
        pass_time[traced][p] = pass_time[traced].get(p, 0.0) + ref_s
        if not traced:
            runs[i].append(ref_s)
            raw_runs[i].append(raw)
            items += ops[i].items
            if ops[i].kind in kind_time:
                kind_time[ops[i].kind][p] = kind_time[ops[i].kind].get(p, 0.0) + ref_s
    total = sum(map(sum, runs))
    wall = sum(map(sum, raw_runs))
    p50, tail_ms, tail_pct = _latency(runs)
    values = {
        "setup_s": statistics.median(setup_s),
        "items_per_s": items / total if total > 0 else 0.0,
        "op_p50_ms": p50,
        "op_tail_ms": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "out_bytes": out_bytes[0],
        "error_rate": failed / attempted,
    }
    for kind, per_pass in kind_time.items():
        # a pass where the command failed counts as spending nothing in it
        values[f"{kind}_s"] = statistics.median(
            [per_pass.get(p, 0.0) for p in pass_time[False]]) if per_pass else 0.0
    raw_p50, raw_tail, _ = _latency(raw_runs)
    details = {
        "workload": name,
        "why": workload.why,
        "passes": passes,
        "traced_passes": len(pass_time[True]),
        "ops_per_pass": len(ops),
        "tail_samples": sum(1 for r in runs if r),
        "tail_percentile": tail_pct,
        "op_runs_s": {op.label: r for op, r in zip(ops, runs)},
        "op_raw_runs_s": {op.label: r for op, r in zip(ops, raw_runs)},
        "setup_samples_s": setup_s,
        "pass_seconds": {str(k): v for k, v in pass_time.items()},
        "out_bytes_per_pass": out_bytes,
        "wall_clock": {
            "setup_s": statistics.median(raw for _, raw in setup),
            "items_per_s": items / wall if wall > 0 else 0.0,
            "op_p50_ms": raw_p50,
            "op_tail_ms": raw_tail,
            "speed_scale": total / wall if wall > 0 else 0.0,
        },
    }
    if tracer is not None:
        scale = statistics.median(row[3] / row[4] for row in scaled if row[2])
        values.update(_layer_values(tracer, pass_time, scale))
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(traces / f"{name}-seed{seed}.jsonl")
    shutil.rmtree(workdir, ignore_errors=True)
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "values": values, "details": details}


def _latency(runs: list[list[float]]) -> tuple[float, float, float]:
    """(median ms, tail ms, tail percentile) over per-operation medians."""
    per_op = [statistics.median(r) for r in runs if r]
    if not per_op:
        return 0.0, 0.0, 0.0
    value, pct = tail(per_op)
    return 1e3 * statistics.median(per_op), 1e3 * value, pct


def _layer_values(tracer, pass_time: dict, scale: float) -> dict:
    """Self reference-seconds and counts per traced pass, per span and per layer."""
    summary = tracer.summary()
    runs = len(pass_time[True])
    values = {f"{span}.self_s": s * scale / runs for span, s in summary["self_s"].items()}
    values.update({f"{layer}.self_s": s * scale / runs
                   for layer, s in summary["layer_self_s"].items()})
    layer_calls: dict[str, int] = {}
    for key, count in summary["counts"].items():
        values[key] = count / runs
        if key.endswith(".calls"):
            layer = key.split(".")[0]
            layer_calls[layer] = layer_calls.get(layer, 0) + count
    values.update({f"{layer}.calls": c / runs for layer, c in layer_calls.items()})
    values["trace.overhead_frac"] = (
        statistics.median(pass_time[True].values())
        / statistics.median(pass_time[False].values()) - 1.0
    )
    values["trace.coverage_frac"] = summary["coverage"]
    return values


def load_spec() -> dict:
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def report(run: dict, metrics: list[dict], prov: dict) -> dict:
    """Prints the human-readable lines and returns the result object."""
    values, details = run["values"], run["details"]
    print(f"workload {details['workload']}: {details['passes']} passes "
          f"({details['traced_passes']} traced) of {details['ops_per_pass']} operations")
    notes = {
        "setup_s": f"median of {len(details['setup_samples_s'])} set-ups",
        "op_p50_ms": f"median of {details['tail_samples']} per-operation medians",
        "op_tail_ms": (f"p{details['tail_percentile']:.2f}" if details["tail_samples"] > TAIL_BEYOND
                       else "maximum") + f" of {details['tail_samples']} per-operation medians",
        "error_rate": f"{run['failed']} failed of {run['attempted']} attempted",
    }
    shown = {m["name"]: m["unit"] for m in metrics}
    # printed, but too noisy or too often zero to bound (bench/NOTES.md)
    shown["op_p50_ms"] = "ms"
    shown.update({f"{kind}_s": "s/pass" for kind in SUBCOMMANDS if values[f"{kind}_s"] > 0})
    shown["error_rate"] = "ratio"
    for key, unit in shown.items():
        print(f"  {key:<44} {values.get(key, 0.0)!r:>24} {unit:<8} {notes.get(key, '')}")
    wall = details["wall_clock"]
    print("  times are reference seconds (speed.py); unscaled: "
          + ", ".join(f"{key} {value!r}" for key, value in wall.items()))
    for msg in run["problems"][:20]:
        print(f"  FAILED {msg}", file=sys.stderr)
    print("provenance " + json.dumps(prov, sort_keys=True))
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in metrics},
    }


def _run_all(args) -> int:
    """Each workload in its own fresh process; a combined result last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "tamelab" / "cli.py").is_file():
        print(f"error: no tamelab source under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(SRC))
    import tamelab

    if Path(tamelab.__file__).resolve().parent != SRC / "tamelab":
        print(f"error: imported tamelab from {tamelab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    prov = provenance(args.seed)
    result = report(run, metrics, prov)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(results / name, "w", encoding="utf-8") as fh:
        json.dump({"result": result, "provenance": prov, "values": run["values"],
                   "details": run["details"], "problems": run["problems"]}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
