"""The four benchmark workloads: seeded inputs, operations, checks.

Each workload is one client in one process running a closed loop: an
operation starts when the previous one has returned.  Three workloads
drive ``tamelab.cli.main`` the way a user runs the ``tamelab`` command
(JSON written to disk, parsed back by the next command); ``sl2-batch``
drives the library API instead.  The workload seed is the only source
of randomness: it picks the inputs and feeds every ``--seed`` flag, and
the program only sees what it generates.

Every operation is checked after it returns (outside its timing): its
exit code and verdict, the numerical invariants listed with each check
below, and, by the runner, that its output bytes repeat exactly from
pass to pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from tamelab import cli, core, pi_tame, sl2_special
from tamelab.errors import LambdaVanishes

DRIFT_TOL = 1e-10
REL_SUM_TOL = 1e-12
PUSH_HEIGHT = 25.0
HEIGHT_SLACK = 1e-9 * (1.0 + PUSH_HEIGHT)  # bundle_push's own acceptance slack
MASK63 = (1 << 63) - 1

# Non-integer exponents, so coordinates serialize at a full 17 digits.
ALPHA_GRID = ("0.75", "0.8", "0.85", "0.9", "0.95", "1.05", "1.1", "1.15",
              "1.2", "1.25", "1.3", "1.35", "1.4", "1.45", "1.5")

# `transform sl2-pipeline` on `sl2-gauss --height 1` passes its checks
# for only 36 of the --seed values 0..99: for the others it stops at
# fiber-rescale, or reports a consistent postcondition while its output
# leaves SL(2) (determinant drift above 1e-10, up to 1e25).  That shape is
# kept out of the performance workload (see NOTES.md); the pipeline seed
# is taken from the seeds that pass.
PIPELINE_SEEDS = (2, 3, 4, 5, 6, 8, 10, 11, 14, 17, 20, 25, 27, 28, 30, 35, 37, 39,
                  43, 47, 48, 51, 52, 53, 54, 55, 57, 60, 65, 68, 70, 72, 75, 83, 95, 97)


@dataclass
class Outcome:
    problems: list[str]
    digest: bytes
    out_bytes: int


@dataclass
class Op:
    """One operation: `call` is timed, `check` runs after it, untimed."""

    kind: str
    label: str
    items: int
    call: Callable[[], Any]
    check: Callable[[Any], Outcome]


@dataclass
class Context:
    seed: int
    workdir: Path
    small: bool = False
    state: dict = field(default_factory=dict)

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def path(self, name: str) -> Path:
        return self.workdir / name


# ---------------------------------------------------------------- checks


def _det_drift(points) -> float:
    """Largest |det - 1| over matrix points stored as [re, im] pairs."""
    a = np.asarray(points, dtype=np.float64)
    if a.ndim != 4 or a.shape[1:] != (2, 2, 2):
        raise ValueError(f"expected 2x2 complex matrices, got shape {a.shape}")
    z = a[..., 0] + 1j * a[..., 1]
    return float(np.max(np.abs(np.linalg.det(z) - 1.0)))


def _max_col_norms(points) -> np.ndarray:
    a = np.asarray(points, dtype=np.float64)
    z = a[..., 0] + 1j * a[..., 1]
    return np.max(np.linalg.norm(z, axis=1), axis=1)


def _state(doc: dict) -> str | None:
    block = doc.get("verdict") or doc.get("postcondition")
    return block.get("state") if isinstance(block, dict) else None


def expect(doc: dict, *, state: str | None = None, points: int | None = None,
           drift: bool = False) -> list[str]:
    """Common checks on a JSON document written by the CLI."""
    problems = []
    if state is not None and _state(doc) != state:
        problems.append(f"verdict {_state(doc)!r}, expected {state!r}")
    seq = doc.get("sequence")
    if points is not None and (seq is None or len(seq["points"]) != points):
        got = None if seq is None else len(seq["points"])
        problems.append(f"{got} points, expected {points}")
    if drift:
        worst = _det_drift(seq["points"])
        if not worst <= DRIFT_TOL:
            problems.append(f"determinant drift {worst:.3g} exceeds {DRIFT_TOL:g}")
    return problems


def _digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=16).digest()


def cli_op(ctx: Context, kind: str, args: list[str], out: str, *, rc: int,
           items: int, check: Callable[[bytes], list[str]]) -> Op:
    """An operation running `tamelab <kind> <args> --out <out>` in-process.

    `check` receives the bytes written to `out` and returns the problems
    it finds; the exit code must equal `rc`.
    """
    out_path = ctx.path(out)
    argv = [kind, *args, "--out", str(out_path)]
    sink = io.StringIO()
    verified: set[bytes] = set()  # outputs already checked; identical bytes pass again

    def call() -> int:
        sink.seek(0)
        sink.truncate()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(argv)

    def verify(code: int) -> Outcome:
        if code != rc:
            tail = sink.getvalue().strip().splitlines()[-1:] or [""]
            return Outcome([f"exit code {code}, expected {rc}: {tail[0]}"], b"", 0)
        data = out_path.read_bytes()
        digest = _digest(data)
        if digest in verified:
            return Outcome([], digest, len(data))
        try:
            problems = check(data)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if not problems:
            verified.add(digest)
        return Outcome(problems, digest, len(data))

    return Op(kind, " ".join([kind, *args]), items, call, verify)


def doc_check(fn: Callable[[dict], list[str]]) -> Callable[[bytes], list[str]]:
    return lambda data: fn(json.loads(data))


def same_doc_as(ctx: Context, name: str) -> Callable[[bytes], list[str]]:
    """`report --out` re-emits the document it read, value for value."""
    src = ctx.path(name)

    def check(data: bytes) -> list[str]:
        original = src.read_bytes()
        # equal values, not always equal bytes: a -0.0 coordinate comes back as 0
        same = data == original or json.loads(data) == json.loads(original)
        return [] if same else [f"re-emitted document differs from {name}"]

    return check


# ---------------------------------------------------------------- flat-prefix


def _flat_sizes(ctx: Context) -> dict:
    return {"k": 2000, "acc": 100, "bnd": 20} if ctx.small else {"k": 100_000, "acc": 1000, "bnd": 50}


def flat_prepare(ctx: Context) -> None:
    ctx.state["alpha"] = ALPHA_GRID[int(ctx.rng(1).integers(len(ALPHA_GRID)))]


def _check_powers(doc: dict, k: int, alpha: float) -> list[str]:
    problems = expect(doc, points=k)
    if problems:
        return problems
    pts = np.asarray(doc["sequence"]["points"], dtype=np.float64)
    want = np.arange(1, k + 1, dtype=np.float64) ** alpha
    err = np.abs(pts[:, 0, 0] - want) / want
    if not (np.max(err) <= 1e-14 and not np.any(pts[:, 0, 1]) and not np.any(pts[:, 1:])):
        problems.append("cn-powers coordinates differ from k^alpha")
    return problems


def _check_rr(doc: dict, ref: float) -> list[str]:
    problems = expect(doc, state=core.CERTIFIED)
    got = doc["extra"]["partial_sum"]
    if not abs(got - ref) <= REL_SUM_TOL * abs(ref):
        problems.append(f"partial sum {got!r} differs from fsum {ref!r}")
    return problems


def flat_ops(ctx: Context) -> list[Op]:
    size = _flat_sizes(ctx)
    k, acc, bnd = size["k"], size["acc"], size["bnd"]
    alpha = ctx.state["alpha"]
    # independent reference for the rr-series partial sum of k^(-3A)
    rr = math.fsum(float(j) ** (-3.0 * float(alpha)) for j in range(1, k + 1))
    return [
        cli_op(ctx, "gen", ["cn-powers", "--n", "2", "--k", str(k), "--alpha", alpha],
               "powers.json", rc=0, items=k,
               check=doc_check(lambda d: _check_powers(d, k, float(alpha)))),
        cli_op(ctx, "report", [str(ctx.path("powers.json"))], "powers-report.json",
               rc=0, items=2 * k, check=same_doc_as(ctx, "powers.json")),
        cli_op(ctx, "check", ["rr-series", str(ctx.path("powers.json"))], "rr.json",
               rc=0, items=k, check=doc_check(lambda d: _check_rr(d, rr))),
        cli_op(ctx, "gen", ["punctured-accumulate", "--k", str(acc)], "acc.json",
               rc=0, items=acc, check=doc_check(lambda d: expect(d, points=acc))),
        cli_op(ctx, "check", ["punctured", str(ctx.path("acc.json"))], "acc-check.json",
               rc=2, items=acc, check=doc_check(lambda d: expect(d, state=core.VIOLATED))),
        cli_op(ctx, "gen", ["discplane-base", "--mode", "interior", "--k", str(acc)],
               "interior.json", rc=0, items=acc,
               check=doc_check(lambda d: expect(d, points=acc))),
        cli_op(ctx, "check", ["dp-classify", str(ctx.path("interior.json"))],
               "interior-check.json", rc=2, items=acc,
               check=doc_check(lambda d: expect(d, state=core.VIOLATED))),
        cli_op(ctx, "gen", ["discplane-base", "--mode", "boundary", "--k", str(bnd)],
               "boundary.json", rc=0, items=bnd,
               check=doc_check(lambda d: expect(d, points=bnd))),
        cli_op(ctx, "check", ["dp-classify", str(ctx.path("boundary.json"))],
               "boundary-check.json", rc=0, items=bnd,
               check=doc_check(lambda d: expect(d, state=core.CERTIFIED))),
    ]


# ---------------------------------------------------------------- sl2-prefix


def random_sl2(rng: np.random.Generator) -> np.ndarray:
    """A determinant-one matrix with normal entries, kept off the a = 0 wall."""
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    a = z[0] + 0.2 * z[0] / abs(z[0])
    return np.array([[a, z[2]], [z[1], (1.0 + z[2] * z[1]) / a]])


GAUSS_HEIGHT1_POINTS = 296


def _sl2_sizes(ctx: Context) -> dict:
    if ctx.small:
        return {"height": 1, "big": GAUSS_HEIGHT1_POINTS, "random": 60}
    return {"height": 2, "big": 2472, "random": 400}


def sl2_prepare(ctx: Context) -> None:
    count = _sl2_sizes(ctx)["random"]
    rng = ctx.rng(2)
    points = [random_sl2(rng) for _ in range(count)]
    doc = core.DiscreteSequence(core.sln(2), tuple(points)).to_json()
    ctx.path("random.json").write_text(json.dumps(doc), encoding="utf-8")


def _check_parts(doc: dict, total: int) -> list[str]:
    problems = expect(doc, state=core.CONSISTENT)
    sizes = [len(part["points"]) for part in doc["parts"]]
    if sum(sizes) != total:
        problems.append(f"parts hold {sum(sizes)} points, expected {total}")
    for part in doc["parts"]:
        worst = _det_drift(part["points"])
        if not worst <= DRIFT_TOL:
            problems.append(f"determinant drift {worst:.3g} in a part")
    return problems


def _check_overshear(doc: dict, m: int) -> list[str]:
    problems = expect(doc, state=core.CONSISTENT, points=m, drift=True)
    if not doc["det_drift"] <= DRIFT_TOL:
        problems.append(f"reported drift {doc['det_drift']!r}")
    return problems


def _check_push(doc: dict, m: int) -> list[str]:
    problems = expect(doc, state=core.CONSISTENT, points=m, drift=True)
    floor = PUSH_HEIGHT - HEIGHT_SLACK
    if len(doc["achieved"]) != m or min(doc["achieved"]) < floor:
        problems.append("an achieved height is below its target")
    if float(np.min(_max_col_norms(doc["sequence"]["points"]))) < floor:
        problems.append("a pushed point is below its target height")
    return problems


def sl2_ops(ctx: Context) -> list[Op]:
    size = _sl2_sizes(ctx)
    big, small, m = size["big"], GAUSS_HEIGHT1_POINTS, size["random"]
    seed = str(ctx.seed & MASK63)
    pipe_seed = str(PIPELINE_SEEDS[ctx.seed % len(PIPELINE_SEEDS)])
    g2, g1 = str(ctx.path("gauss2.json")), str(ctx.path("gauss1.json"))
    consistent = core.CONSISTENT
    return [
        cli_op(ctx, "gen", ["sl2-gauss", "--field", "qi", "--height", str(size["height"])],
               "gauss2.json", rc=0, items=big,
               check=doc_check(lambda d: expect(d, points=big))),
        cli_op(ctx, "check", ["pi-tame", g2, "--max-fiber", "64"], "gauss2-pi.json",
               rc=0, items=big, check=doc_check(lambda d: expect(d, state=consistent))),
        cli_op(ctx, "transform", ["overshears", g2, "--lambda", "1+0.1*a"],
               "gauss2-over.json", rc=0, items=2 * big,
               check=doc_check(lambda d: _check_overshear(d, big))),
        cli_op(ctx, "transform", ["union-decompose", g2], "gauss2-union.json",
               rc=0, items=2 * big, check=doc_check(lambda d: _check_parts(d, big))),
        cli_op(ctx, "report", [str(ctx.path("gauss2-over.json"))], "gauss2-report.json",
               rc=0, items=2 * big, check=same_doc_as(ctx, "gauss2-over.json")),
        cli_op(ctx, "gen", ["sl2-gauss", "--field", "qi", "--height", "1"],
               "gauss1.json", rc=0, items=small,
               check=doc_check(lambda d: expect(d, points=small))),
        cli_op(ctx, "transform", ["sl2-pipeline", g1, "--max-fiber", "16", "--seed", pipe_seed],
               "gauss1-pipeline.json", rc=0, items=2 * small,
               check=doc_check(lambda d: expect(d, state=consistent, points=small, drift=True))),
        cli_op(ctx, "transform", ["center-separate", g1, "--seed", seed],
               "gauss1-center.json", rc=0, items=2 * small,
               check=doc_check(lambda d: expect(d, state=consistent, points=small, drift=True))),
        cli_op(ctx, "transform", ["bundle-push", str(ctx.path("random.json")),
                                  "--height", "25", "--seed", seed],
               "random-push.json", rc=0, items=2 * m,
               check=doc_check(lambda d: _check_push(d, m))),
    ]


# ---------------------------------------------------------------- sl2-batch

JOB_POINTS = 10
SPEC_CANDIDATES = 8


def batch_prepare(ctx: Context) -> None:
    """Draws every job's points and its overshear candidates up front."""
    jobs = []
    for j in range(20 if ctx.small else 1000):
        rng = ctx.rng(1_000_000 + j)
        points = tuple(random_sl2(rng) for _ in range(JOB_POINTS))
        grids = tuple(
            tuple(tuple(row) for row in 0.05 * (rng.standard_normal((2, 2))
                                                + 1j * rng.standard_normal((2, 2))))
            for _ in range(SPEC_CANDIDATES)
        )
        jobs.append((points, grids, (ctx.seed * 1_000_003 + j) & MASK63))
    ctx.state["jobs"] = jobs


@dataclass
class JobResult:
    redraws: int
    moved: list
    images: list
    achieved: tuple


def _job_call(points, grids, push_seed) -> Callable[[], JobResult]:
    def call() -> JobResult:
        seq = core.DiscreteSequence(core.sln(2), points)
        for redraws, grid in enumerate(grids):
            spec = sl2_special.OvershearSpec(sl2_special.BivariatePoly(grid))
            try:
                moved = [sl2_special.overshear_apply(spec, p) for p in seq.points]
                break
            except LambdaVanishes:
                continue
        else:
            raise LambdaVanishes(f"all {len(grids)} overshear candidates vanish")
        moved_seq = core.DiscreteSequence(core.sln(2), tuple(moved))
        targets = core.HeightAssignment.constant(PUSH_HEIGHT, len(moved))
        phi, achieved = pi_tame.bundle_push(moved_seq, targets, seed=push_seed)
        images = [phi.apply(p) for p in moved_seq.points]
        return JobResult(redraws, moved, images, achieved)

    return call


def _job_check(result: JobResult) -> Outcome:
    problems = []
    for what, mats in (("overshear", result.moved), ("push", result.images)):
        drift = float(np.max(np.abs(np.linalg.det(np.stack(mats)) - 1.0)))
        if not drift <= DRIFT_TOL:
            problems.append(f"{what} determinant drift {drift:.3g}")
    floor = PUSH_HEIGHT - HEIGHT_SLACK
    heights = np.max(np.linalg.norm(np.stack(result.images), axis=1), axis=1)
    if min(result.achieved) < floor or float(np.min(heights)) < floor:
        problems.append("a pushed point is below its target height")
    data = np.stack(result.images).tobytes() + bytes([result.redraws])
    return Outcome(problems, _digest(data), 0)


def batch_ops(ctx: Context) -> list[Op]:
    return [
        Op("job", f"job {j}", JOB_POINTS, _job_call(points, grids, push_seed), _job_check)
        for j, (points, grids, push_seed) in enumerate(ctx.state["jobs"])
    ]


def batch_summary(ctx: Context, results: list) -> int:
    """Writes the pass's job results; returns the bytes written."""
    rows = [
        {"redraws": r.redraws, "achieved": [float(h) for h in r.achieved]}
        if isinstance(r, JobResult) else None
        for r in results
    ]
    text = json.dumps(rows, indent=0) + "\n"
    ctx.path("batch.json").write_text(text, encoding="utf-8")
    return len(text)


# ---------------------------------------------------------------- haar-mc


def _mc_sizes(ctx: Context) -> dict:
    if ctx.small:
        return {"th": 500, "measure": 2000, "g": 1000, "omega": 50, "k": 12}
    return {"th": 10_000, "measure": 200_000, "g": 50_000, "omega": 2000, "k": 40}


def _check_threshold(doc: dict, levels: int) -> list[str]:
    radii = doc["threshold"]["R"]
    if len(radii) != levels or not all(math.isfinite(r) and r > 0 for r in radii):
        return [f"threshold radii {radii!r}"]
    if any(b < a for a, b in zip(radii, radii[1:])):
        return [f"threshold radii decrease: {radii!r}"]
    return []


def _check_measure(data: bytes, rows: int) -> list[str]:
    lines = data.decode("utf-8").splitlines()
    header = lines[0].split(",")
    idx = header.index("estimate")
    values = [float(line.split(",")[idx]) for line in lines[1:]]
    if len(values) != rows or not all(0.0 <= v <= 1.0 for v in values):
        return [f"measure estimates {values!r}"]
    return []


def _check_fraction(value: float, what: str) -> list[str]:
    return [] if 0.0 <= value <= 1.0 else [f"{what} {value!r} outside [0, 1]"]


def mc_ops(ctx: Context) -> list[Op]:
    size = _mc_sizes(ctx)
    seed = str(ctx.seed & MASK63)
    levels, probes, scales = 5, 16, ("10", "100", "1000", "10000")
    wp = str(ctx.path("wellplaced.json"))
    # items are Haar SU(2) draws: threshold draws 8 default probes per level
    return [
        cli_op(ctx, "mc", ["threshold", "--levels", str(levels), "--samples", str(size["th"]),
                           "--seed", seed], "threshold.json", rc=0, items=levels * 8 * size["th"],
               check=doc_check(lambda d: _check_threshold(d, levels))),
        cli_op(ctx, "mc", ["measure", "--R", ",".join(scales), "--r", "4",
                           "--samples", str(size["measure"]), "--seed", seed],
               "measure.csv", rc=0, items=len(scales) * size["measure"],
               check=lambda data: _check_measure(data, len(scales))),
        cli_op(ctx, "mc", ["g", "--r", "4", "--probes", str(probes), "--samples", str(size["g"]),
                           "--seed", seed], "g.json", rc=0, items=probes * size["g"],
               check=doc_check(lambda d: _check_fraction(d["estimate"]["estimate"], "g estimate"))),
        cli_op(ctx, "gen", ["wellplaced2", "--k", str(size["k"])], "wellplaced.json", rc=0,
               items=0, check=doc_check(lambda d: expect(d, points=size["k"]))),
        cli_op(ctx, "mc", ["omega", "--seq", wp, "--samples", str(size["omega"]), "--seed", seed],
               "omega.json", rc=0, items=size["omega"],
               check=doc_check(lambda d: _check_fraction(d["omega"]["fraction"], "omega fraction"))),
    ]


# ---------------------------------------------------------------- registry


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pass_s: float  # nominal seconds per pass on the reference machine (NOTES.md)
    prepare: Callable[[Context], None]
    ops: Callable[[Context], list[Op]]
    summary: Callable[[Context, list], int] | None = None
    min_passes: int = 3


WORKLOADS = {
    w.name: w
    for w in (
        Workload("flat-prefix",
                 "vector ambients at 1e5 points: per-point build, serialization and parsing",
                 6.5, flat_prepare, flat_ops),
        Workload("sl2-prefix",
                 "matrix ambient, one long prefix per command: nested-matrix JSON, "
                 "properness scan, O(m^2) loops",
                 5.5, sl2_prepare, sl2_ops),
        Workload("sl2-batch",
                 "library API, 1000 tiny jobs per pass: per-call validation overhead",
                 # five runs per job keep the p99 of per-job medians steady
                 7.0, batch_prepare, batch_ops, batch_summary, min_passes=5),
        Workload("haar-mc",
                 "vectorized Haar sampling with tiny outputs: bypasses the per-point path",
                 5.5, lambda ctx: None, mc_ops),
    )
}
