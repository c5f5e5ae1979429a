"""Command-line front end.

Five subcommands: gen writes a family file, check runs a tameness
criterion, transform applies a constructive move and re-verifies its
postcondition, mc runs the seeded Monte-Carlo estimators, report renders
a previously written file.  Every command embeds the resolved RunConfig
in its output, numbers are printed with 17 significant digits so report
files are byte-stable, and exit codes separate mathematical outcome from
operational failure: 0 for Certified or Consistent, 2 for Violated, 1
for any error.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import re
import sys
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import chain
from typing import Callable

import numpy as np

from . import families
from .cn_tame import (
    MONOTONE_TAIL_BOUND,
    PARTIAL_ONLY,
    _log_weights,
    push_prefix_cn,
    rr_series_test,
)
from .core import (
    DET_TOL,
    DISTINCT_TOL,
    MAX_FIBER,
    MIN_GAP,
    TOO_DEEP,
    DiscreteSequence,
    GeneratorInfo,
    HeightAssignment,
    Verdict,
    _float_text,
    apply_all,
    canonical_json,
    cn,
    drift_verdict,
    heights_verdict,
    load_sequence,
)
from .disc_plane import dp_classify
from .errors import AmbientMismatch, BadParams, MalformedDocument, TamelabError
from .generic_projection import (
    ACTIONS,
    MC_CSV_COLUMNS,
    HaarSampler,
    g_estimate,
    mc_report_row,
    measure_estimates,
    omega_check,
    threshold_estimate,
)
from .pi_tame import bundle_push, first_column, pi_tame_check
from .punctured_cn import punctured_tame_check
from .sl2_special import BivariatePoly, OvershearAut, OvershearSpec, sl2_column_pipeline
from .sln_tame import (
    DiagonalGroup,
    RescaleTable,
    align_first_columns,
    alignment_verdict,
    center_separate,
    equivalence_automorphism,
    equivalence_verdict,
    lambda_rescale,
    one_param_check,
    torus_embed,
    union_decompose,
    union_split_verdict,
    well_placed_check,
)

_CONFIG_KEYS = ("seed", "det_tol", "min_gap", "distinct_tol", "samples")


@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters: flags win over the config file over defaults."""

    seed: int | None = None
    det_tol: float = DET_TOL
    min_gap: float = MIN_GAP
    distinct_tol: float = DISTINCT_TOL
    samples: int = 2000
    out: str | None = None
    emit_json: bool = False

    def __post_init__(self):
        for name in ("det_tol", "min_gap", "distinct_tol"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0:
                raise BadParams(f"{name} must be positive, got {value!r}")
        if self.samples < 1:
            raise BadParams(f"samples must be at least 1, got {self.samples}")
        if self.seed is not None and not 0 <= self.seed < 2**64:
            raise BadParams("seed must fit in 64 bits")

    def require_seed(self) -> int:
        if self.seed is None:
            raise BadParams("a seed is required for stochastic commands")
        return self.seed

    def to_json(self) -> dict:
        return {key: getattr(self, key) for key in (*_CONFIG_KEYS, "out")}


def _load_config_file(path: str) -> dict:
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise BadParams(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, _, text = line.partition("=")
            key, text = key.strip(), text.strip()
            if key not in _CONFIG_KEYS:
                raise BadParams(
                    f"{path}:{lineno}: unknown key {key!r}; known: "
                    + ", ".join(_CONFIG_KEYS)
                )
            values[key] = int(text) if key in ("seed", "samples") else float(text)
    return values


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if getattr(args, "config", None):
        values.update(_load_config_file(args.config))
    if getattr(args, "seed", None) is not None:
        values["seed"] = args.seed
    if getattr(args, "samples", None) is not None:
        values["samples"] = args.samples
    return RunConfig(
        **values,
        out=getattr(args, "out", None),
        emit_json=bool(getattr(args, "emit_json", False)),
    )


def _measure_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(MC_CSV_COLUMNS)
    for row in rows:
        writer.writerow(
            [
                _float_text(row[key]) if isinstance(row[key], float) else str(row[key])
                for key in MC_CSV_COLUMNS
            ]
        )
    return buf.getvalue()


def _finish(cfg: RunConfig, doc: dict, human: list[str], file_text: str | None = None) -> None:
    """Writes `file_text`, or else the document's canonical JSON, to --out,
    then prints the JSON under --json and the human lines otherwise. The
    document is serialized at most once."""
    text = None
    if cfg.emit_json or (cfg.out is not None and file_text is None):
        text = canonical_json(doc)
    if cfg.out is not None:
        with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(file_text if file_text is not None else text)
    if cfg.emit_json:
        sys.stdout.write(text)
    else:
        for line in human:
            print(line)


def _verdict_exit(v: Verdict) -> int:
    return 2 if v.is_violated else 0


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise BadParams(f"cannot parse {text!r} as a complex number") from exc


def _parse_shift_grid(text: str) -> BivariatePoly:
    rows = []
    for row_text in text.split(";"):
        rows.append(tuple(_parse_complex(entry) for entry in row_text.split(",")))
    return BivariatePoly(tuple(rows))


def _parse_lambda(text: str) -> BivariatePoly:
    """Shift polynomial from a factor written as 1, 1+a, or 1+<coeff>*a."""
    s = text.replace(" ", "")
    if s == "1":
        return BivariatePoly.zero()
    match = re.fullmatch(r"1([+-])(?:([0-9eEij.+-]+)\*)?a", s)
    if match is None:
        raise BadParams(
            f"cannot parse factor {text!r}; use 1, 1+a, 1+<coeff>*a, or --shift"
        )
    sign = -1.0 if match.group(1) == "-" else 1.0
    coeff = _parse_complex(match.group(2)) if match.group(2) else 1.0 + 0j
    return BivariatePoly.constant(sign * coeff)


def _family_params(args: argparse.Namespace) -> dict:
    mapping = (
        ("k", "count"),
        ("n", "n"),
        ("alpha", "alpha"),
        ("p", "exponent"),
        ("ratio", "ratio"),
        ("field", "field"),
        ("height", "height"),
        ("mode", "mode"),
    )
    params = {}
    for flag, name in mapping:
        value = getattr(args, flag, None)
        if value is not None:
            params[name] = value
    return params


def _cmd_gen(args: argparse.Namespace, cfg: RunConfig) -> int:
    seq = families.generate(args.family, **_family_params(args))
    doc = {
        "command": "gen",
        "family": args.family,
        "config": cfg.to_json(),
        "sequence": seq.to_json(),
    }
    _finish(cfg, doc, [f"gen {args.family}: {len(seq)} points in {seq.ambient.kind}"])
    return 0


@dataclass(frozen=True)
class _Move:
    """A check or a transform: the library call, which returns the verdict
    and the fields it adds to the report, the name's other spellings, and
    whether it needs --seed and --seq2."""

    run: Callable[..., tuple[Verdict, dict | None]]
    aliases: tuple[str, ...] = ()
    seed: bool = False
    seq2: bool = False


def _choices(table: dict[str, _Move]) -> list[str]:
    return [*table, *chain.from_iterable(move.aliases for move in table.values())]


def _rr_series(args, cfg: RunConfig, d: DiscreteSequence):
    if d.ambient.kind not in ("cn", "punctured-cn"):
        raise AmbientMismatch("the series criterion reads flat sequences")
    rep = rr_series_test(d, tail_policy=args.tail_policy)
    return rep.verdict, rep.to_json()


def _punctured(args, cfg: RunConfig, d: DiscreteSequence):
    return punctured_tame_check(d, min_gap=cfg.min_gap), None


def _dp_classify(args, cfg: RunConfig, d: DiscreteSequence):
    return dp_classify(d, min_gap_disc=cfg.min_gap, max_fiber=args.max_fiber), None


def _well_placed(args, cfg: RunConfig, d: DiscreteSequence):
    verdict, rep = well_placed_check(d)
    extra = {
        "nonzero_ok": rep.nonzero_ok,
        "monotone_ok": rep.monotone_ok,
        "growth_declared": rep.growth_declared,
    }
    return verdict, extra


def _pi_tame(args, cfg: RunConfig, d: DiscreteSequence):
    bundle = first_column(d.ambient.n)
    return pi_tame_check(d, bundle, min_gap=cfg.min_gap, max_fiber=args.max_fiber), None


def _one_param(args, cfg: RunConfig, d: DiscreteSequence):
    if args.subgroup != "diagonal":
        raise BadParams(f"unsupported subgroup {args.subgroup!r}; use diagonal")
    return one_param_check(d, DiagonalGroup(d.ambient.n), min_gap=cfg.min_gap), None


_CHECKS = {
    "rr-series": _Move(_rr_series),
    "punctured": _Move(_punctured),
    "dp-classify": _Move(_dp_classify),
    "wellplaced": _Move(_well_placed, aliases=("well-placed",)),
    "pi-tame": _Move(_pi_tame),
    "one-param": _Move(_one_param),
}


def _moved_fields(aut, moved: DiscreteSequence) -> dict:
    return {"sequence": moved.to_json(), "automorphism": aut.to_json()}


def _shears(args, cfg: RunConfig, d: DiscreteSequence):
    if d.ambient.is_matrix:
        raise BadParams("shears act on flat sequences; use bundle-push or overshears")
    targets = HeightAssignment.constant(args.height, len(d))
    aut, proof = push_prefix_cn(d, targets, seed=cfg.seed, distinct_tol=cfg.distinct_tol)
    fields = _moved_fields(aut, apply_all(aut, d, "shears"))
    return heights_verdict(proof["achieved"], targets), {**fields, "proof": proof}


def _overshears(args, cfg: RunConfig, d: DiscreteSequence):
    if args.shift:
        shift = _parse_shift_grid(args.shift)
    else:
        shift = _parse_lambda("1+a" if args.factor is None else args.factor)
    aut = OvershearAut(OvershearSpec(shift))
    moved = apply_all(aut, d, "overshears")
    drift, verdict = drift_verdict(moved.array, cfg.det_tol)
    return verdict, {**_moved_fields(aut, moved), "det_drift": drift}


def _lambda_rescale(args, cfg: RunConfig, d: DiscreteSequence):
    factor = float(args.factor) if args.factor else 2.0
    if factor < 1.0:
        raise BadParams("the row factor must be at least 1")
    row = [factor] + [1.0] * (d.ambient.n - 2) + [1.0 / factor]
    table = RescaleTable(np.tile(np.array(row, dtype=np.complex128), (len(d), 1)))
    out = lambda_rescale(d, table, check_conditions=True)
    verdict, _ = well_placed_check(out)
    return verdict, {"sequence": out.to_json(), "automorphism": None, "factor": factor}


def _union_decompose(args, cfg: RunConfig, d: DiscreteSequence):
    parts = union_decompose(d)
    verdict = union_split_verdict(d, parts)
    return verdict, {"parts": [s.to_json() for s in parts], "automorphism": None}


def _torus_embed(args, cfg: RunConfig, d: DiscreteSequence):
    images, verdict = torus_embed(d.array, min_gap=cfg.min_gap)
    out = DiscreteSequence(
        cn(d.ambient.n),
        images,
        GeneratorInfo.of("torus-embed", source=d.generator.family if d.generator else "input"),
    )
    prod_err = max(abs(complex(np.prod(v)) - 1.0) for v in images)
    return verdict, {"sequence": out.to_json(), "automorphism": None, "product_error": prod_err}


def _align(args, cfg: RunConfig, d: DiscreteSequence, other: DiscreteSequence):
    a2, b2, record, rep = align_first_columns(d, other)
    return alignment_verdict(a2, b2, rep), {
        "sequence": a2.to_json(),
        "sequence2": b2.to_json(),
        "automorphism": None,
        "scaling": record.to_json(),
        "alignment": asdict(rep),
    }


def _equivalence(args, cfg: RunConfig, d: DiscreteSequence, other: DiscreteSequence):
    phi = equivalence_automorphism(d, other, seed=cfg.seed)
    moved = apply_all(phi, other, "equivalence")
    return equivalence_verdict(d, moved), _moved_fields(phi, moved)


def _sl2_pipeline(args, cfg: RunConfig, d: DiscreteSequence):
    composite, verdict = sl2_column_pipeline(d, seed=cfg.seed, max_fiber=args.max_fiber)
    moved = apply_all(composite, d, "sl2-pipeline")
    _, verdict = drift_verdict(moved.array, cfg.det_tol, verdict)
    return verdict, _moved_fields(composite, moved)


def _center_separate(args, cfg: RunConfig, d: DiscreteSequence):
    aut, verdict = center_separate(d, tries=args.tries, seed=cfg.seed)
    return verdict, _moved_fields(aut, apply_all(aut, d, "center-separate"))


def _bundle_push(args, cfg: RunConfig, d: DiscreteSequence):
    targets = HeightAssignment.constant(args.height, len(d))
    aut, achieved = bundle_push(d, targets, seed=cfg.seed)
    fields = _moved_fields(aut, apply_all(aut, d, "bundle-push"))
    return heights_verdict(achieved, targets), {**fields, "achieved": list(achieved)}


_TRANSFORMS = {
    "shears": _Move(_shears, aliases=("shear",), seed=True),
    "overshears": _Move(_overshears, aliases=("overshear",)),
    "lambda-rescale": _Move(_lambda_rescale),
    "union-decompose": _Move(_union_decompose, aliases=("union",)),
    "torus-embed": _Move(_torus_embed),
    "align": _Move(_align, aliases=("align-first-columns",), seq2=True),
    "equivalence": _Move(
        _equivalence, aliases=("equivalence-automorphism",), seed=True, seq2=True
    ),
    "sl2-pipeline": _Move(_sl2_pipeline, aliases=("sl2-column-pipeline",), seed=True),
    "center-separate": _Move(_center_separate, seed=True),
    "bundle-push": _Move(_bundle_push, seed=True),
}


def _run_move(table: dict[str, _Move], name: str, args, cfg: RunConfig):
    """Resolves an alias, checks the move's requirements, loads its
    inputs and runs it; returns (canonical name, verdict, fields)."""
    name = next(key for key, move in table.items() if name in (key, *move.aliases))
    move = table[name]
    if move.seed:
        cfg.require_seed()
    inputs = [load_sequence(args.seq_file)]
    if move.seq2:
        if not args.seq2:
            raise BadParams(f"transform {name} needs --seq2 FILE")
        inputs.append(load_sequence(args.seq2))
    verdict, fields = move.run(args, cfg, *inputs)
    return name, verdict, fields


def _cmd_check(args: argparse.Namespace, cfg: RunConfig) -> int:
    criterion, verdict, extra = _run_move(_CHECKS, args.criterion, args, cfg)
    doc = {
        "command": "check",
        "criterion": criterion,
        "input": args.seq_file,
        "config": cfg.to_json(),
        "verdict": verdict.to_json(),
        "extra": extra,
    }
    _finish(cfg, doc, [f"check {criterion}: {verdict.state}  {verdict.detail}"])
    return _verdict_exit(verdict)


def _cmd_transform(args: argparse.Namespace, cfg: RunConfig) -> int:
    name, verdict, fields = _run_move(_TRANSFORMS, args.transform, args, cfg)
    doc = {
        "command": "transform",
        "transform": name,
        "input": args.seq_file,
        "config": cfg.to_json(),
        "postcondition": verdict.to_json(),
        **fields,
    }
    _finish(cfg, doc, [f"transform {name}: {verdict.state}  {verdict.detail}"])
    return _verdict_exit(verdict)


def _mc_radius(args) -> float:
    if not np.isfinite(args.r):
        raise BadParams(f"--r must be finite, got {args.r!r}")
    return args.r


def _mc_measure(args, cfg: RunConfig, seed: int):
    try:
        scales = [float(s) for s in str(args.R).split(",") if s]
    except ValueError:
        scales = []
    if not scales or not all(np.isfinite(r) and r > 0 for r in scales):
        raise BadParams(f"--R needs finite positive scales, got {args.R!r}")
    r = _mc_radius(args)
    vs = [np.diag([scale, 1.0 / scale]).astype(np.complex128) for scale in scales]
    with np.errstate(over="ignore", under="ignore"):
        huge = [scale for scale, v in zip(scales, vs) if not np.isfinite(np.linalg.norm(v))]
    if huge:
        raise BadParams(f"--R scale {huge[0]!r} gives a probe norm that overflows")
    ests = measure_estimates(vs, r, cfg.samples, HaarSampler(2, seed), action=args.twist)
    rows = [mc_report_row(args.twist, v, r, est) for v, est in zip(vs, ests)]
    csv_text = _measure_csv(rows)
    return {"rows": rows}, csv_text.splitlines(), None if cfg.emit_json else csv_text


def _mc_g(args, cfg: RunConfig, seed: int):
    est = g_estimate(
        _mc_radius(args), args.probes, cfg.samples, HaarSampler(2, seed), action=args.twist
    )
    human = [f"g({_float_text(args.r)}) = {_float_text(est.estimate)}"]
    return {"r": args.r, "estimate": est.to_json()}, human, None


def _mc_threshold(args, cfg: RunConfig, seed: int):
    th = threshold_estimate(
        args.levels, samples_per_level=cfg.samples, sphere_probes=args.probes, seed=seed
    )
    human = [
        f"R[{i + 1}] = {_float_text(r)}  (budget {_float_text(b)})"
        for i, (r, b) in enumerate(zip(th.rhat, th.delta))
    ]
    return {"threshold": th.to_json()}, human, None


def _mc_omega(args, cfg: RunConfig, seed: int):
    if not args.seq:
        raise BadParams("mc omega needs --seq FILE")
    d = load_sequence(args.seq)
    report = omega_check(
        d, cfg.samples, HaarSampler(2, seed), min_gap=cfg.min_gap, max_fiber=args.max_fiber
    )
    human = [f"omega fraction {_float_text(report.fraction)}"]
    return {"omega": report.to_json()}, human, None


# mc action -> runner returning (document fields, human lines, file text)
_MC = {"measure": _mc_measure, "g": _mc_g, "threshold": _mc_threshold, "omega": _mc_omega}


def _cmd_mc(args: argparse.Namespace, cfg: RunConfig) -> int:
    seed = cfg.require_seed()
    if args.action in ("threshold", "omega") and args.twist != "conjugation":
        raise BadParams(
            f"mc {args.action} always twists by conjugation; --twist applies to measure and g"
        )
    fields, human, file_text = _MC[args.action](args, cfg, seed)
    doc = {"command": "mc", "action": args.action, "config": cfg.to_json(), **fields}
    _finish(cfg, doc, human, file_text)
    return 0


# Where "-0" may stand as an integer token; a false hit only costs time.
_NEG_ZERO = re.compile(r"-0(?![\d.eE])")


def _parse_int(text: str):
    """Integers as json parses them, except "-0", which stays the float
    -0.0 that was written, so that `report` re-emits the bytes it read."""
    return -0.0 if text == "-0" else int(text)


def _read_report(text: str):
    """The JSON document in `text`, and whether any object in it has
    state "violated", noted as the parser builds each object."""
    violated = False

    def note(obj: dict) -> dict:
        nonlocal violated
        violated = violated or obj.get("state") == "violated"
        return obj

    try:
        doc = json.loads(
            text, parse_int=_parse_int if _NEG_ZERO.search(text) else None, object_hook=note
        )
    except RecursionError:
        raise MalformedDocument(TOO_DEEP) from None
    return doc, violated


def _radii_text(radii) -> str:
    if isinstance(radii, list) and all(type(r) in (int, float) for r in radii):
        try:
            return ", ".join(_float_text(float(r)) for r in radii)
        except (ValueError, OverflowError):  # nan, inf, or an int past the float range
            pass
    raise MalformedDocument("field 'R' of the threshold is not a list of finite numbers")


def _summarize(doc) -> list[str]:
    """The human lines of `report`; a field they read that has the wrong
    type raises `MalformedDocument` naming it."""
    if not isinstance(doc, dict):
        raise MalformedDocument("a report document is a JSON object")
    lines = []
    command = doc.get("command")
    if command:
        lines.append(f"command: {command}")
    for key in ("criterion", "transform", "action", "family"):
        if key in doc:
            lines.append(f"{key}: {doc[key]}")
    for key in ("verdict", "postcondition"):
        block = doc.get(key)
        if isinstance(block, dict):
            lines.append(f"{key}: {block.get('state')}  {block.get('detail', '')}")
    seq = doc.get("sequence") if isinstance(doc.get("sequence"), dict) else None
    if seq is None and "ambient" in doc:
        seq = doc
    if seq is not None:
        points = seq.get("points", [])
        if not isinstance(points, list):
            raise MalformedDocument("field 'points' of the sequence is not a list")
        lines.append(f"sequence: {len(points)} points in {seq.get('ambient')}")
    if isinstance(doc.get("rows"), list):
        lines.append(f"rows: {len(doc['rows'])}")
    if isinstance(doc.get("threshold"), dict):
        lines.append("thresholds: " + _radii_text(doc["threshold"].get("R", [])))
    if isinstance(doc.get("omega"), dict):
        lines.append(f"omega fraction: {doc['omega'].get('fraction')}")
    return lines or ["empty report"]


def _cmd_report(args: argparse.Namespace, cfg: RunConfig) -> int:
    with open(args.file, encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc, violated = _read_report(text)
    except json.JSONDecodeError:
        lines = text.splitlines()
        if not lines or lines[0].split(",") != list(MC_CSV_COLUMNS):
            raise
        human = [f"csv report: {len(lines) - 1} rows", lines[0]]
        _finish(cfg, {"command": "report", "rows": len(lines) - 1}, human)
        return 0
    human = _summarize(doc)
    try:
        _finish(cfg, doc, human)
    except RecursionError:  # the emitter recurses once per level, as the parser does
        raise MalformedDocument(TOO_DEEP) from None
    return 2 if violated else 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, help="64-bit seed for stochastic commands")
    common.add_argument("--config", help="key=value config file")
    common.add_argument("--out", help="write the report to this path")
    common.add_argument(
        "--json", action="store_true", dest="emit_json", help="print the JSON report"
    )

    parser = argparse.ArgumentParser(
        prog="tamelab",
        description="Discrete-sequence tameness: generators, checks, "
        "constructive moves, and seeded estimates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", parents=[common], help="write a family file")
    gen.add_argument("family")
    gen.add_argument("--k", type=int, help="number of points")
    gen.add_argument("--n", type=int, help="ambient dimension")
    gen.add_argument("--alpha", type=float, help="norm growth exponent")
    gen.add_argument("--p", type=int, help="symmetric entry exponent")
    gen.add_argument("--ratio", type=float, help="diagonal ratio base")
    gen.add_argument("--field", help="quadratic field tag")
    gen.add_argument("--height", type=int, help="enumeration height bound")
    gen.add_argument("--mode", help="disc base behavior")

    chk = sub.add_parser("check", parents=[common], help="run a tameness criterion")
    chk.add_argument("criterion", choices=_choices(_CHECKS))
    chk.add_argument("seq_file")
    chk.add_argument("--tail-policy", choices=(PARTIAL_ONLY, MONOTONE_TAIL_BOUND),
                     default=MONOTONE_TAIL_BOUND)
    chk.add_argument("--max-fiber", type=int, default=MAX_FIBER)
    chk.add_argument("--subgroup", default="diagonal")

    tra = sub.add_parser(
        "transform",
        parents=[common],
        help="apply a constructive move",
        description="Apply a constructive move and re-verify its postcondition. "
        "bundle-push needs pairwise distinct first columns: two points that "
        "share a first column end in FiberCollision.",
    )
    tra.add_argument("transform", choices=_choices(_TRANSFORMS))
    tra.add_argument("seq_file")
    tra.add_argument("--seq2", help="second sequence for align and equivalence")
    tra.add_argument("--height", type=float, default=10.0, help="target height")
    tra.add_argument("--factor", "--lambda", dest="factor", default=None,
                     help="rescale row factor, or overshear factor such as 1+a")
    tra.add_argument("--shift", default=None,
                     help="overshear shift coefficients, rows ; entries ,")
    tra.add_argument("--tries", type=int, default=8)
    tra.add_argument("--max-fiber", type=int, default=MAX_FIBER)

    mc = sub.add_parser("mc", parents=[common], help="seeded Monte-Carlo estimates")
    mc.add_argument("action", choices=tuple(_MC))
    mc.add_argument("--R", default="10,100,1000", help="comma-separated scales")
    mc.add_argument("--r", type=float, default=1.0, help="event radius")
    mc.add_argument("--samples", type=int, help="draw count")
    mc.add_argument("--probes", type=int, default=8, help="sphere probe count")
    mc.add_argument("--levels", type=int, default=5)
    mc.add_argument("--seq", help="sequence file for omega")
    mc.add_argument("--twist", choices=ACTIONS, default="conjugation",
                    help="how measure and g move their input; threshold and omega "
                    "always conjugate")
    mc.add_argument("--max-fiber", type=int, default=MAX_FIBER)

    rep = sub.add_parser("report", parents=[common], help="render a written report")
    rep.add_argument("file")
    return parser


_HANDLERS = {
    "gen": _cmd_gen,
    "check": _cmd_check,
    "transform": _cmd_transform,
    "mc": _cmd_mc,
    "report": _cmd_report,
}


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building one takes
    milliseconds and leaves reference cycles for the collector."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Runs one command with the cyclic garbage collector paused, and
    restores the caller's collector state on every exit. The documents a
    command parses and builds are acyclic lists and dicts that reference
    counting frees, while the collector would walk them again and again
    as they grow. The barycentric weights its fits shared are dropped
    when it returns, so a command costs the same whatever ran before it
    in the process."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        _log_weights.cache_clear()
        if was_enabled:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        cfg = _resolve_config(args)
        return _HANDLERS[args.command](args, cfg)
    except TamelabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
