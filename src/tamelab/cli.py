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
import io
import json
import re
import sys
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import families
from .cn_tame import MONOTONE_TAIL_BOUND, PARTIAL_ONLY, push_prefix_cn, rr_series_test
from .core import (
    DET_TOL,
    DISTINCT_TOL,
    MAX_FIBER,
    MIN_GAP,
    DiscreteSequence,
    GeneratorInfo,
    HeightAssignment,
    Verdict,
    cn,
)
from .disc_plane import dp_classify
from .errors import AmbientMismatch, BadParams, TamelabError
from .generic_projection import (
    ACTIONS,
    MC_CSV_COLUMNS,
    HaarSampler,
    g_estimate,
    mc_report_row,
    measure_estimate,
    omega_check,
    threshold_estimate,
)
from .pi_tame import bundle_push, first_column, pi_tame_check
from .punctured_cn import punctured_tame_check
from .sl2_special import BivariatePoly, OvershearAut, OvershearSpec, overshear_apply
from .sl2_special import sl2_column_pipeline
from .sln_tame import (
    DiagonalGroup,
    RescaleTable,
    align_first_columns,
    center_separate,
    equivalence_automorphism,
    lambda_rescale,
    one_param_check,
    torus_embed,
    union_decompose,
    well_placed_check,
)

_CONFIG_KEYS = ("seed", "det_tol", "min_gap", "distinct_tol", "samples")

_CHECK_ALIASES = {"well-placed": "wellplaced"}
_CHECKS = ("rr-series", "punctured", "dp-classify", "wellplaced", "pi-tame", "one-param")

_TRANSFORM_ALIASES = {
    "shear": "shears",
    "overshear": "overshears",
    "union": "union-decompose",
    "align-first-columns": "align",
    "equivalence-automorphism": "equivalence",
    "sl2-column-pipeline": "sl2-pipeline",
}
_TRANSFORMS = (
    "shears",
    "overshears",
    "lambda-rescale",
    "union-decompose",
    "torus-embed",
    "align",
    "equivalence",
    "sl2-pipeline",
    "center-separate",
    "bundle-push",
)
_STOCHASTIC_TRANSFORMS = (
    "shears",
    "equivalence",
    "sl2-pipeline",
    "center-separate",
    "bundle-push",
)


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
        return {
            "seed": self.seed,
            "det_tol": self.det_tol,
            "min_gap": self.min_gap,
            "distinct_tol": self.distinct_tol,
            "samples": self.samples,
            "out": self.out,
        }


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
        seed=values.get("seed"),
        det_tol=values.get("det_tol", DET_TOL),
        min_gap=values.get("min_gap", MIN_GAP),
        distinct_tol=values.get("distinct_tol", DISTINCT_TOL),
        samples=values.get("samples", 2000),
        out=getattr(args, "out", None),
        emit_json=bool(getattr(args, "emit_json", False)),
    )


def _float_text(value: float) -> str:
    if not np.isfinite(value):
        raise ValueError(f"non-finite value {value!r} in a report")
    return format(value, ".17g")


def _scalar_text(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _float_text(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__} deterministically")


_CONTAINERS = (list, tuple, dict)
_NON_FINITE = ("nan", "inf", "-inf")
_BATCH = 1 << 10  # list items formatted together
_FLUSH = 1 << 12  # pending chunks per write into the buffer


def _leaf_texts(leaves: list) -> list[str]:
    """The texts of scalar leaves, one comprehension for plain floats and
    ints; anything else, and any error, goes leaf by leaf in order."""
    kinds = set(map(type, leaves))
    try:
        if kinds == {float}:
            texts = [f"{v:.17g}" for v in leaves]
        elif kinds <= {float, int}:
            texts = [f"{v:.17g}" if type(v) is float else f"{v}" for v in leaves]
        else:
            texts = None
    except ValueError:  # an int too long to print
        texts = None
    if texts is None or any(bad in texts for bad in _NON_FINITE):
        return [_scalar_text(v) for v in leaves]
    return texts


def _block_text(items, indent: int) -> str | None:
    """The items of a list, each at `indent`, joined as the emitter joins
    them, when they form a regular block: scalars, or lists of one length
    down to scalar leaves. None otherwise."""
    dims = [len(items)]
    level = items
    while True:
        kinds = set(map(type, level))
        if kinds <= {list, tuple}:
            sizes = set(map(len, level))
            if len(sizes) != 1 or 0 in sizes:
                return None
            dims.append(sizes.pop())
            level = list(chain.from_iterable(level))
        elif any(issubclass(k, _CONTAINERS) for k in kinds):
            return None
        else:
            break
    texts = _leaf_texts(level)
    depth = len(dims) - 1
    pads = ["\n" + "  " * (indent + r) for r in range(depth + 1)]
    # seps[c]: between two leaves that c enclosing lists separate
    seps = [
        "".join(pads[depth - 1 - r] + "]" for r in range(c))
        + ","
        + "".join(pads[depth - c + r] + "[" for r in range(c))
        + pads[depth]
        for c in range(depth + 1)
    ]
    between: list[str] = []
    for closes, size in enumerate(reversed(dims)):
        between = (between + [seps[closes]]) * size
        between.pop()
    parts = [""] * (2 * len(texts) - 1)
    parts[::2] = texts
    parts[1::2] = between
    head = "".join("[" + pads[r + 1] for r in range(depth))
    tail = "".join(pads[depth - 1 - r] + "]" for r in range(depth))
    return head + "".join(parts) + tail


class _Emitter:
    """Writes a document as canonical JSON into a StringIO, flushing its
    chunks in batches."""

    def __init__(self):
        self.buf = io.StringIO()
        self.chunks: list[str] = []

    def put(self, text: str) -> None:
        self.chunks.append(text)
        if len(self.chunks) >= _FLUSH:
            self.flush()

    def flush(self) -> None:
        self.buf.write("".join(self.chunks))
        self.chunks.clear()

    def emit(self, value, indent: int) -> None:
        if isinstance(value, (list, tuple)):
            self.emit_list(value, indent)
        elif isinstance(value, dict):
            self.emit_dict(value, indent)
        else:
            self.put(_scalar_text(value))

    def emit_list(self, value, indent: int) -> None:
        if not value:
            self.put("[]")
            return
        pad = "\n" + "  " * (indent + 1)
        self.put("[")
        for lo in range(0, len(value), _BATCH):
            chunk = value[lo : lo + _BATCH]
            if lo:
                self.put(",")
            block = _block_text(chunk, indent + 1)
            if block is not None:
                self.put(pad + block)
                continue
            for i, item in enumerate(chunk):
                self.put("," + pad if i else pad)
                self.emit(item, indent + 1)
        self.put("\n" + "  " * indent + "]")

    def emit_dict(self, value, indent: int) -> None:
        if not value:
            self.put("{}")
            return
        pad = "\n" + "  " * (indent + 1)
        self.put("{")
        for i, (key, item) in enumerate(value.items()):
            self.put(("," if i else "") + pad + json.dumps(str(key)) + ": ")
            self.emit(item, indent + 1)
        self.put("\n" + "  " * indent + "}")


def canonical_json(doc) -> str:
    """Deterministic JSON: fixed indentation, 17 significant digits."""
    out = _Emitter()
    out.emit(doc, 0)
    out.put("\n")
    out.flush()
    return out.buf.getvalue()


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


def _write_out(cfg: RunConfig, text: str) -> None:
    if cfg.out is None:
        return
    with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _finish(cfg: RunConfig, doc: dict, human: list[str], file_text: str | None = None) -> None:
    _write_out(cfg, file_text if file_text is not None else canonical_json(doc))
    if cfg.emit_json:
        sys.stdout.write(canonical_json(doc))
    else:
        for line in human:
            print(line)


def _verdict_exit(v: Verdict) -> int:
    return 2 if v.is_violated else 0


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _load_sequence(path: str) -> DiscreteSequence:
    obj = _load_json(path)
    if "ambient" not in obj and isinstance(obj.get("sequence"), dict):
        obj = obj["sequence"]
    return DiscreteSequence.from_json(obj)


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


def _run_check(criterion: str, d: DiscreteSequence, args, cfg: RunConfig):
    if criterion == "rr-series":
        if d.ambient.kind not in ("cn", "punctured-cn"):
            raise AmbientMismatch("the series criterion reads flat sequences")
        rep = rr_series_test(d, tail_policy=args.tail_policy)
        return rep.verdict, rep.to_json()
    if criterion == "punctured":
        return punctured_tame_check(d, min_gap=cfg.min_gap), None
    if criterion == "dp-classify":
        return dp_classify(d, min_gap_disc=cfg.min_gap, max_fiber=args.max_fiber), None
    if criterion == "wellplaced":
        verdict, rep = well_placed_check(d)
        extra = {
            "nonzero_ok": rep.nonzero_ok,
            "monotone_ok": rep.monotone_ok,
            "growth_declared": rep.growth_declared,
        }
        return verdict, extra
    if criterion == "pi-tame":
        bundle = first_column(d.ambient.n)
        return pi_tame_check(d, bundle, min_gap=cfg.min_gap, max_fiber=args.max_fiber), None
    if criterion == "one-param":
        if args.subgroup != "diagonal":
            raise BadParams(f"unsupported subgroup {args.subgroup!r}; use diagonal")
        return one_param_check(d, DiagonalGroup(d.ambient.n), min_gap=cfg.min_gap), None
    raise BadParams(f"unknown criterion {criterion!r}")


def _cmd_check(args: argparse.Namespace, cfg: RunConfig) -> int:
    criterion = _CHECK_ALIASES.get(args.criterion, args.criterion)
    d = _load_sequence(args.seq_file)
    verdict, extra = _run_check(criterion, d, args, cfg)
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


def _seq_doc(seq: DiscreteSequence) -> dict:
    return seq.to_json()


def _apply_all(aut, d: DiscreteSequence, label: str) -> DiscreteSequence:
    return d.replace_points(
        tuple(aut.apply(p) for p in d.points),
        GeneratorInfo.of(label, source=d.generator.family if d.generator else "input"),
    )


def _heights_verdict(moved: DiscreteSequence, targets: HeightAssignment) -> Verdict:
    norms = [float(np.linalg.norm(p)) for p in moved.points]
    low = [i for i, h in enumerate(norms) if h < targets[i]]
    if low:
        return Verdict.violated(low, f"{len(low)} point(s) fall short of their height")
    return Verdict.consistent("every image clears its demanded height")


def _run_transform(args, cfg: RunConfig, d: DiscreteSequence):
    """Returns (doc fragment, postcondition verdict)."""
    name = args.transform
    if name == "shears":
        if d.ambient.is_matrix:
            raise BadParams("shears act on flat sequences; use bundle-push or overshears")
        targets = HeightAssignment.constant(args.height, len(d))
        aut, proof = push_prefix_cn(
            d, targets, seed=cfg.require_seed(), distinct_tol=cfg.distinct_tol
        )
        moved = _apply_all(aut, d, "shears")
        return (
            {"sequence": _seq_doc(moved), "automorphism": aut.to_json(), "proof": proof},
            _heights_verdict(moved, targets),
        )
    if name == "overshears":
        shift = _parse_shift_grid(args.shift) if args.shift else _parse_lambda(args.factor)
        spec = OvershearSpec(shift)
        aut = OvershearAut(spec)
        moved = _apply_all(aut, d, "overshears")
        drift = max(
            abs(complex(np.linalg.det(p)) - 1.0) for p in moved.points
        )
        verdict = (
            Verdict.consistent(f"determinant drift {drift:.3g}")
            if drift <= cfg.det_tol
            else Verdict.violated(
                (0,), f"determinant drift {drift:.3g} exceeds {cfg.det_tol:g}"
            )
        )
        return (
            {
                "sequence": _seq_doc(moved),
                "automorphism": aut.to_json(),
                "det_drift": float(drift),
            },
            verdict,
        )
    if name == "lambda-rescale":
        factor = float(args.factor) if args.factor else 2.0
        if factor < 1.0:
            raise BadParams("the row factor must be at least 1")
        n = d.ambient.n
        row = [factor] + [1.0] * (n - 2) + [1.0 / factor]
        table = RescaleTable(np.tile(np.array(row, dtype=np.complex128), (len(d), 1)))
        out = lambda_rescale(d, table, check_conditions=True)
        verdict, _ = well_placed_check(out)
        return (
            {
                "sequence": _seq_doc(out),
                "automorphism": None,
                "factor": factor,
            },
            verdict,
        )
    if name == "union-decompose":
        parts = union_decompose(d)
        n = d.ambient.n
        total = 0
        for k, part in enumerate(parts):
            for p in part.points:
                total += 1
                col = float(np.linalg.norm(p[:, k]))
                if col < float(np.linalg.norm(p)) / n:
                    return (
                        {"parts": [_seq_doc(s) for s in parts], "automorphism": None},
                        Verdict.violated((k,), "a member misses its column bound"),
                    )
        verdict = (
            Verdict.consistent(
                f"{len(parts)} parts partition {total} points; "
                "column dominance holds on every member"
            )
            if total == len(d)
            else Verdict.violated((0,), "parts do not partition the input")
        )
        return ({"parts": [_seq_doc(s) for s in parts], "automorphism": None}, verdict)
    if name == "torus-embed":
        images, verdict = torus_embed(d.points, min_gap=cfg.min_gap)
        prod_err = max(abs(complex(np.prod(v)) - 1.0) for v in images)
        out = DiscreteSequence(
            cn(d.ambient.n),
            images,
            GeneratorInfo.of(
                "torus-embed", source=d.generator.family if d.generator else "input"
            ),
        )
        return (
            {
                "sequence": _seq_doc(out),
                "automorphism": None,
                "product_error": float(prod_err),
            },
            verdict,
        )
    if name == "align":
        other = _load_sequence(_require_seq2(args))
        a2, b2, record, rep = align_first_columns(d, other)
        mismatches = [
            float(np.max(np.abs(x[:, 0] - y[:, 0])))
            for x, y in zip(a2.points, b2.points)
        ]
        worst = max(mismatches)
        flags_ok = all(
            (rep.unit_caps_ok, rep.ratio_caps_ok, rep.matching_ok,
             rep.products_ok, rep.dominance_ok)
        )
        if worst <= 1e-10 and flags_ok:
            verdict = Verdict.consistent(
                f"first columns agree within {worst:.3g}; all constraint groups hold"
            )
        else:
            verdict = Verdict.violated(
                (int(np.argmax(mismatches)),),
                f"first-column mismatch {worst:.3g} or a constraint group failed",
            )
        extra = {
            "sequence": _seq_doc(a2),
            "sequence2": _seq_doc(b2),
            "automorphism": None,
            "scaling": record.to_json(),
            "alignment": {
                "first_column_mismatch": rep.first_column_mismatch,
                "unit_caps_ok": rep.unit_caps_ok,
                "ratio_caps_ok": rep.ratio_caps_ok,
                "matching_ok": rep.matching_ok,
                "products_ok": rep.products_ok,
                "dominance_ok": rep.dominance_ok,
            },
        }
        return extra, verdict
    if name == "equivalence":
        other = _load_sequence(_require_seq2(args))
        phi = equivalence_automorphism(d, other, seed=cfg.require_seed())
        errors = [
            float(np.max(np.abs(phi.apply(y) - x)))
            for x, y in zip(d.points, other.points)
        ]
        worst = max(errors)
        verdict = (
            Verdict.consistent(f"worst mapping error {worst:.3g}")
            if worst <= 1e-8
            else Verdict.violated(
                (int(np.argmax(errors)),), f"mapping error {worst:.3g} exceeds 1e-08"
            )
        )
        moved = _apply_all(phi, other, "equivalence")
        return (
            {"sequence": _seq_doc(moved), "automorphism": phi.to_json()},
            verdict,
        )
    if name == "sl2-pipeline":
        composite, verdict = sl2_column_pipeline(
            d, seed=cfg.require_seed(), max_fiber=args.max_fiber
        )
        moved = _apply_all(composite, d, "sl2-pipeline")
        return (
            {"sequence": _seq_doc(moved), "automorphism": composite.to_json()},
            verdict,
        )
    if name == "center-separate":
        aut, verdict = center_separate(d, tries=args.tries, seed=cfg.require_seed())
        moved = _apply_all(aut, d, "center-separate")
        return (
            {"sequence": _seq_doc(moved), "automorphism": aut.to_json()},
            verdict,
        )
    if name == "bundle-push":
        targets = HeightAssignment.constant(args.height, len(d))
        aut, achieved = bundle_push(d, targets, seed=cfg.require_seed())
        moved = _apply_all(aut, d, "bundle-push")
        low = [i for i, h in enumerate(achieved) if h < targets[i]]
        verdict = (
            Verdict.violated(low, f"{len(low)} image(s) fall short of their height")
            if low
            else Verdict.consistent("every image clears its demanded height")
        )
        return (
            {
                "sequence": _seq_doc(moved),
                "automorphism": aut.to_json(),
                "achieved": [float(h) for h in achieved],
            },
            verdict,
        )
    raise BadParams(f"unknown transform {name!r}")


def _require_seq2(args) -> str:
    if not getattr(args, "seq2", None):
        raise BadParams(f"transform {args.transform} needs --seq2 FILE")
    return args.seq2


def _cmd_transform(args: argparse.Namespace, cfg: RunConfig) -> int:
    args.transform = _TRANSFORM_ALIASES.get(args.transform, args.transform)
    if args.transform in _STOCHASTIC_TRANSFORMS:
        cfg.require_seed()
    d = _load_sequence(args.seq_file)
    fragment, verdict = _run_transform(args, cfg, d)
    doc = {
        "command": "transform",
        "transform": args.transform,
        "input": args.seq_file,
        "config": cfg.to_json(),
        "postcondition": verdict.to_json(),
    }
    doc.update(fragment)
    _finish(
        cfg,
        doc,
        [f"transform {args.transform}: {verdict.state}  {verdict.detail}"],
    )
    return _verdict_exit(verdict)


def _cmd_mc(args: argparse.Namespace, cfg: RunConfig) -> int:
    seed = cfg.require_seed()
    if args.twist not in ACTIONS:
        raise BadParams(f"twist must be one of {ACTIONS}")
    if args.action == "measure":
        scales = [float(s) for s in str(args.R).split(",") if s]
        if not scales or any(r <= 0 for r in scales):
            raise BadParams(f"--R needs positive scales, got {args.R!r}")
        rows = []
        for scale in scales:
            v = np.diag([scale, 1.0 / scale]).astype(np.complex128)
            est = measure_estimate(
                v, args.r, cfg.samples, HaarSampler(2, seed), action=args.twist
            )
            rows.append(mc_report_row(args.twist, v, args.r, est))
        doc = {
            "command": "mc",
            "action": "measure",
            "config": cfg.to_json(),
            "rows": rows,
        }
        csv_text = _measure_csv(rows)
        _finish(cfg, doc, csv_text.splitlines(), None if cfg.emit_json else csv_text)
        return 0
    if args.action == "g":
        est = g_estimate(
            args.r, args.probes, cfg.samples, HaarSampler(2, seed), action=args.twist
        )
        doc = {
            "command": "mc",
            "action": "g",
            "config": cfg.to_json(),
            "r": args.r,
            "estimate": est.to_json(),
        }
        _finish(cfg, doc, [f"g({_float_text(args.r)}) = {_float_text(est.estimate)}"])
        return 0
    if args.action == "threshold":
        th = threshold_estimate(
            args.levels,
            samples_per_level=cfg.samples,
            sphere_probes=args.probes,
            seed=seed,
        )
        doc = {
            "command": "mc",
            "action": "threshold",
            "config": cfg.to_json(),
            "threshold": th.to_json(),
        }
        human = [
            f"R[{i + 1}] = {_float_text(r)}  (budget {_float_text(b)})"
            for i, (r, b) in enumerate(zip(th.rhat, th.delta))
        ]
        _finish(cfg, doc, human)
        return 0
    if args.action == "omega":
        if not args.seq:
            raise BadParams("mc omega needs --seq FILE")
        d = _load_sequence(args.seq)
        report = omega_check(
            d,
            cfg.samples,
            HaarSampler(2, seed),
            min_gap=cfg.min_gap,
            max_fiber=args.max_fiber,
        )
        doc = {
            "command": "mc",
            "action": "omega",
            "config": cfg.to_json(),
            "omega": report.to_json(),
        }
        _finish(cfg, doc, [f"omega fraction {_float_text(report.fraction)}"])
        return 0
    raise BadParams(f"unknown mc action {args.action!r}")


def _violated_inside(doc) -> bool:
    """Whether any dict in the document has state "violated". Walks one
    nesting level at a time; a level of lists is flattened whole, and a
    level without dicts or lists ends the walk unvisited."""
    level = [doc]
    while level:
        kinds = set(map(type, level))
        if kinds <= {list}:
            level = list(chain.from_iterable(level))
            continue
        if not any(issubclass(k, (dict, list)) for k in kinds):
            return False
        dicts = [v for v in level if isinstance(v, dict)]
        if any(v.get("state") == "violated" for v in dicts):
            return True
        lists = [v for v in level if isinstance(v, list)]
        level = [
            *chain.from_iterable(v.values() for v in dicts),
            *chain.from_iterable(lists),
        ]
    return False


# Where "-0" may stand as an integer token; a false hit only costs time.
_NEG_ZERO = re.compile(r"-0(?![\d.eE])")


def _parse_int(text: str):
    """Integers as json parses them, except "-0", which stays the float
    -0.0 that was written, so that `report` re-emits the bytes it read."""
    return -0.0 if text == "-0" else int(text)


def _summarize(doc: dict) -> list[str]:
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
        lines.append(
            f"sequence: {len(seq.get('points', []))} points in {seq.get('ambient')}"
        )
    if isinstance(doc.get("rows"), list):
        lines.append(f"rows: {len(doc['rows'])}")
    if isinstance(doc.get("threshold"), dict):
        radii = doc["threshold"].get("R", [])
        lines.append("thresholds: " + ", ".join(_float_text(float(r)) for r in radii))
    if isinstance(doc.get("omega"), dict):
        lines.append(f"omega fraction: {doc['omega'].get('fraction')}")
    return lines or ["empty report"]


def _cmd_report(args: argparse.Namespace, cfg: RunConfig) -> int:
    with open(args.file, encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text, parse_int=_parse_int if _NEG_ZERO.search(text) else None)
    except json.JSONDecodeError:
        lines = text.splitlines()
        if not lines or lines[0].split(",") != list(MC_CSV_COLUMNS):
            raise
        human = [f"csv report: {len(lines) - 1} rows", lines[0]]
        _finish(cfg, {"command": "report", "rows": len(lines) - 1}, human)
        return 0
    if cfg.emit_json:
        sys.stdout.write(canonical_json(doc))
    else:
        for line in _summarize(doc):
            print(line)
    if cfg.out is not None:
        _write_out(cfg, canonical_json(doc))
    return 2 if _violated_inside(doc) else 0


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
    chk.add_argument("criterion", choices=_CHECKS + tuple(_CHECK_ALIASES))
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
    tra.add_argument("transform", choices=_TRANSFORMS + tuple(_TRANSFORM_ALIASES))
    tra.add_argument("seq_file")
    tra.add_argument("--seq2", help="second sequence for align and equivalence")
    tra.add_argument("--height", type=float, default=10.0, help="target height")
    tra.add_argument("--factor", dest="factor", default=None,
                     help="rescale row factor, or overshear factor such as 1+a")
    tra.add_argument("--lambda", dest="factor_alias", default=None,
                     help="alias for --factor")
    tra.add_argument("--shift", default=None,
                     help="overshear shift coefficients, rows ; entries ,")
    tra.add_argument("--tries", type=int, default=8)
    tra.add_argument("--max-fiber", type=int, default=MAX_FIBER)

    mc = sub.add_parser("mc", parents=[common], help="seeded Monte-Carlo estimates")
    mc.add_argument("action", choices=("measure", "g", "threshold", "omega"))
    mc.add_argument("--R", default="10,100,1000", help="comma-separated scales")
    mc.add_argument("--r", type=float, default=1.0, help="event radius")
    mc.add_argument("--samples", type=int, help="draw count")
    mc.add_argument("--probes", type=int, default=8, help="sphere probe count")
    mc.add_argument("--levels", type=int, default=5)
    mc.add_argument("--seq", help="sequence file for omega")
    mc.add_argument("--twist", choices=ACTIONS, default="conjugation")
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    if getattr(args, "factor_alias", None) is not None and args.factor is None:
        args.factor = args.factor_alias
    if getattr(args, "factor", None) is None and args.command == "transform":
        args.factor = "1+a" if args.transform in ("overshear", "overshears") else None
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
