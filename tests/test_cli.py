"""Command-line front end: dispatch, exit codes, and byte-stable reports."""

from __future__ import annotations

import argparse
import contextlib
import copy
import gc
import io
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamelab import cli, cn_tame, core, generic_projection, pi_tame, sl2_special, sln_tame
from tamelab.core import DiscreteSequence, cn, sln
from tamelab.errors import (
    BadParams,
    DegenerateConfiguration,
    DuplicatePoints,
    InconclusivePrefix,
    MalformedDocument,
    NonFiniteEntries,
    NotSameFiber,
    TamelabError,
)
from tamelab.generic_projection import MC_CSV_COLUMNS, threshold_estimate


def run(*argv: str) -> int:
    return cli.main(list(argv))


def gen(tmp_path, family: str, *flags: str) -> str:
    out = str(tmp_path / f"{family}-{abs(hash(flags)) % 10**6}.json")
    assert run("gen", family, *flags, "--out", out) == 0
    return out


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class TestCanonicalJson:
    def test_17_digit_floats_round_trip(self):
        rng = np.random.default_rng(0)
        values = list(rng.standard_normal(50)) + [1e-300, 1e300, 2.0**-52, 0.125]
        doc = {"values": [float(v) for v in values]}
        back = json.loads(cli.canonical_json(doc))
        assert back["values"] == doc["values"]

    def test_ints_and_fractional_floats(self):
        text = cli.canonical_json({"n": 3, "x": 3.5, "y": 3.0})
        assert '"n": 3' in text and '"x": 3.5' in text
        # integral floats drop the point under the shortest 17-digit form
        assert '"y": 3' in text and '"y": 3.0' not in text
        back = json.loads(text)
        assert isinstance(back["n"], int) and isinstance(back["x"], float)
        assert back["y"] == 3

    def test_numpy_scalars_and_bools(self):
        doc = {"a": np.float64(0.5), "b": np.int64(7), "c": np.bool_(True), "d": None}
        assert json.loads(cli.canonical_json(doc)) == {
            "a": 0.5,
            "b": 7,
            "c": True,
            "d": None,
        }

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            cli.canonical_json({"x": float("nan")})

    def test_reemission_is_stable(self):
        doc = {"outer": [{"k": 1.7}, [0.1, 2], "text", None, True]}
        once = cli.canonical_json(doc)
        assert cli.canonical_json(json.loads(once)) == once


def _emit_value_reference(value, buf: io.StringIO, indent: int) -> None:
    """The value-at-a-time emitter the batched `canonical_json` replaced.
    A float64 array, as the reader returns a points block, is written as
    its `tolist()`."""
    pad = "  " * indent
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if value is None:
        buf.write("null")
    elif isinstance(value, bool) or isinstance(value, np.bool_):
        buf.write("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        buf.write(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        buf.write(cli._float_text(float(value)))
    elif isinstance(value, str):
        buf.write(json.dumps(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            buf.write("[]")
            return
        buf.write("[")
        for i, item in enumerate(value):
            buf.write("\n" + pad + "  ")
            _emit_value_reference(item, buf, indent + 1)
            if i + 1 < len(value):
                buf.write(",")
        buf.write("\n" + pad + "]")
    elif isinstance(value, dict):
        if not value:
            buf.write("{}")
            return
        buf.write("{")
        items = list(value.items())
        for i, (key, item) in enumerate(items):
            buf.write("\n" + pad + "  " + json.dumps(str(key)) + ": ")
            _emit_value_reference(item, buf, indent + 1)
            if i + 1 < len(items):
                buf.write(",")
        buf.write("\n" + pad + "}")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__} deterministically")


def _canonical_reference(doc) -> str:
    buf = io.StringIO()
    _emit_value_reference(doc, buf, 0)
    buf.write("\n")
    return buf.getvalue()


def _outcome(fn, doc):
    try:
        return fn(doc)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


_finite = st.floats(allow_nan=False, allow_infinity=False)
_edge_floats = st.sampled_from(
    [-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308,
     0.1 + 0.2, 1.2345678901234567e-5, 9007199254740993.0, 123456789012345678.0]
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    _finite,
    _edge_floats,
    st.text(max_size=4),
    st.builds(np.float64, _finite),
    st.builds(np.int64, st.integers(-(2**63), 2**63 - 1)),
    st.builds(np.bool_, st.booleans()),
)
_number = st.one_of(_finite, _edge_floats, st.integers(-(10**18), 10**18))
# rectangular nested lists of numbers, the shape of sequence points
_blocks = st.tuples(st.integers(1, 6), st.integers(1, 3), st.integers(1, 3)).flatmap(
    lambda dims: st.lists(
        st.lists(st.lists(_number, min_size=dims[2], max_size=dims[2]),
                 min_size=dims[1], max_size=dims[1]),
        min_size=1, max_size=dims[0],
    )
)
_docs = st.recursive(
    st.one_of(_scalars, _blocks),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=3), inner, max_size=4),
    ),
    max_leaves=30,
)

# numbers where '%.17g' and str() could part ways, and the float extremes
_BOUNDARY_NUMBERS = (2**53, -(2**53), 2**53 + 1, -(2**53 + 1), 0, -0.0, 5e-324, -5e-324,
                     1.7976931348623157e308, -1.7976931348623157e308, 0.1, 3)
# regular block shapes by depth
_SHAPES = {1: [(5,)], 2: [(4, 3), (1025, 2)], 3: [(3, 2, 2)], 4: [(2, 3, 2, 2)]}


def _regular(leaves: list, dims: tuple) -> list:
    if len(dims) == 1:
        return list(leaves)
    step = len(leaves) // dims[0]
    return [_regular(leaves[i * step : (i + 1) * step], dims[1:]) for i in range(dims[0])]


def _boundary_leaf_sets(size: int) -> list[list]:
    """Leaf lists for one block: boundary floats, boundary ints among
    floats, bools among numbers, and nan or inf at the first, middle
    and last leaf."""
    numbers = [_BOUNDARY_NUMBERS[i % len(_BOUNDARY_NUMBERS)] for i in range(size)]
    floats = [float(x) for x in numbers]
    sets = [floats, numbers, [bool(i % 2) if i % 3 == 0 else x for i, x in enumerate(numbers)]]
    for bad in (float("nan"), float("inf"), -float("inf")):
        for at in (0, size // 2, size - 1):
            for base in (floats, numbers):
                leaves = list(base)
                leaves[at] = bad
                sets.append(leaves)
    return sets


class TestBatchedEmitter:
    """`canonical_json` against the value-at-a-time reference emitter."""

    @settings(max_examples=300, deadline=None)
    @given(_docs)
    def test_matches_reference(self, doc):
        assert cli.canonical_json(doc) == _canonical_reference(doc)

    @settings(max_examples=100, deadline=None)
    @given(_docs, st.sampled_from([float("nan"), float("inf"), -float("inf"), object()]))
    def test_errors_match_reference(self, doc, bad):
        for placed in ([doc, bad], [[bad, doc]], {"a": doc, "b": [[1.5, bad]]}):
            assert _outcome(cli.canonical_json, placed) == _outcome(
                _canonical_reference, placed
            )

    def test_first_bad_value_in_document_order_decides(self):
        nan, other = float("nan"), object()
        for doc in ([[1.0, other], [nan, 2.0]], [[1.0, nan], [other, 2.0]],
                    [[1, 2**70], [nan, 0]], [[np.float64(np.inf), 1.0]]):
            expected = _outcome(_canonical_reference, doc)
            assert expected[0] in (ValueError, TypeError)
            assert _outcome(cli.canonical_json, doc) == expected

    @pytest.mark.parametrize("wrap", range(4), ids=lambda w: f"indent{w}")
    @pytest.mark.parametrize("depth", sorted(_SHAPES), ids=lambda d: f"depth{d}")
    def test_boundary_blocks_match_reference(self, depth, wrap):
        for dims in _SHAPES[depth]:
            for leaves in _boundary_leaf_sets(int(np.prod(dims))):
                doc = _regular(leaves, dims)
                for _ in range(wrap):  # each enclosing object indents the block once more
                    doc = {"k": doc}
                assert _outcome(cli.canonical_json, doc) == _outcome(_canonical_reference, doc)

    def test_long_lists_cross_batch_boundaries(self):
        rng = np.random.default_rng(4)
        vals = rng.standard_normal((2 * core._BATCH + 37, 2, 2))
        points = vals.tolist()
        points[core._BATCH] = [[0, -0.0], [1, 2]]  # ints inside one batch
        points[5] = [[1.0, 2.0]]  # an irregular batch
        doc = {"points": points, "flat": vals.reshape(-1).tolist(), "empty": [[], []]}
        assert cli.canonical_json(doc) == _canonical_reference(doc)

    def test_short_lists_print_the_same_bytes_value_by_value(self, monkeypatch):
        # lists of at most `_FEW_LEAVES` leaves skip the array path; with no
        # cut they take it, and both print the same bytes
        big = 2**53
        lists = [[1.5], [1.5, 2.5], [-0.0], [0.0, -0.0, 3], [1, 2, 3, 4], [[0.1, -0.0]],
                 [[1, 2], [3, 4.5]], [big], [big - 1, -big], [big + 1], [2**63, 0.5],
                 [5e-324, 1.7976931348623157e308], [[1e16, -7]]]
        rng = np.random.default_rng(6)
        lists += [rng.standard_normal(k).tolist() for k in range(1, 5)]
        lists += [rng.integers(-10**6, 10**6, k).tolist() for k in range(1, 5)]
        few = [core._block_text(items, 1) for items in lists]
        monkeypatch.setattr(core, "_FEW_LEAVES", 0)
        assert [core._block_text(items, 1) for items in lists] == few
        assert all(len(core._regular_leaves(items)[1]) <= 4 for items in lists)

    def test_sequence_documents_match_reference(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((3000, 3)) + 1j * rng.standard_normal((3000, 3))
        doc = DiscreteSequence(cn(3), tuple(pts)).to_json()
        assert cli.canonical_json(doc) == _canonical_reference(doc)


def _listed(doc):
    """`doc` with each array in it replaced by its `tolist()`."""
    if isinstance(doc, np.ndarray):
        return doc.tolist()
    if isinstance(doc, dict):
        return {key: _listed(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return type(doc)(_listed(value) for value in doc)
    return doc


_BIG_INTS = (2**53 - 1, 2**53, 2**53 + 1, 2**63)


def _parting(want, got):
    """None when two outcomes agree; else where two texts first part, so
    that a failure does not diff megabytes."""
    if want == got:
        return None
    if not (isinstance(want, str) and isinstance(got, str)):
        return want, got
    at = len(os.path.commonprefix([want, got]))
    return at, want[at - 60 : at + 60], got[at - 60 : at + 60]


class TestArrayBlocks:
    """A float64 array in a document is written as its `tolist()` is, by
    the batched emitter and by the value-at-a-time reference."""

    def _same(self, value):
        for doc in (value, {"k": value}, [value, {"k": [value]}]):
            listed = _listed(doc)
            expected = _outcome(_canonical_reference, listed)
            assert _parting(expected, _outcome(cli.canonical_json, listed)) is None
            assert _parting(expected, _outcome(cli.canonical_json, doc)) is None
        return expected

    def test_signed_zeros_in_one_column(self):
        vals = np.random.default_rng(6).standard_normal((3000, 2, 2))
        vals[:, 1, 0] = 0.0
        vals[::3, 1, 0] = -0.0
        vals[: core._BATCH, 1, 1] = -0.0  # one sign through a whole block
        vals[core._BATCH :, 1, 1] = 0.0
        text = self._same(vals)
        assert "-0," in text and "\n        0," in text

    @pytest.mark.parametrize("rows", [1, core._BATCH, core._BATCH + 1])
    def test_block_boundaries(self, rows):
        vals = np.random.default_rng(rows).standard_normal((rows, 3, 2))
        self._same(vals)
        self._same(vals[:, 0, 0].copy())
        self._same(vals[:, :, 1])  # a strided view

    def test_every_column_constant(self):
        self._same(np.full((2 * core._BATCH + 5, 3, 2), 0.5))
        vals = np.zeros((3000, 2, 2))
        vals[core._BATCH :] = [[1e300, -2.5], [5e-324, -0.0]]  # constant per block
        self._same(vals)

    def test_large_ints_among_floats(self):
        rows = [[big, 0.5 * i] for i, big in enumerate(_BIG_INTS * 300)]
        rows += [[-big, 1.25] for big in _BIG_INTS]
        text = self._same(rows)
        assert "9007199254740993" in text and "9223372036854775808" in text
        self._same(np.array(rows, dtype=np.float64))
        for big in _BIG_INTS:  # each as the largest leaf of its block
            text = self._same([[big, 0.5], [1.5, -big]] * 600)
            assert str(big) in text and str(-big) in text

    def test_bools_and_numpy_scalars_beside_arrays(self):
        vals = np.random.default_rng(7).standard_normal((1500, 2))
        leaves = [[True, 1.5], [np.float64(2.5), False], [np.float64(-0.0), 3]]
        self._same({"points": vals, "flags": leaves * 400, "x": np.float64(0.25)})
        self._same(np.array([[True, False]] * 3, dtype=np.float64))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_values_raise_the_same_error(self, bad):
        for at in (0, 2 * core._BATCH * 4 - 1, 5 * core._BATCH + 3):
            vals = np.random.default_rng(8).standard_normal((3000, 2, 2))
            vals.reshape(-1)[at] = bad
            outcome = self._same(vals)
            assert outcome == (ValueError, f"non-finite value {bad!r} in a report")

    def test_only_float64_arrays_are_written(self):
        for value in (np.arange(3), np.array(1.5), np.ones(2, np.float32)):
            assert _outcome(cli.canonical_json, {"a": value}) == (
                TypeError, "cannot serialize ndarray deterministically"
            )
        self._same(np.zeros((0, 2)))
        self._same(np.zeros((3, 0)))


def _violated_reference(doc) -> bool:
    if isinstance(doc, dict):
        if doc.get("state") == "violated":
            return True
        return any(_violated_reference(v) for v in doc.values())
    if isinstance(doc, list):
        return any(_violated_reference(v) for v in doc)
    return False


_json_docs = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), _finite,
              st.sampled_from(["violated", "consistent-up-to-prefix", "x"])),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(["state", "a", "b"]), inner, max_size=3),
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(_json_docs)
def test_violated_scan_matches_reference(doc):
    parsed, violated = cli._read_report(json.dumps(doc).encode())
    assert parsed == doc
    assert violated == _violated_reference(doc)


def test_report_flags_a_verdict_nested_inside_a_list(tmp_path, capsys):
    path = tmp_path / "nested.json"
    doc = {"command": "transform", "parts": [[{"verdict": {"state": "violated"}}]]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run("report", str(path)) == 2
    doc["parts"][0][0]["verdict"]["state"] = "consistent-up-to-prefix"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run("report", str(path)) == 0


class TestConfig:
    def test_file_values_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nseed=7\nsamples=500\nmin_gap=1e-5\n")
        args = cli.build_parser().parse_args(
            ["mc", "threshold", "--config", str(cfg), "--seed", "9"]
        )
        resolved = cli._resolve_config(args)
        assert resolved.seed == 9
        assert resolved.samples == 500
        assert resolved.min_gap == 1e-5

    def test_unknown_key_fails(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("jitter=2\n")
        assert run("mc", "threshold", "--config", str(cfg)) == 1

    def test_malformed_line_fails(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed 7\n")
        assert run("mc", "threshold", "--config", str(cfg)) == 1

    @pytest.mark.parametrize("text, want", [("seed = x", "seed must be an integer, got 'x'"),
                                            ("samples = 1e3",
                                             "samples must be an integer, got '1e3'"),
                                            ("min_gap = 1e-3x",
                                             "min_gap must be a number, got '1e-3x'")])
    def test_unreadable_value_names_file_line_and_key(self, tmp_path, capsys, text, want):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# comment\n{text}\n")
        with pytest.raises(BadParams, match=f"^{re.escape(f'{cfg}:2: {want}')}$"):
            cli._load_config_file(str(cfg))
        assert run("mc", "threshold", "--seed", "0", "--config", str(cfg)) == 1
        assert capsys.readouterr().err == f"error: {cfg}:2: {want}\n"

    def test_bad_tolerance_fails(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("min_gap=-1.0\n")
        assert run("mc", "threshold", "--seed", "0", "--config", str(cfg)) == 1

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["check", "pi-tame", "{sg}", "--max-fiber", "-1"], "--max-fiber"),
            (["transform", "sl2-pipeline", "{sg}", "--seed", "3", "--max-fiber", "0"],
             "--max-fiber"),
            (["mc", "omega", "--seq", "{sg}", "--samples", "4", "--seed", "0",
              "--max-fiber", "-1"], "--max-fiber"),
            (["transform", "center-separate", "{sg}", "--seed", "1", "--tries", "-1"],
             "--tries"),
            (["transform", "center-separate", "{sg}", "--seed", "1", "--tries", "0"],
             "--tries"),
        ],
    )
    def test_a_count_below_one_is_bad_params(self, tmp_path, capsys, argv, flag):
        sg = gen(tmp_path, "sl2-gauss", "--field", "qi", "--height", "1")
        argv = [arg.format(sg=sg) for arg in argv]
        with pytest.raises(BadParams, match=f"{flag} must be at least 1"):
            cli._resolve_config(cli.build_parser().parse_args(argv))
        out = tmp_path / "out.json"
        assert run(*argv, "--out", str(out)) == 1
        assert f"{flag} must be at least 1" in capsys.readouterr().err
        assert not out.exists()
        cli._resolve_config(cli.build_parser().parse_args([*argv[:-1], "1"]))


class TestGen:
    def test_sequence_file_reloads(self, tmp_path):
        path = gen(tmp_path, "wellplaced2", "--k", "12")
        doc = load(path)
        assert doc["command"] == "gen"
        assert doc["config"]["seed"] is None
        seq = DiscreteSequence.from_json(doc["sequence"])
        assert len(seq) == 12 and seq.ambient == sln(2)
        assert seq.generator.get("ratio_divergence") is True

    def test_repeat_run_is_byte_identical(self, tmp_path):
        out = str(tmp_path / "dt.json")
        assert run("gen", "diagtorus", "--k", "6", "--out", out) == 0
        first = read_bytes(out)
        assert run("gen", "diagtorus", "--k", "6", "--out", out) == 0
        assert read_bytes(out) == first

    def test_unknown_family_exits_1(self, capsys):
        assert run("gen", "spiral") == 1
        assert "unknown family" in capsys.readouterr().err

    def test_bad_parameter_exits_1(self, capsys):
        assert run("gen", "wellplaced2", "--k", "1") == 1
        assert "count" in capsys.readouterr().err

    def test_an_alpha_past_the_float_range_is_a_typed_error(self, tmp_path, capsys):
        out = tmp_path / "powers.json"
        argv = ["gen", "cn-powers", "--n", "2", "--k", "5", "--alpha", "2000"]
        assert run(*argv, "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: alpha 2000.0 takes k^alpha past the float range at k = 5\n"
        assert "Traceback" not in captured.err and not out.exists()
        # 5^441 is finite and 5^442 is not
        assert run("gen", "cn-powers", "--n", "2", "--k", "5", "--alpha", "442") == 1
        assert run("gen", "cn-powers", "--n", "2", "--k", "5", "--alpha", "441",
                   "--out", str(out)) == 0

    def test_json_flag_prints_report(self, capsys):
        assert run("gen", "diagtorus", "--k", "2", "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["family"] == "diagtorus"
        assert len(doc["sequence"]["points"]) == 2


class TestCheck:
    def test_wellplaced_certified(self, tmp_path, capsys):
        path = gen(tmp_path, "wellplaced2", "--k", "12")
        assert run("check", "wellplaced", path) == 0
        assert "certified" in capsys.readouterr().out

    def test_rr_series_certified_and_partial_policy(self, tmp_path, capsys):
        path = gen(tmp_path, "cn-powers", "--n", "2", "--alpha", "1", "--k", "100")
        assert run("check", "rr-series", path) == 0
        assert "certified" in capsys.readouterr().out
        assert run("check", "rr-series", path, "--tail-policy", "partial-only") == 0
        assert "consistent" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "value", ["1.0", True, [1], {}], ids=["str", "bool", "list", "dict"]
    )
    def test_rr_series_refuses_a_growth_that_is_not_a_number(self, tmp_path, capsys, value):
        path = gen(tmp_path, "cn-powers", "--n", "2", "--k", "6", "--alpha", "1.1")
        doc = load(path)
        doc["sequence"]["generator"]["params"]["norm_growth_c"] = value
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        assert run("check", "rr-series", path) == 1
        assert "'norm_growth_c' must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["family", "cls"])
    def test_a_generator_parameter_named_as_a_builder_argument_loads(self, tmp_path, capsys, key):
        # such a key once ended `check` in a bare TypeError while `report` read it
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"ambient": "cn", "n": 1, "points": [[[1.0, 0.0]]],
                                    "generator": {"family": "x", "params": {key: 1}}}),
                        encoding="utf-8")
        capsys.readouterr()
        assert run("check", "rr-series", str(path), "--json") == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["verdict"]["state"] == "consistent-up-to-prefix"
        assert run("report", str(path), "--out", str(tmp_path / "r.json")) == 0
        assert load(str(tmp_path / "r.json"))["generator"]["params"] == {key: 1}

    @pytest.mark.parametrize(
        "family, flags, criterion, key",
        [
            ("wellplaced2", ("--k", "12"), "wellplaced", "ratio_divergence"),
            ("discplane-base", ("--mode", "boundary", "--k", "30"), "dp-classify",
             "boundary_escape"),
        ],
        ids=["ratio-divergence", "boundary-escape"],
    )
    @pytest.mark.parametrize(
        "value, code",
        [(True, 0), (False, 0), (None, 0), ("missing", 0), ("false", 1), ("no", 1),
         ([0], 1), (1, 1), ({}, 1)],
        ids=["true", "false", "null", "missing", "str-false", "str-no", "list", "int",
             "dict"],
    )
    def test_only_json_true_declares_a_flag(
        self, tmp_path, capsys, family, flags, criterion, key, value, code
    ):
        path = gen(tmp_path, family, *flags)
        doc = load(path)
        params = doc["sequence"]["generator"]["params"]
        assert params[key] is True
        if value == "missing":
            del params[key]
        else:
            params[key] = value
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        assert run("check", criterion, path, "--json") == code
        out, err = capsys.readouterr()
        if code:
            assert f"error: generator parameter {key!r} must be true or false" in err
        else:
            certified = json.loads(out)["verdict"]["state"] == "certified"
            assert certified is (value is True)

    def test_punctured_violation_exits_2(self, tmp_path):
        path = gen(tmp_path, "punctured-accumulate", "--k", "40")
        assert run("check", "punctured", path) == 2

    def test_dp_classify_modes(self, tmp_path):
        good = gen(tmp_path, "discplane-base", "--mode", "boundary", "--k", "30")
        bad = gen(tmp_path, "discplane-base", "--mode", "constant", "--k", "30")
        assert run("check", "dp-classify", good) == 0
        assert run("check", "dp-classify", bad) == 2

    def test_pi_tame_with_fiber_cap(self, tmp_path):
        path = gen(tmp_path, "sl2-gauss", "--field", "qi", "--height", "1")
        assert run("check", "pi-tame", path, "--max-fiber", "16") == 0
        assert run("check", "pi-tame", path) == 2

    def test_one_param_on_torus(self, tmp_path):
        path = gen(tmp_path, "diagtorus", "--k", "6")
        assert run("check", "one-param", path) == 0

    def test_incompatible_ambient_exits_1(self, tmp_path, capsys):
        path = gen(tmp_path, "diagtorus", "--k", "4")
        assert run("check", "rr-series", path) == 1
        assert "flat" in capsys.readouterr().err

    def test_report_file_embeds_verdict(self, tmp_path):
        path = gen(tmp_path, "wellplaced2", "--k", "8")
        out = str(tmp_path / "verdict.json")
        assert run("check", "wellplaced", path, "--out", out) == 0
        doc = load(out)
        assert doc["verdict"]["state"] == "certified"
        assert doc["extra"]["monotone_ok"] is True
        assert doc["config"]["min_gap"] == pytest.approx(1e-6)


class TestTransform:
    def test_overshears_drift_is_judged_by_the_loader_rule(self, tmp_path):
        # the large entries of this prefix drift the determinant past 1e-9
        # in absolute terms, within det_tol scaled by their column norms
        path = gen(tmp_path, "wellplaced2", "--k", "16")
        out = str(tmp_path / "ov.json")
        assert run("transform", "overshears", path, "--out", out) == 0
        doc = load(out)
        assert doc["det_drift"] > 1e-9
        assert doc["postcondition"]["state"] == "consistent-up-to-prefix"
        assert len(DiscreteSequence.from_json(doc["sequence"])) == 16

    def test_overshear_det_drift(self, tmp_path):
        path = gen(tmp_path, "sl2-gauss", "--field", "qi", "--height", "1")
        out = str(tmp_path / "ov.json")
        code = run(
            "transform", "overshear", path, "--lambda", "1+0.5*a", "--out", out
        )
        assert code == 0
        doc = load(out)
        assert doc["det_drift"] <= 1e-10
        assert doc["postcondition"]["state"] == "consistent-up-to-prefix"
        assert doc["automorphism"]["kind"] == "overshear"

    def test_vanishing_factor_exits_1(self, tmp_path, capsys):
        path = gen(tmp_path, "sl2-gauss", "--field", "qi", "--height", "1")
        assert run("transform", "overshear", path, "--lambda", "1+a") == 1
        assert "modulus 0" in capsys.readouterr().err

    def test_overshears_refuse_sl3_before_moving(self, tmp_path, capsys):
        path = str(tmp_path / "sl3.json")
        core.save_sequence(DiscreteSequence(sln(3), (np.eye(3, dtype=complex),)), path)
        out = tmp_path / "ov.json"
        assert run("transform", "overshears", path, "--out", str(out)) == 1
        assert "error: overshears act on SL(2), not on 3x3" in capsys.readouterr().err
        assert not out.exists()

    def test_union_decompose_partitions(self, tmp_path):
        path = gen(tmp_path, "wellplaced2", "--k", "20")
        out = str(tmp_path / "parts.json")
        assert run("transform", "union-decompose", path, "--out", out) == 0
        doc = load(out)
        assert sum(len(p["points"]) for p in doc["parts"]) == 20

    def test_torus_embed_products(self, tmp_path):
        path = gen(tmp_path, "diagtorus", "--k", "6")
        out = str(tmp_path / "embedded.json")
        assert run("transform", "torus-embed", path, "--out", out) == 0
        doc = load(out)
        assert doc["product_error"] <= 1e-12
        assert doc["sequence"]["ambient"] == "cn"

    def test_torus_embed_takes_the_diagonal_of_a_near_diagonal_point(self, tmp_path):
        # the lower entry is inside the 1e-10 off-diagonal bound, and the row
        # sum 1e-6 + 1e-10 is not the diagonal entry
        mats = (np.array([[1e6, 0.0], [1e-10, 1e-6]], dtype=complex),
                np.diag([2.0, 0.5]).astype(complex))
        path = str(tmp_path / "near.json")
        core.save_sequence(DiscreteSequence(sln(2), mats), path)
        out = str(tmp_path / "embedded.json")
        assert run("transform", "torus-embed", path, "--out", out) == 0
        images = DiscreteSequence.from_json(load(out)["sequence"]).array
        assert images.tobytes() == np.stack([np.diag(m) for m in mats]).tobytes()
        assert run("check", "one-param", path) == 0

    def test_lambda_rescale_keeps_well_placed(self, tmp_path):
        path = gen(tmp_path, "wellplaced2", "--k", "12")
        out = str(tmp_path / "rescaled.json")
        assert run("transform", "lambda-rescale", path, "--factor", "2", "--out", out) == 0
        doc = load(out)
        assert doc["postcondition"]["state"] == "consistent-up-to-prefix"
        seq = DiscreteSequence.from_json(doc["sequence"])
        assert abs(complex(np.linalg.det(seq.points[0])) - 1.0) <= 1e-9

    def test_rescale_factor_below_one_exits_1(self, tmp_path):
        path = gen(tmp_path, "wellplaced2", "--k", "6")
        assert run("transform", "lambda-rescale", path, "--factor", "0.5") == 1

    @pytest.mark.parametrize(
        "name, flag, value, refused",
        [
            ("lambda-rescale", "--factor", "abc", "abc"),
            ("lambda-rescale", "--factor", "nan", "nan"),
            ("lambda-rescale", "--factor", "inf", "inf"),
            ("lambda-rescale", "--factor", "1e400", "1e400"),
            ("lambda-rescale", "--factor", "2j", "2j"),
            ("overshears", "--shift", "nan", "nan"),
            ("overshears", "--shift", "0.05,abc;0,0", "abc"),
            ("overshears", "--factor", "1+1e400*a", "1e400"),
        ],
    )
    def test_a_number_flag_names_what_it_refuses(
        self, tmp_path, capsys, name, flag, value, refused
    ):
        path = gen(tmp_path, "wellplaced2", "--k", "6")
        capsys.readouterr()
        assert run("transform", name, path, flag, value) == 1
        what = "real" if name == "lambda-rescale" else "complex"
        err = capsys.readouterr().err
        assert err == f"error: {flag} needs finite {what} numbers, got {refused!r}\n"

    def test_align_pair(self, tmp_path):
        a = gen(tmp_path, "wellplaced2", "--k", "12")
        b = gen(tmp_path, "wellplaced2", "--k", "12", "--p", "1")
        out = str(tmp_path / "aligned.json")
        assert run("transform", "align", a, "--seq2", b, "--out", out) == 0
        doc = load(out)
        assert doc["alignment"]["first_column_mismatch"] <= 1e-10
        assert doc["postcondition"]["state"] == "consistent-up-to-prefix"
        assert set(doc["scaling"]) == {"lambda", "mu", "lambda_tilde", "mu_tilde"}

    def test_align_needs_second_file(self, tmp_path):
        a = gen(tmp_path, "wellplaced2", "--k", "6")
        assert run("transform", "align", a) == 1

    def test_equivalence_recovers_twist(self, tmp_path):
        cs = [np.diag([float(k), 1.0 / k]).astype(complex) for k in range(1, 16)]
        ds = [c @ np.array([[1.0, float(k)], [0.0, 1.0]]) for k, c in enumerate(cs, 1)]
        cpath, dpath = str(tmp_path / "c.json"), str(tmp_path / "d.json")
        for path, pts in ((cpath, cs), (dpath, ds)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(cli.canonical_json(DiscreteSequence(sln(2), tuple(pts)).to_json()))
        out = str(tmp_path / "eq.json")
        code = run("transform", "equivalence", cpath, "--seq2", dpath,
                   "--seed", "0", "--out", out)
        assert code == 0
        doc = load(out)
        assert doc["postcondition"]["state"] == "consistent-up-to-prefix"
        moved = DiscreteSequence.from_json(doc["sequence"])
        worst = max(
            float(np.max(np.abs(p - c))) for p, c in zip(moved.points, cs)
        )
        assert worst <= 1e-8

    @pytest.mark.parametrize("move, patch, message", [
        ("shears", (cn_tame, "falls_short"), r"point \d+ reached height .* short of target"),
        ("bundle-push", (pi_tame, "falls_short"), r"at point 0 fell below the demand"),
        ("align", (sln_tame, "ALIGN_TOL"), r"first columns disagree by"),
        ("equivalence", (sln_tame, "EQUIV_TOL"), r"node 0 maps with error .* beyond -1"),
    ])
    def test_a_failing_move_exits_1_with_its_own_error(
        self, tmp_path, capsys, monkeypatch, move, patch, message
    ):
        # each library check is forced to fail; the move raises its typed
        # error before the command writes anything
        if move == "shears":
            flags = [gen(tmp_path, "cn-powers", "--n", "2", "--alpha", "1", "--k", "12")]
        elif move == "equivalence":
            cs = [np.diag([float(k), 1.0 / k]).astype(complex) for k in range(1, 9)]
            ds = [c @ np.array([[1.0, float(k)], [0.0, 1.0]]) for k, c in enumerate(cs, 1)]
            flags = [str(tmp_path / "c.json"), "--seq2", str(tmp_path / "d.json")]
            core.save_sequence(DiscreteSequence(sln(2), tuple(cs)), flags[0])
            core.save_sequence(DiscreteSequence(sln(2), tuple(ds)), flags[2])
        else:
            flags = [gen(tmp_path, "wellplaced2", "--k", "8")]
            if move == "align":
                flags += ["--seq2", gen(tmp_path, "wellplaced2", "--k", "8", "--p", "1")]
        if move in ("shears", "bundle-push"):
            flags += ["--height", "40"]
            monkeypatch.setattr(*patch, lambda achieved, targets: np.ones(len(targets), bool))
        else:
            monkeypatch.setattr(*patch, -1.0)
        capsys.readouterr()
        out = tmp_path / "moved.json"
        assert run("transform", move, *flags, "--seed", "0", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and re.search(message, err), err
        assert not out.exists()

    def test_sl2_pipeline_on_exact_enumeration(self, tmp_path):
        path = gen(tmp_path, "sl2-gauss", "--field", "qi", "--height", "1")
        out = str(tmp_path / "pipe.json")
        code = run("transform", "sl2-pipeline", path, "--seed", "3",
                   "--max-fiber", "16", "--out", out)
        assert code == 0
        doc = load(out)
        assert "translation seed 3" in doc["postcondition"]["detail"]
        first = read_bytes(out)
        assert run("transform", "sl2-pipeline", path, "--seed", "3",
                   "--max-fiber", "16", "--out", out) == 0
        assert read_bytes(out) == first

    @pytest.mark.parametrize("seed", [0, 1, 7, 12, 45])
    def test_sl2_pipeline_is_right_on_seeds_that_overshot(self, tmp_path, seed):
        # a clearance shear expanded into a monomial grid drifted (exit 2)
        # or fell short at fiber-rescale (exit 1) on these seeds
        path = gen(tmp_path, "sl2-gauss", "--field", "qi", "--height", "1")
        out = str(tmp_path / "pipe.json")
        assert run("transform", "sl2-pipeline", path, "--seed", str(seed),
                   "--max-fiber", "16", "--out", out) == 0
        moved = DiscreteSequence.from_json(load(out)["sequence"]).array
        assert float(np.max(np.abs(np.linalg.det(moved) - 1.0))) <= 1e-10
        norms = np.linalg.norm(moved[:, :, 1], axis=1)
        assert np.all(norms > np.arange(len(moved)) + 1)

    def test_bundle_push_heights(self, tmp_path):
        path = gen(tmp_path, "wellplaced2", "--k", "8")
        out = str(tmp_path / "pushed.json")
        code = run("transform", "bundle-push", path, "--height", "3",
                   "--seed", "2", "--out", out)
        assert code == 0
        doc = load(out)
        assert all(h >= 3.0 for h in doc["achieved"])

    def test_bundle_push_verdict_allows_the_push_slack(self, tmp_path):
        # point 0 needs t = 8 and lands at 51.979082331260905: short of the
        # target by one rounding, within the slack the push itself accepts
        path = str(tmp_path / "seq.json")
        top, low = -3 - 1j, -1 - 1j
        x = np.array([[-2 + 6j, top], [low, (1 + top * low) / (-2 + 6j)]])
        core.save_sequence(DiscreteSequence(sln(2), (x, np.eye(2, dtype=complex))), path)
        out = str(tmp_path / "pushed.json")
        assert run("transform", "bundle-push", path, "--height", "51.97908233126091",
                   "--seed", "0", "--out", out) == 0
        doc = load(out)
        assert doc["achieved"][0] < 51.97908233126091
        assert doc["postcondition"]["state"] == "consistent-up-to-prefix"

    def test_bundle_push_names_shared_first_columns(self, tmp_path, capsys):
        path = gen(tmp_path, "sl2-gauss", "--field", "qi", "--height", "1")
        capsys.readouterr()
        code = run("transform", "bundle-push", path, "--height", "10", "--seed", "0")
        assert code == 1
        err = capsys.readouterr().err
        assert "images 0 and 1 coincide" in err
        assert "share a first column" in err

    def test_transform_help_states_the_fiber_requirement(self):
        text = " ".join(cli.build_parser()._subparsers._group_actions[0]
                        .choices["transform"].format_help().split())
        assert "bundle-push needs pairwise distinct first columns" in text

    def test_shears_raise_flat_points(self, tmp_path):
        path = gen(tmp_path, "cn-powers", "--n", "2", "--alpha", "1", "--k", "12")
        out = str(tmp_path / "sheared.json")
        code = run("transform", "shears", path, "--height", "40",
                   "--seed", "1", "--out", out)
        assert code == 0
        seq = DiscreteSequence.from_json(load(out)["sequence"])
        assert all(float(np.linalg.norm(p)) >= 40.0 for p in seq.points)

    def test_shears_reject_matrix_ambient(self, tmp_path):
        path = gen(tmp_path, "wellplaced2", "--k", "6")
        assert run("transform", "shears", path, "--height", "4", "--seed", "1") == 1

    def test_shears_name_a_point_whose_height_overflows(self, tmp_path, capsys, monkeypatch):
        # the fit is forced to a value whose square overflows at node 17;
        # the moved point stays finite, its height does not
        real = cn_tame.interpolate_nodes

        def overflowing(nodes, distinct_tol):
            xs, ys = np.asarray(nodes).T
            return real(np.column_stack((xs, np.where(np.arange(len(ys)) == 17, 1e200, ys))),
                        distinct_tol)

        monkeypatch.setattr(cn_tame, "interpolate_nodes", overflowing)
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((300, 3)) + 1j * rng.standard_normal((300, 3))
        path = str(tmp_path / "c3.json")
        core.save_sequence(DiscreteSequence(cn(3), tuple(pts)), path)
        out = tmp_path / "sheared.json"
        code = run("transform", "shears", path, "--height", "4", "--seed", "2",
                   "--out", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: the height of point \d+ is not finite after "
                            r"interpolation\n", err)
        assert not out.exists()

    @pytest.mark.parametrize("parts", ["real", "complex"])
    @pytest.mark.parametrize("height, seed", [("40", "1"), ("4", "2"), ("1000", "3")])
    def test_shears_meet_every_height_on_a_random_prefix(self, tmp_path, parts, height, seed):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((300, 3)) + 0j
        if parts == "complex":
            pts += 1j * rng.standard_normal((300, 3))
        path = str(tmp_path / "c3.json")
        core.save_sequence(DiscreteSequence(cn(3), tuple(pts)), path)
        out = str(tmp_path / "sheared.json")
        assert run("transform", "shears", path, "--height", height, "--seed", seed,
                   "--out", out) == 0
        doc = load(out)
        assert min(doc["proof"]["achieved"]) >= float(height)
        assert doc["postcondition"]["state"] == "consistent-up-to-prefix"

    def test_shears_exit_0_under_another_blas_kernel(self, tmp_path):
        blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
        if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
            pytest.skip("numpy is not linked to a DYNAMIC_ARCH OpenBLAS")
        rng = np.random.default_rng(20171)
        flat = rng.standard_normal((60, 3)) + 1j * rng.standard_normal((60, 3))
        doc = {"ambient": "cn", "n": 3, "points": [[[z.real, z.imag] for z in p] for p in flat]}
        path = tmp_path / "flat60.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "sheared.json"
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        pythonpath = os.environ.get("PYTHONPATH")
        env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell",
               "PYTHONPATH": src + (os.pathsep + pythonpath if pythonpath else "")}
        proc = subprocess.run(
            [sys.executable, "-m", "tamelab.cli", "transform", "shears", str(path),
             "--height", "6", "--seed", "1", "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        # the bytes still depend on the kernel; the exit code and heights do not
        assert proc.returncode == 0, proc.stderr
        assert min(load(str(out))["proof"]["achieved"]) >= 6.0

    def test_stochastic_transform_requires_seed(self, tmp_path, capsys):
        path = gen(tmp_path, "sl2-gauss", "--field", "qi", "--height", "1")
        assert run("transform", "center-separate", path) == 1
        assert "seed is required" in capsys.readouterr().err

    def test_center_separate_on_exact_enumeration(self, tmp_path):
        path = gen(tmp_path, "sl2-gauss", "--field", "qi", "--height", "1")
        out = str(tmp_path / "separated.json")
        code = run("transform", "center-separate", path, "--seed", "4", "--out", out)
        assert code == 0

    def test_center_separate_without_central_pairs_is_not_certified(self, tmp_path):
        # no generator declares anything about central pairs
        path = gen(tmp_path, "wellplaced2", "--k", "4")
        out = str(tmp_path / "separated.json")
        assert run("transform", "center-separate", path, "--seed", "1", "--out", out) == 0
        verdict = load(out)["postcondition"]
        assert verdict["state"] == "consistent-up-to-prefix"
        assert verdict["reason"] == "no-central-pairs"


@pytest.fixture
def no_draws(monkeypatch):
    """Fails the test if any Haar twist is drawn."""

    def draw(sampler, count):
        raise AssertionError("drew twists for a rejected flag")

    monkeypatch.setattr(generic_projection, "haar_su_batch", draw)


class TestMc:
    def test_measure_csv_shape_and_determinism(self, tmp_path):
        out = str(tmp_path / "measure.csv")
        argv = ("mc", "measure", "--R", "10,100,1000", "--r", "1",
                "--samples", "500", "--seed", "0", "--out", out)
        assert run(*argv) == 0
        lines = read_bytes(out).decode().splitlines()
        assert lines[0] == ",".join(MC_CSV_COLUMNS)
        assert len(lines) == 4
        # determinant-one points never enter the unit ball, so the
        # estimate column is exactly zero for every scale
        assert all(line.split(",")[5] == "0" for line in lines[1:])
        first = read_bytes(out)
        assert run(*argv) == 0
        assert read_bytes(out) == first

    def test_measure_json_mode(self, capsys):
        assert run("mc", "measure", "--R", "10", "--samples", "200",
                   "--seed", "1", "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rows"][0]["samples"] == 200
        assert tuple(doc["rows"][0]) == MC_CSV_COLUMNS

    def test_threshold_matches_library(self, tmp_path):
        out = str(tmp_path / "threshold.json")
        assert run("mc", "threshold", "--levels", "3", "--seed", "0",
                   "--samples", "2000", "--out", out) == 0
        doc = load(out)
        expected = threshold_estimate(3, samples_per_level=2000, seed=0)
        assert doc["threshold"]["R"] == list(expected.rhat)
        assert doc["threshold"]["delta"] == list(expected.delta)

    def test_omega_on_torus_family(self, tmp_path):
        path = gen(tmp_path, "diagtorus", "--k", "6")
        out = str(tmp_path / "omega.json")
        assert run("mc", "omega", "--seq", path, "--samples", "300",
                   "--seed", "5", "--out", out) == 0
        doc = load(out)
        assert doc["omega"]["fraction"] == 1.0

    def test_g_action_column(self, capsys):
        assert run("mc", "g", "--r", "0.6", "--samples", "200",
                   "--seed", "0", "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["estimate"]["estimate"] == 1.0

    @pytest.mark.parametrize("r", ["0", "-1"])
    @pytest.mark.parametrize("action", ["measure", "g"])
    def test_a_radius_not_above_zero_exits_1(self, monkeypatch, capsys, action, r):
        def refuse(sampler, count):
            raise AssertionError("drew for a refused radius")

        monkeypatch.setattr(generic_projection.HaarSampler, "raw_uniforms", refuse)
        assert run("mc", action, "--r", r, "--samples", "10", "--seed", "0") == 1
        assert capsys.readouterr().err == "error: the ball radius must be positive\n"

    def test_translation_twist_selectable(self, capsys):
        assert run("mc", "measure", "--R", "2", "--r", "1.0001",
                   "--twist", "translation", "--samples", "50",
                   "--seed", "0", "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rows"][0]["action"] == "translation"
        assert doc["rows"][0]["estimate"] == 1.0

    def test_threshold_past_the_last_budget_exits_1(self, capsys):
        # 2^-1075 rounds to zero, so at level 1074 no count passes the guard
        assert run("mc", "threshold", "--levels", "1100", "--samples", "20", "--seed", "0") == 1
        assert capsys.readouterr().err == (
            "error: no radius below 1e+12 meets the level-1074 tail budget\n"
        )

    def test_seed_required(self, capsys):
        assert run("mc", "threshold", "--levels", "2") == 1
        assert "seed is required" in capsys.readouterr().err

    def test_omega_needs_sequence(self):
        assert run("mc", "omega", "--seed", "1") == 1

    def test_bad_scale_list(self):
        assert run("mc", "measure", "--R", "10,-3", "--seed", "0") == 1

    @pytest.mark.parametrize(
        "action, flag, value",
        [
            ("measure", "--r", "nan"),
            ("measure", "--r", "inf"),
            ("measure", "--r", "1e400"),
            ("g", "--r", "nan"),
            ("g", "--r", "inf"),
            ("measure", "--R", "nan"),
            ("measure", "--R", "10,inf"),
            ("measure", "--R", "abc"),
        ],
    )
    def test_non_finite_radii_fail_before_any_draw(self, no_draws, capsys, action, flag, value):
        assert run("mc", action, flag, value, "--samples", "10", "--seed", "0") == 1
        assert capsys.readouterr().err.startswith(f"error: {flag} ")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scales", ["1e200", "1e-200", "10,1.4e154"])
    def test_overflowing_probe_norms_fail_before_any_draw(self, no_draws, capsys, scales):
        # finite scales whose probe diag(R, 1/R) has no finite norm
        assert run("mc", "measure", "--R", scales, "--samples", "10", "--seed", "0") == 1
        assert capsys.readouterr().err.startswith("error: --R scale ")

    @pytest.mark.parametrize(
        "twist, estimates",
        # the estimates of the unscaled norms; conjugation printed overflow warnings
        [("conjugation", [0, 0, 0, 0]), ("translation", [1, 1, 1, 1])],
    )
    def test_huge_scales_raise_no_floating_point_error(self, capsys, twist, estimates):
        argv = ("mc", "measure", "--R", "1e78,1e100,1e150,1.34e154", "--r", "2.5",
                "--samples", "3000", "--seed", "0", "--twist", twist, "--json")
        with np.errstate(all="raise"):
            assert run(*argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert [row["estimate"] for row in json.loads(out)["rows"]] == estimates

    @pytest.mark.parametrize(
        "argv", [("threshold", "--levels", "1"), ("omega", "--seq", "unread.json")]
    )
    def test_twist_is_refused_where_it_would_be_ignored(self, no_draws, capsys, argv):
        assert run("mc", *argv, "--twist", "translation", "--seed", "0") == 1
        assert "--twist applies to measure and g" in capsys.readouterr().err

    def test_help_says_which_actions_take_the_twist(self, capsys):
        assert run("mc", "--help") == 0
        assert "threshold and omega always conjugate" in " ".join(capsys.readouterr().out.split())


class TestReport:
    def test_summarizes_gen_file(self, tmp_path, capsys):
        path = gen(tmp_path, "diagtorus", "--k", "4")
        assert run("report", path) == 0
        out = capsys.readouterr().out
        assert "command: gen" in out
        assert "4 points" in out

    def test_violated_verdict_exits_2(self, tmp_path):
        seq = gen(tmp_path, "discplane-base", "--mode", "constant", "--k", "30")
        verdict_file = str(tmp_path / "verdict.json")
        assert run("check", "dp-classify", seq, "--out", verdict_file) == 2
        assert run("report", verdict_file) == 2

    def test_csv_summary(self, tmp_path, capsys):
        out = str(tmp_path / "measure.csv")
        assert run("mc", "measure", "--R", "10", "--samples", "100",
                   "--seed", "0", "--out", out) == 0
        assert run("report", out) == 0
        assert "csv report: 1 rows" in capsys.readouterr().out

    def test_json_mode_is_canonical_identity(self, tmp_path, capsys):
        path = gen(tmp_path, "diagtorus", "--k", "3")
        capsys.readouterr()
        assert run("report", path, "--json") == 0
        assert capsys.readouterr().out == read_bytes(path).decode()

    def test_missing_file_exits_1(self, tmp_path):
        assert run("report", str(tmp_path / "absent.json")) == 1

    def test_garbage_file_exits_1(self, tmp_path):
        path = tmp_path / "garbage.txt"
        path.write_text("not a report\n")
        assert run("report", str(path)) == 1

    @pytest.mark.parametrize(
        "text, field",
        [
            ("[1, 2]", "a report document is a JSON object"),
            ("3", "a report document is a JSON object"),
            ('"x"', "a report document is a JSON object"),
            ('{"sequence": {"points": 5}}', "'points'"),
            ('{"ambient": "cn", "points": "abc"}', "'points'"),
            ('{"threshold": {"R": ["a"]}}', "'R'"),
            ('{"threshold": {"R": 5}}', "'R'"),
            ('{"threshold": {"R": [null]}}', "'R'"),
            ('{"threshold": {"R": [true]}}', "'R'"),
            ('{"threshold": {"R": [NaN]}}', "'R'"),
            ('{"threshold": {"R": [1' + "0" * 400 + "]}}", "'R'"),
        ],
        ids=["list", "int", "string", "points-int", "points-string", "R-string",
             "R-scalar", "R-null", "R-bool", "R-nan", "R-past-float"],
    )
    @pytest.mark.parametrize("flags", [(), ("--json",)], ids=["human", "json"])
    def test_malformed_document_is_a_typed_error(self, tmp_path, capsys, text, field, flags):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "out.json"
        assert run("report", str(path), "--out", str(out), *flags) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and field in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command", [["report"], ["check", "rr-series"]], ids=["report", "rr-series"])
def test_a_deeply_nested_document_is_a_typed_error(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    assert run(*command, str(path)) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: the document nests too deeply to parse\n"
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("flag", [["--json"], ["--out", "out.json"]], ids=["json", "out"])
def test_report_of_a_nested_document_that_parses_is_a_typed_error(
    tmp_path, capsys, monkeypatch, flag
):
    # parses, but re-emitting it recurses past the interpreter's limit
    monkeypatch.chdir(tmp_path)
    (tmp_path / "deep.json").write_text(
        '{"points": ' + "[" * 900 + "]" * 900 + "}", encoding="utf-8"
    )
    assert run("report", "deep.json") == 0
    assert capsys.readouterr().out == "empty report\n"
    assert run("report", "deep.json", *flag) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: the document nests too deeply to parse\n"
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "out.json").exists()


class TestSerializeOnce:
    """Each command serializes its document only when a flag asks for the
    text, once, and writes that one text to stdout and --out."""

    @pytest.fixture
    def counted(self, monkeypatch) -> list:
        calls = []

        # `--out` takes the bytes and `--json` alone the text
        for name in ("canonical_bytes", "canonical_json"):
            def counting(doc, real=getattr(core, name)):
                calls.append(1)
                return real(doc)

            monkeypatch.setattr(cli, name, counting)
        return calls

    @pytest.mark.parametrize(
        "flags, serializations",
        [((), 0), (("--out",), 1), (("--json",), 1), (("--json", "--out"), 1)],
        ids=["neither", "out", "json", "json-out"],
    )
    @pytest.mark.parametrize("command", ["gen", "report"])
    def test_count_and_bytes(self, tmp_path, capsys, counted, command, flags, serializations):
        source = gen(tmp_path, "diagtorus", "--k", "5")
        argv = ["gen", "diagtorus", "--k", "5"] if command == "gen" else ["report", source]
        out = tmp_path / "again.json"
        if "--out" in flags:
            argv += ["--out", str(out)]
        if "--json" in flags:
            argv.append("--json")
        capsys.readouterr()
        counted.clear()
        assert run(*argv) == 0
        assert len(counted) == serializations
        texts = [capsys.readouterr().out] if "--json" in flags else []
        if "--out" in flags:
            texts.append(out.read_text(encoding="utf-8"))
        else:
            assert not out.exists()
        for text in texts:
            assert text == _canonical_reference(json.loads(text))
            if command == "report":
                assert text.encode() == read_bytes(source)
        assert len(set(texts)) <= 1

    def test_measure_csv_file_and_json_stdout(self, tmp_path, capsys, counted):
        argv = ["mc", "measure", "--R", "10", "--samples", "50", "--seed", "0"]
        csv_path = tmp_path / "m.csv"
        assert run(*argv, "--out", str(csv_path)) == 0
        assert len(counted) == 0
        assert csv_path.read_text().splitlines() == capsys.readouterr().out.splitlines()
        assert run(*argv, "--json") == 0
        assert len(counted) == 1
        assert json.loads(capsys.readouterr().out)["action"] == "measure"


class TestDocumentsCarryArrays:
    """Commands and `save_sequence` write a sequence from the float64 view
    of its array, never through the nested lists of `to_json`."""

    @staticmethod
    def _refuse_lists(monkeypatch) -> None:
        def refuse(self):
            raise AssertionError("DiscreteSequence.to_json was called")

        monkeypatch.setattr(DiscreteSequence, "to_json", refuse)

    @staticmethod
    def _inputs(tmp_path) -> dict:
        rng = np.random.default_rng(20171)
        flat = rng.standard_normal((60, 3)) + 1j * rng.standard_normal((60, 3))
        doc = {"ambient": "cn", "n": 3, "points": [[[z.real, z.imag] for z in p] for p in flat]}
        (tmp_path / "flat.json").write_text(json.dumps(doc), encoding="utf-8")
        return {
            "sg": gen(tmp_path, "sl2-gauss", "--field", "qi", "--height", "1"),
            "wp": gen(tmp_path, "wellplaced2", "--k", "16"),
            "flat": str(tmp_path / "flat.json"),
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "cn-powers", "--n", "2", "--k", "3000", "--alpha", "1.15"],
            ["gen", "wellplaced2", "--k", "16"],
            ["transform", "overshears", "sg", "--lambda", "1+0.5*a"],
            ["transform", "union-decompose", "wp"],
            ["transform", "shears", "flat", "--height", "6", "--seed", "1"],
        ],
        ids=["gen-flat", "gen-sl2", "overshears", "union-decompose", "shears"],
    )
    def test_commands_build_no_lists(self, tmp_path, monkeypatch, argv):
        inputs = self._inputs(tmp_path)
        self._refuse_lists(monkeypatch)
        out = tmp_path / "out.json"
        assert run(*[inputs.get(a, a) for a in argv], "--out", str(out)) == 0
        data = out.read_bytes()
        doc, _ = cli._read_report(data)  # keeps "-0" tokens as -0.0
        assert data.decode() == _canonical_reference(doc)

    def test_save_sequence_writes_the_list_bytes(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(9)
        pts = rng.standard_normal((1500, 2)) + 1j * rng.standard_normal((1500, 2))
        pts[::4, 1] = complex(0.0, -0.0)
        d = DiscreteSequence(cn(2), pts, core.GeneratorInfo.of("demo", k=1500))
        want = _canonical_reference(d.to_json())
        self._refuse_lists(monkeypatch)
        path = tmp_path / "seq.json"
        core.save_sequence(d, path)
        assert path.read_text(encoding="utf-8") == want


class TestExitCodeContract:
    def test_argparse_failures_map_to_1(self):
        assert run("mc", "warp", "--seed", "0") == 1
        assert run() == 1

    def test_help_exits_0(self):
        assert run("--help") == 0

    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tamelab.cli", "gen", "diagtorus",
             "--k", "2", "--json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["family"] == "diagtorus"


@pytest.fixture
def collector():
    """Yields the collector state to set before a call; restores it after."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


class TestCollectorPause:
    """`cli.main` pauses the cyclic collector while a command runs and
    leaves it as the caller had it, however the command ends."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "argv, code, handled",
        [
            (["gen", "diagtorus", "--k", "3"], 0, True),
            (["report", "absent.json"], 1, True),
            (["--help"], 0, False),
            (["gen", "diagtorus", "--no-such-flag"], 1, False),
        ],
        ids=["success", "typed-error", "help", "bad-flag"],
    )
    def test_restored_on_every_exit(
        self, tmp_path, monkeypatch, collector, argv, code, handled, enabled
    ):
        monkeypatch.chdir(tmp_path)
        seen = []
        for name, real in list(cli._HANDLERS.items()):
            monkeypatch.setitem(
                cli._HANDLERS,
                name,
                lambda *a, real=real: seen.append(gc.isenabled()) or real(*a),
            )
        gc.enable() if enabled else gc.disable()
        assert run(*argv) == code
        assert gc.isenabled() is enabled
        assert seen == ([False] if handled else [])

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_restored_when_a_handler_raises(self, monkeypatch, collector, enabled):
        def boom(args, cfg):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._HANDLERS, "gen", boom)
        gc.enable() if enabled else gc.disable()
        with pytest.raises(RuntimeError, match="boom"):
            run("gen", "diagtorus")
        assert gc.isenabled() is enabled

    def test_a_command_leaves_no_cyclic_garbage(self, tmp_path, capsys):
        # anything a command left in a reference cycle would outlive it
        # whenever the caller's collector stays off
        sg = gen(tmp_path, "sl2-gauss", "--field", "qi", "--height", "1")
        moved = str(tmp_path / "moved.json")
        commands = [
            ["gen", "diagtorus", "--k", "5"],
            ["check", "pi-tame", sg],
            ["transform", "overshears", sg, "--lambda", "1+0.1*a", "--out", moved],
            ["mc", "g", "--samples", "100", "--seed", "0"],
            ["report", moved, "--json"],
        ]
        for argv in commands:
            run(*argv)  # warm-up: imports, caches and the parser
        for argv in commands:
            gc.collect()
            assert run(*argv) in (0, 2)
            assert gc.collect() == 0, argv


def test_fit_weights_last_one_command(tmp_path, monkeypatch):
    # the pipeline's two nonzero fits share one set of weights, which the
    # push takes from the clearance shift; both are evaluated only at their
    # nodes, so no run computes them, and the same command run again in
    # the process writes the same bytes
    sg = gen(tmp_path, "sl2-gauss", "--field", "qi", "--height", "1")
    real = cn_tame._log_weights
    nodes = []
    monkeypatch.setattr(cn_tame, "_log_weights", lambda xs: nodes.append(len(xs)) or real(xs))
    out = str(tmp_path / "moved.json")
    argv = ("transform", "sl2-pipeline", sg, "--max-fiber", "16", "--seed", "3", "--out", out)
    written = []
    for _ in range(2):
        assert run(*argv) == 0
        written.append(read_bytes(out))
    assert written[0] == written[1]
    assert nodes == []


def _pairs(values) -> list:
    return [[float(complex(z).real), float(complex(z).imag)] for z in values]


class TestValidationNamesThePoint:
    """A point that fails validation on load is named by its index in the
    error, which exits 1 without a traceback."""

    _EYE = [[1, 0], [0, 1]]

    @pytest.mark.parametrize(
        "criterion, ambient, n, points, message",
        [
            ("rr-series", "cn", 2, [[1, 0], [2, 0], [float("nan"), 0]],
             "point 2: point contains non-finite entries"),
            ("rr-series", "cn", 2, [[1, 0], [2, 0, 0], [3, 0]],
             "point 1: expected a vector of length 2"),
            ("punctured", "punctured-cn", 2, [[1, 0], [0, 0], [2, 0]],
             "point 1: the puncture (origin) is not a point of this space"),
            ("dp-classify", "disc-plane", 2, [[0.1, 0], [0.2, 1], [0.5, 0], [1.5, 0]],
             "point 3: |z| = 1.5 is not inside the unit disc"),
            ("wellplaced", "sln", 2, [_EYE, [[2, 0], [0, 1]], [[1, 1], [0, 1]]],
             "point 1: determinant 2+0j differs from 1 by 1 (allowed 2e-09)"),
            ("wellplaced", "sln", 2, [_EYE, [[1, 1], [0, 1]], [[1, float("inf")], [0, 1]]],
             "point 2: matrix contains non-finite entries"),
        ],
        ids=["non-finite", "vector-length", "puncture", "disc", "determinant",
             "non-finite-matrix"],
    )
    def test_exit_1_naming_the_point(self, tmp_path, capsys, criterion, ambient, n,
                                     points, message):
        pairs = [[_pairs(row) for row in p] if ambient == "sln" else _pairs(p)
                 for p in points]
        path = tmp_path / "bad.json"
        # json.dumps writes nan and inf as the NaN and Infinity that json reads
        path.write_text(json.dumps({"ambient": ambient, "n": n, "points": pairs}),
                        encoding="utf-8")
        capsys.readouterr()
        assert run("check", criterion, str(path)) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert "Traceback" not in err

    def test_non_finite_entries_are_typed_value_errors(self):
        with pytest.raises(NonFiniteEntries, match="^point 1: point contains") as info:
            DiscreteSequence(cn(1), [[1.0], [float("nan")]])
        assert isinstance(info.value, TamelabError) and isinstance(info.value, ValueError)
        # a lone value is not named by an index
        with pytest.raises(NonFiniteEntries, match="^matrix contains non-finite entries$"):
            core.sl_matrix([[1.0, float("nan")], [0.0, 1.0]])
        with pytest.raises(NonFiniteEntries, match="^point contains non-finite entries$"):
            core.as_point(cn(1), [float("inf")])


class TestMalformedDocuments:
    @pytest.mark.parametrize(
        "text, field",
        [
            ("[1, 2]", "JSON object"),
            ('{"ambient": "cn", "n": 1e400, "points": []}', "'n'"),
            ('{"ambient": "sln", "n": 2}', "'points'"),
        ],
    )
    def test_typed_error_names_the_field(self, tmp_path, capsys, text, field):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        assert run("check", "wellplaced", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "ambient, n",
        [("sln", 10**400), ("cn", 2**63), ("sln", 3037000500), ("sln", 759250125)],
        ids=["sln-401-digits", "cn-past-intp", "sln-square-past-intp", "sln-bytes-past-intp"],
    )
    def test_dimension_numpy_cannot_shape_is_malformed(self, tmp_path, capsys, ambient, n):
        path = tmp_path / "huge.json"
        path.write_text(f'{{"ambient": "{ambient}", "n": {n}, "points": []}}', encoding="utf-8")
        assert run("check", "wellplaced", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'n'" in err
        assert "Traceback" not in err
        with pytest.raises(MalformedDocument, match="'n'"):
            DiscreteSequence.from_json({"ambient": ambient, "n": n, "points": []})

    def test_largest_shapeable_dimension_still_reads(self):
        seq = DiscreteSequence.from_json({"ambient": "sln", "n": 759250124, "points": []})
        assert len(seq) == 0

    @pytest.mark.parametrize(
        "doc",
        [
            {"ambient": 2, "n": 2, "points": []},
            {"ambient": "cn", "n": "2", "points": []},
            {"ambient": "cn", "n": True, "points": []},
            {"ambient": "cn", "n": 2, "points": {}},
            {"ambient": "cn", "n": 2, "points": [], "generator": {"params": {}}},
            {"ambient": "cn", "n": 2, "points": [], "generator": []},
        ],
    )
    def test_loader_raises_malformed_document(self, doc):
        with pytest.raises(MalformedDocument):
            DiscreteSequence.from_json(doc)

    def test_integral_float_dimension_still_reads(self):
        seq = DiscreteSequence.from_json({"ambient": "cn", "n": 2.0, "points": []})
        assert seq.ambient == cn(2)

    def test_duplicate_points_are_typed_and_exit_1(self, tmp_path, capsys):
        doc = {"ambient": "cn", "n": 1, "points": [[[1.0, 0.0]], [[2.0, 0.0]], [[1.0, -0.0]]]}
        with pytest.raises(DuplicatePoints, match="points 0 and 2 coincide"):
            DiscreteSequence.from_json(doc)
        path = tmp_path / "twice.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run("check", "rr-series", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: points 0 and 2 coincide") and "Traceback" not in err


# (gen argv, commands that read its ambient); every prefix has 6 points
_MUTATION_SOURCES = (
    (("cn-powers", "--n", "2"),
     (("check", "rr-series"), ("transform", "shears", "--height", "9", "--seed", "1"))),
    (("wellplaced2",),
     (("check", "wellplaced"), ("check", "pi-tame"), ("transform", "overshears"),
      ("transform", "bundle-push", "--height", "5", "--seed", "0"),
      ("transform", "sl2-pipeline", "--seed", "0"))),
    (("discplane-base", "--mode", "interior"), (("check", "dp-classify"),)),
)
_HUGE = "<1e400>"  # written out as the literal 1e400, which json reads as inf
_MUTANTS = (None, True, False, "x", [], [1.5, -2], _HUGE, *core.AMBIENT_KINDS)


def _paths(node, prefix=()):
    """Every path below `node`, as tuples of dict keys and list indices."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@pytest.fixture(scope="module")
def mutation_bases(tmp_path_factory):
    home = tmp_path_factory.mktemp("mutations")
    bases = []
    for i, (family, commands) in enumerate(_MUTATION_SOURCES):
        out = str(home / f"base{i}.json")
        assert run("gen", *family, "--k", "6", "--out", out) == 0
        bases.append((load(out), commands))
    return home, bases


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_mutated_document_exits_cleanly(mutation_bases, data):
    home, bases = mutation_bases
    doc, commands = data.draw(st.sampled_from(bases))
    doc = copy.deepcopy(doc)
    kind = data.draw(st.sampled_from(["replace", "delete", "duplicate"]))
    paths = [p for p in _paths(doc)
             if kind == "replace" or isinstance(p[-1], str) == (kind == "delete")]
    *head, last = data.draw(st.sampled_from(paths))
    parent = doc
    for key in head:
        parent = parent[key]
    if kind == "replace":
        parent[last] = copy.deepcopy(data.draw(st.sampled_from(_MUTANTS)))
    elif kind == "delete":
        del parent[last]
    else:
        parent.insert(last, copy.deepcopy(parent[last]))
    path = home / "mutant.json"
    path.write_text(json.dumps(doc).replace(json.dumps(_HUGE), "1e400"), encoding="utf-8")
    command = data.draw(st.sampled_from(commands))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(*command[:2], str(path), *command[2:], "--out", str(home / "out.json"))
    assert code in (0, 1, 2)
    if code == 1:
        assert any(line.startswith("error: ") for line in err.getvalue().splitlines())
        for leak in ("could not convert string to float", "setting an array element"):
            assert leak not in err.getvalue()


class TestReportKeepsNegativeZero:
    def test_negative_zero_entries_come_back_byte_identical(self, tmp_path):
        pts = (np.array([[1.0, -0.0], [-0.0, 1.0]], dtype=complex),
               np.array([[1.0, 0.0], [2.0, 1.0]], dtype=complex))
        pts[0][0, 1] = complex(-0.0, -0.0)
        doc = {"sequence": DiscreteSequence(sln(2), pts).to_json(),
               "extra": {"x": -0.0, "seed": 2**64 - 1, "n": -3, "big": 10**30}}
        text = cli.canonical_json(doc)
        assert text.count(" -0,") + text.count(" -0\n") == 4
        src, out = tmp_path / "in.json", tmp_path / "out.json"
        src.write_text(text, encoding="utf-8")
        assert run("report", str(src), "--out", str(out)) == 0
        assert out.read_bytes() == src.read_bytes()

    def test_other_integers_stay_integers(self):
        assert core._parse_int("-0") == 0.0 and str(core._parse_int("-0")) == "-0.0"
        assert core._parse_int("-01") == -1 and isinstance(core._parse_int("0"), int)
        assert core._NEG_ZERO.search('{"a": 1e-05, "b": -0.5}') is None
        assert core._NEG_ZERO.search('[1, -0]') is not None


class TestGaussHeightCap:
    @pytest.mark.parametrize("field, cap", [("qi", 6), ("q3", 6), ("q", 120)])
    def test_one_past_the_cap_is_refused(self, tmp_path, capsys, field, cap):
        out = tmp_path / "g.json"
        assert run("gen", "sl2-gauss", "--field", field, "--height", str(cap + 1),
                   "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err == f"error: height must be an integer in [1, {cap}], got {cap + 1}\n"
        assert not out.exists()


class TestGaussFieldSpelling:
    @pytest.mark.parametrize("field", ["Q(sqrt-1)", "Q(sqrt-02)", "Q(sqrt-+3)", "Q(sqrt-5)",
                                       "q(i)", "Q(sqrt-x)"])
    def test_other_spellings_are_unsupported(self, tmp_path, capsys, field):
        out = tmp_path / "g.json"
        assert run("gen", "sl2-gauss", "--field", field, "--height", "1",
                   "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: field {field!r} is not in the supported list\n"
        assert not out.exists()

    @pytest.mark.parametrize("tag, alias", [("Q", "q"), ("Q(i)", "qi"), ("Q(sqrt-2)", "q2"),
                                            ("Q(sqrt-3)", "q3"), ("Q(sqrt-7)", "q7"),
                                            ("Q(sqrt-11)", "q11")])
    def test_each_ring_writes_one_record(self, tmp_path, tag, alias):
        paths = [gen(tmp_path, "sl2-gauss", "--field", name, "--height", "1")
                 for name in (tag, alias, alias.upper())]
        docs = [load(path)["sequence"] for path in paths]
        assert docs[0]["generator"] == {"family": "sl2-gauss",
                                        "params": {"field": tag, "height_bound": 1}}
        assert docs[1] == docs[0] and docs[2] == docs[0]


class TestDiscBoundaryCap:
    def test_53_points_fit_inside_the_disc(self, tmp_path):
        out = str(tmp_path / "b53.json")
        assert run("gen", "discplane-base", "--mode", "boundary", "--k", "53",
                   "--out", out) == 0
        assert len(load(out)["sequence"]["points"]) == 53

    def test_54_points_are_refused(self, tmp_path, capsys):
        out = tmp_path / "b54.json"
        assert run("gen", "discplane-base", "--mode", "boundary", "--k", "54",
                   "--out", str(out)) == 1
        assert "at most 53 points" in capsys.readouterr().err
        assert not out.exists()


def _write_seq(path, points) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cli.canonical_json(DiscreteSequence(sln(2), tuple(points)).to_json()))
    return str(path)


def _drifts(doc: dict) -> np.ndarray:
    return np.abs(np.linalg.det(DiscreteSequence.from_json(doc["sequence"]).array) - 1.0)


def _drift_ratios(doc: dict) -> tuple[np.ndarray, np.ndarray]:
    """Each output point's determinant drift and its drift per unit of
    det_tol: the drift over the point's column-norm scale."""
    scales = core.det_tolerance(DiscreteSequence.from_json(doc["sequence"]).array, 1.0)
    drifts = _drifts(doc)
    return drifts, drifts / scales


def _split_tolerance(ratios: np.ndarray) -> float:
    """A det_tol halfway between the two middle drift ratios."""
    r = np.sort(ratios)
    return float(0.5 * (r[len(r) // 2 - 1] + r[len(r) // 2]))


def _drift_detail(doc: dict, want: list, tol: float) -> str:
    drifts, ratios = _drift_ratios(doc)
    k = max(want, key=lambda i: ratios[i])
    allowed = core.det_tolerance(DiscreteSequence.from_json(doc["sequence"]).array[k], tol)
    return (f"determinant drift {drifts[k]:.3g} at point {k} exceeds {allowed:.3g}, "
            f"det_tol {tol:g} scaled by its column norms")


class TestWitnesses:
    """A violated postcondition names the input points that witness it."""

    def test_overshear_drift_names_every_point_above_det_tol(self, tmp_path):
        pts = [np.eye(2, dtype=complex)]
        for k in range(1, 8):
            a, b, c = (k + 0.3) * (1 + 0.5j), 3.7 * k - 1j, 2.1j * k
            pts.append(np.array([[a, c], [b, (1 + b * c) / a]]))
        path = _write_seq(tmp_path / "in.json", pts)
        out = str(tmp_path / "ov.json")
        argv = ["transform", "overshears", path, "--factor", "1+0.5*a", "--out", out]
        assert run(*argv) == 0
        moved = load(out)
        drifts, ratios = _drift_ratios(moved)
        assert drifts[0] == 0.0
        tol = _split_tolerance(ratios[1:])
        cfg = tmp_path / "tol.cfg"
        cfg.write_text(f"det_tol = {tol!r}\n", encoding="utf-8")
        assert run(*argv, "--config", str(cfg)) == 2
        post = load(out)["postcondition"]
        want = [i for i, x in enumerate(ratios) if x > tol]
        assert post["witness"] == want and want[0] > 0
        assert post["detail"] == _drift_detail(moved, want, tol)

    def test_sl2_pipeline_names_drifting_outputs(self, tmp_path):
        path = gen(tmp_path, "sl2-gauss", "--field", "qi", "--height", "1")
        out = str(tmp_path / "pipe.json")
        argv = ["transform", "sl2-pipeline", path, "--seed", "1",
                "--max-fiber", "16", "--out", out]
        assert run(*argv) == 0
        moved = load(out)
        _, ratios = _drift_ratios(moved)
        tol = _split_tolerance(ratios)
        cfg = tmp_path / "tol.cfg"
        cfg.write_text(f"det_tol = {tol!r}\n", encoding="utf-8")
        assert run(*argv, "--config", str(cfg)) == 2
        post = load(out)["postcondition"]
        want = [i for i, x in enumerate(ratios) if x > tol]
        assert post["witness"] == want and want
        assert post["detail"] == _drift_detail(moved, want, tol)

    @staticmethod
    def _patch_overshear(monkeypatch, change):
        """`transform overshears` with `change` applied to its moved stack."""
        apply_batch = sl2_special.OvershearAut.apply_batch

        def changed(self, ps):
            out = apply_batch(self, ps)
            change(out)
            return out

        monkeypatch.setattr(sl2_special.OvershearAut, "apply_batch", changed)

    def test_a_drifting_output_is_violated_at_the_run_det_tol(self, tmp_path, monkeypatch):
        path = gen(tmp_path, "sl2-gauss", "--field", "qi", "--height", "1")

        def drift(out):
            out[3, 0] *= 1.0 + 1e-6  # the determinant of point 3 drifts by 1e-6

        self._patch_overshear(monkeypatch, drift)
        out = str(tmp_path / "ov.json")
        argv = ["transform", "overshears", path, "--factor", "1+0.5*a", "--out", out]
        assert run(*argv) == 2
        doc = load(out)
        assert doc["postcondition"]["witness"] == [3]
        assert "at point 3 exceeds" in doc["postcondition"]["detail"]
        assert doc["det_drift"] == pytest.approx(1e-6, rel=1e-3)
        cfg = tmp_path / "loose.cfg"
        cfg.write_text("det_tol = 1e-3\n", encoding="utf-8")
        assert run(*argv, "--config", str(cfg)) == 0
        assert load(out)["postcondition"]["state"] == "consistent-up-to-prefix"

    @pytest.mark.parametrize(
        "case, message",
        [("nan", "error: point 3: matrix contains non-finite entries\n"),
         ("repeat", "error: points 2 and 3 coincide; prefixes must be pairwise distinct\n")],
        ids=["nan", "repeat"],
    )
    def test_a_bad_output_raises_as_on_load(self, tmp_path, monkeypatch, capsys, case, message):
        path = gen(tmp_path, "sl2-gauss", "--field", "qi", "--height", "1")

        def spoil(out):
            out[3] = np.nan if case == "nan" else out[2]

        self._patch_overshear(monkeypatch, spoil)
        capsys.readouterr()
        out = tmp_path / "ov.json"
        assert run("transform", "overshears", path, "--factor", "1+0.5*a", "--out", str(out)) == 1
        assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize("case, code, witness", [("dominance", 2, [3])])
    def test_union_split_names_input_points(self, tmp_path, monkeypatch, case, code, witness):
        pts = [np.diag([2.0, 0.5]), np.diag([0.5, 2.0]),
               np.array([[1.0, 1.0], [0.0, 1.0]]), np.diag([3.0, 1 / 3])]
        path = _write_seq(tmp_path / "in.json", [p.astype(complex) for p in pts])
        owner = cli.union_owners(DiscreteSequence.from_json(load(path)))
        assert owner.tolist() == [0, 1, 1, 0]
        # a wrong split: point 3 goes to the column it does not dominate
        monkeypatch.setattr(cli, "union_owners", lambda d: np.array([0, 1, 1, 1]))
        out = str(tmp_path / "parts.json")
        assert run("transform", "union-decompose", path, "--out", out) == code
        assert load(out)["postcondition"]["witness"] == witness


def _spelling_inputs(tmp_path) -> dict:
    """Per canonical name: the input files and flags one run needs."""
    wp = gen(tmp_path, "wellplaced2", "--k", "8")
    wp1 = gen(tmp_path, "wellplaced2", "--k", "8", "--p", "1")
    sg = gen(tmp_path, "sl2-gauss", "--field", "qi", "--height", "1")
    cs = [np.diag([float(k), 1.0 / k]).astype(complex) for k in range(1, 6)]
    ds = [c @ np.array([[1.0, float(k)], [0.0, 1.0]]) for k, c in enumerate(cs, 1)]
    ceq, deq = _write_seq(tmp_path / "c.json", cs), _write_seq(tmp_path / "d.json", ds)
    return {
        "wellplaced": [wp],
        "shears": [gen(tmp_path, "cn-powers", "--n", "2", "--k", "6"),
                   "--height", "9", "--seed", "1"],
        "overshears": [sg, "--factor", "1+0.5*a"],
        "union-decompose": [wp],
        "align": [wp, "--seq2", wp1],
        "equivalence": [ceq, "--seq2", deq, "--seed", "0"],
        "sl2-pipeline": [sg, "--seed", "3", "--max-fiber", "16"],
    }


def _spellings() -> list:
    cases = [("check", name, alias) for name, move in cli._CHECKS.items()
             for alias in move.aliases]
    cases += [("transform", name, alias) for name, move in cli._TRANSFORMS.items()
              for alias in move.aliases]
    return cases


@pytest.mark.parametrize("command, name, alias", _spellings())
def test_alias_writes_the_canonical_bytes(tmp_path, command, name, alias):
    rest = _spelling_inputs(tmp_path)[name]
    out = str(tmp_path / "out.json")
    assert run(command, name, *rest, "--out", out) == 0
    canonical = read_bytes(out)
    assert run(command, alias, *rest, "--out", out) == 0
    assert read_bytes(out) == canonical


@pytest.mark.parametrize(
    "name, value", [("overshears", "1+0.5*a"), ("lambda-rescale", "2")]
)
def test_lambda_flag_writes_the_factor_bytes(tmp_path, name, value):
    path = gen(tmp_path, "sl2-gauss" if name == "overshears" else "wellplaced2",
               *(("--field", "qi", "--height", "1") if name == "overshears" else ()))
    out = str(tmp_path / "out.json")
    assert run("transform", name, path, "--factor", value, "--out", out) == 0
    canonical = read_bytes(out)
    assert run("transform", name, path, "--lambda", value, "--out", out) == 0
    assert read_bytes(out) == canonical


# values every numeric option is fuzzed with
HOSTILE = ("nan", "inf", "-1", "0", "1e400", "abc", "", "3.5", "9" * 22)

# (command, flag, value) never run: each starts work that grows with the value
LONG_RUNS = {
    ("mc", "--samples", "9" * 22): "10^22 Haar draws: --samples is unbounded and costs "
    "time linearly (README)",
}


def _numeric_options() -> set:
    """(command, flag) of every option of `cli.build_parser()` whose type
    is int or float."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        (name, action.option_strings[0])
        for name, sub in commands.choices.items()
        for action in sub._actions
        if action.type in (int, float)
    }


def _fuzz_bases(files: dict) -> dict:
    """Per numeric option, a minimal valid command that reads it; the
    fuzzed value comes last, and argparse keeps the last one given."""
    flat = ["gen", "cn-powers", "--n", "2", "--k", "6"]
    shears = ["transform", "shears", files["flat"], "--height", "9", "--seed", "1"]
    g = ["mc", "g", "--r", "1", "--probes", "2", "--samples", "16", "--seed", "0"]
    return {
        ("gen", "--seed"): flat,
        ("gen", "--k"): flat,
        ("gen", "--n"): flat,
        ("gen", "--alpha"): flat,
        ("gen", "--p"): ["gen", "wellplaced2", "--k", "4", "--p", "2"],
        ("gen", "--ratio"): ["gen", "diagtorus", "--k", "6", "--ratio", "2"],
        ("gen", "--height"): ["gen", "sl2-gauss", "--field", "qi", "--height", "1"],
        ("check", "--seed"): ["check", "pi-tame", files["wp"]],
        ("check", "--max-fiber"): ["check", "pi-tame", files["wp"]],
        ("transform", "--seed"): shears,
        ("transform", "--height"): shears,
        ("transform", "--tries"): ["transform", "center-separate", files["sg"], "--seed", "1"],
        ("transform", "--max-fiber"): ["transform", "sl2-pipeline", files["sg"], "--seed", "3",
                                       "--max-fiber", "16"],
        ("mc", "--seed"): g,
        ("mc", "--r"): g,
        ("mc", "--samples"): g,
        ("mc", "--probes"): g,
        ("mc", "--levels"): ["mc", "threshold", "--levels", "2", "--probes", "2",
                             "--samples", "16", "--seed", "0"],
        ("mc", "--max-fiber"): ["mc", "omega", "--seq", files["sg"], "--samples", "4",
                                "--seed", "0"],
        ("report", "--seed"): ["report", files["flat"]],
    }


class TestFlagFuzz:
    """Every numeric option, with hostile values, on a minimal valid
    command: exit 0, 1 or 2, never a traceback, and every exit 1 either
    argparse's rejection of the value or a `TamelabError`."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory) -> dict:
        tmp = tmp_path_factory.mktemp("fuzz")
        return {
            "flat": gen(tmp, "cn-powers", "--n", "2", "--k", "6"),
            "wp": gen(tmp, "wellplaced2", "--k", "8"),
            "sg": gen(tmp, "sl2-gauss", "--field", "qi", "--height", "1"),
        }

    def test_every_numeric_option_has_a_command(self, files):
        assert set(_fuzz_bases(files)) == _numeric_options()
        assert {key[:2] for key in LONG_RUNS} <= _numeric_options()

    @pytest.mark.parametrize("command, flag", sorted(_numeric_options()))
    def test_hostile_values_end_cleanly(self, files, tmp_path, monkeypatch, capsys,
                                        command, flag):
        raised = []

        def recording(fn):
            def run_recorded(*args):
                try:
                    return fn(*args)
                except Exception as exc:
                    raised.append(exc)
                    raise
            return run_recorded

        monkeypatch.setattr(cli, "_resolve_config", recording(cli._resolve_config))
        monkeypatch.setattr(
            cli, "_HANDLERS", {name: recording(fn) for name, fn in cli._HANDLERS.items()}
        )
        base = [*_fuzz_bases(files)[(command, flag)], "--out", str(tmp_path / "out.json")]
        assert run(*base) == 0
        for value in HOSTILE:
            if (command, flag, value) in LONG_RUNS:
                continue
            raised.clear()
            code = run(*base, flag, value)
            assert code in (0, 1, 2), (flag, value, code)
            if code == 1 and not raised:
                # argparse rejected the value before any command ran
                with pytest.raises(SystemExit):
                    cli.build_parser().parse_args([*base, flag, value])
            elif code == 1:
                assert isinstance(raised[-1], TamelabError), (flag, value, raised[-1])
        capsys.readouterr()


class TestProbeCap:
    """`--probes` are drawn at once, so a count past the cap is refused
    before any draw; an uncapped draw of 10^8 probes would take 6.4 GB."""

    @pytest.mark.parametrize("count", [generic_projection.MAX_PROBES + 1, 10**8])
    @pytest.mark.parametrize("argv", [
        ("mc", "g", "--r", "1", "--samples", "16", "--seed", "0"),
        ("mc", "threshold", "--levels", "2", "--samples", "16", "--seed", "0"),
    ], ids=["g", "threshold"])
    def test_a_count_past_the_cap_exits_before_any_draw(self, tmp_path, monkeypatch, capsys,
                                                        argv, count):
        def no_draw(*args):
            raise AssertionError("probes were drawn")

        monkeypatch.setattr(generic_projection, "stream", no_draw)
        code, raised, err = _typed_run(monkeypatch, capsys, *argv, "--probes", str(count),
                                       "--out", str(tmp_path / "o.json"))
        assert code == 1 and raised is BadParams, err
        assert f"error: {count} probes exceed the cap of 1048576" in err

    def test_a_count_at_the_cap_reaches_the_draw(self, monkeypatch):
        class Drawn(Exception):
            pass

        def draw(*args):
            raise Drawn

        monkeypatch.setattr(generic_projection, "stream", draw)
        with pytest.raises(Drawn):
            generic_projection._unit_probes(0, generic_projection.MAX_PROBES)


def _typed_run(monkeypatch, capsys, *argv: str):
    """The exit code of a command, the type of the error it ended in (None
    if it ended in none) and what it wrote to stderr."""
    seen = []
    inner = cli._HANDLERS[argv[0]]

    def spy(args, cfg):
        try:
            return inner(args, cfg)
        except Exception as exc:
            seen.append(type(exc))
            raise

    monkeypatch.setitem(cli._HANDLERS, argv[0], spy)
    capsys.readouterr()
    code = run(*argv)
    return code, (seen or [None])[0], capsys.readouterr().err


def _save(path, points, n: int = 2) -> str:
    core.save_sequence(DiscreteSequence(sln(n), tuple(points)), str(path))
    return str(path)


def _twisted_pair(count: int) -> tuple[list, list]:
    """Diagonal c_k and d_k = c_k [[1, k], [0, 1]], one fiber factor apart."""
    cs = [np.diag([float(k), 1.0 / k]).astype(complex) for k in range(1, count + 1)]
    ds = [c @ np.array([[1.0, float(k)], [0.0, 1.0]]) for k, c in enumerate(cs, 1)]
    return cs, ds


class TestTypedMoveFailures:
    """An empty prefix, prefixes of unequal length, points in different
    fibers and a factor without a principal logarithm each end in exit 1
    with their own error type, named in the message, and no traceback."""

    def _fails(self, monkeypatch, capsys, argv, error, named):
        code, raised, err = _typed_run(monkeypatch, capsys, *argv)
        assert code == 1 and raised is error, err
        assert err.startswith("error: ") and named in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [("check", "one-param"), ("transform", "torus-embed")])
    def test_an_empty_diagonal_prefix_is_inconclusive(self, tmp_path, monkeypatch, capsys, argv):
        path = tmp_path / "empty.json"
        path.write_text('{"ambient": "sln", "n": 2, "points": []}', encoding="utf-8")
        self._fails(monkeypatch, capsys, (*argv, str(path), "--out", str(tmp_path / "o")),
                    InconclusivePrefix, "need at least one diagonal matrix")

    @pytest.mark.parametrize("argv, named", [
        (("check", "pi-tame"), "properness needs a nonempty image list"),
        (("mc", "omega", "--samples", "4", "--seed", "0", "--seq"),
         "the omega fraction needs a nonempty prefix"),
    ], ids=["pi-tame", "omega"])
    def test_an_empty_prefix_has_no_properness_verdict(self, tmp_path, monkeypatch, capsys,
                                                        argv, named):
        path = tmp_path / "empty.json"
        path.write_text('{"ambient": "sln", "n": 2, "points": []}', encoding="utf-8")
        self._fails(monkeypatch, capsys, (*argv, str(path), "--out", str(tmp_path / "o")),
                    InconclusivePrefix, named)

    def test_an_equivalence_of_empty_prefixes_is_inconclusive(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "empty.json"
        path.write_text('{"ambient": "sln", "n": 2, "points": []}', encoding="utf-8")
        argv = ("transform", "equivalence", str(path), "--seq2", str(path), "--seed", "0",
                "--out", str(tmp_path / "o"))
        self._fails(monkeypatch, capsys, argv, InconclusivePrefix,
                    "equivalence needs at least one point")

    def test_an_alignment_of_unequal_lengths_names_both(self, tmp_path, monkeypatch, capsys):
        argv = ("transform", "align", gen(tmp_path, "wellplaced2", "--k", "8"),
                "--seq2", gen(tmp_path, "wellplaced2", "--k", "9", "--p", "1"),
                "--out", str(tmp_path / "o"))
        self._fails(monkeypatch, capsys, argv, BadParams,
                    "alignment needs equal prefix lengths, got 8 and 9")

    def test_an_equivalence_of_unequal_lengths_names_both(self, tmp_path, monkeypatch, capsys):
        cs, ds = _twisted_pair(9)
        argv = ("transform", "equivalence", _save(tmp_path / "c.json", cs[:8]),
                "--seq2", _save(tmp_path / "d.json", ds), "--seed", "0",
                "--out", str(tmp_path / "o"))
        self._fails(monkeypatch, capsys, argv, BadParams,
                    "equivalence needs equal prefix lengths, got 8 and 9")

    def test_first_columns_that_differ_name_the_first_point(self, tmp_path, monkeypatch, capsys):
        cs, ds = _twisted_pair(8)
        for k in (5, 6):
            ds[k] = ds[k] @ np.array([[1.0, 0.0], [1e-6, 1.0]])
        argv = ("transform", "equivalence", _save(tmp_path / "c.json", cs),
                "--seq2", _save(tmp_path / "d.json", ds), "--seed", "0",
                "--out", str(tmp_path / "o"))
        self._fails(monkeypatch, capsys, argv, NotSameFiber, "at point 5")

    def test_a_defective_lower_block_names_its_node(self, tmp_path, monkeypatch, capsys):
        # powers of two, so the factor at node 4 is exactly a Jordan block
        cs = [np.diag([2.0**k, 1.0, 2.0**-k]) for k in range(1, 9)]
        qs = [np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])] * 8
        qs[4] = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
        ds = [c @ q for c, q in zip(cs, qs)]
        argv = ("transform", "equivalence", _save(tmp_path / "c.json", cs, 3),
                "--seq2", _save(tmp_path / "d.json", ds, 3), "--seed", "0",
                "--out", str(tmp_path / "o"))
        self._fails(monkeypatch, capsys, argv, DegenerateConfiguration,
                    "the lower block at node 4 is defective")
