"""The points block reader against the plain json path.

`core._read_json` reads a document's bytes. It reads every points block
laid out as the emitter lays it out straight into a float64 array, and
keeps the array only when the emitter writes it back as the block's own
bytes; only the rest is decoded for json. Everything here checks that
this changes nothing a user sees: the documents (bit for bit, as uint64
views), the bytes `report` writes, exit codes, and error types, messages
and positions all equal those of the json path, which parsed the whole
text with "-0" read as -0.0, and the files of `report` and
`load_sequence` equal what that path made of their text-mode reads.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import math
import re
import struct

import numpy as np
import pytest

from tamelab import cli, core
from tamelab.core import DiscreteSequence, canonical_json, sequence_document

from test_source import SOURCES, _callers

_NEG_ZERO = re.compile(r"-0(?![\d.eE])")


def _json_path(text: str):
    """The reader before points blocks were read as arrays: json on the
    whole text, with "-0" read as -0.0 once the text holds one."""
    parse_int = None
    if _NEG_ZERO.search(text):
        parse_int = lambda t: -0.0 if t == "-0" else int(t)  # noqa: E731
    return json.loads(text, parse_int=parse_int)


def _same(new, ref) -> bool:
    """Equal documents: an array equals the nested lists of numbers it
    stands for, as uint64 views; floats compare by their bits, and every
    other value by type and value."""
    if isinstance(new, np.ndarray):
        if not isinstance(ref, list):
            return False
        want = np.array(ref, dtype=np.float64)
        return new.shape == want.shape and np.array_equal(
            new.view(np.uint64), want.view(np.uint64)
        )
    if type(new) is not type(ref):
        return False
    if isinstance(new, dict):
        return list(new) == list(ref) and all(_same(new[k], ref[k]) for k in new)
    if isinstance(new, list):
        return len(new) == len(ref) and all(map(_same, new, ref))
    if isinstance(new, float):
        return struct.pack("<d", new) == struct.pack("<d", ref)
    return new == ref


def _outcome(fn):
    """What `fn()` returns, or the type, message and position of what it
    raises."""
    try:
        return "ok", fn()
    except Exception as exc:  # every failure is compared, not only typed ones
        where = (exc.lineno, exc.colno, exc.pos) if isinstance(exc, json.JSONDecodeError) else ()
        return "raised", (type(exc), str(exc), where)


def _run(*argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, err.getvalue()


def _text_mode(path) -> str:
    """A file's text as `report` and `load_sequence` read it before they
    read bytes: strict UTF-8, universal newlines."""
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _agree_bytes(data: bytes):
    """Checks the reader on `data` against the json path on its strict
    UTF-8 decoding; returns the json path's outcome."""
    new = _outcome(lambda: core._read_json(data))
    ref = _outcome(lambda: _json_path(data.decode("utf-8")))
    assert new[0] == ref[0], (new, ref)
    if ref[0] == "ok":
        assert _same(new[1], ref[1])
    else:
        assert new[1] == ref[1]
    return ref


def _agree(tmp_path, text: str | bytes) -> int:
    """Checks the reader on the bytes of `text` against the json path, and
    `report` and `load_sequence` on a file of those bytes against the json
    path on the file's text-mode read. Returns how many blocks the reader
    read as arrays."""
    data = text.encode() if isinstance(text, str) else text
    _agree_bytes(data)
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    ref = _outcome(lambda: _json_path(_text_mode(path)))
    out = tmp_path / "report.json"
    out.unlink(missing_ok=True)
    code, err = _run("report", str(path), "--out", str(out))
    want = _outcome(lambda: canonical_json(ref[1])) if ref[0] == "ok" else ref
    if want[0] == "ok":
        violated = '"state": "violated"' in want[1]
        assert (code, err) == (2 if violated else 0, "")
        assert out.read_bytes() == want[1].encode()
    else:
        assert (code, err) == (1, f"error: {want[1][1]}\n")
        assert not out.exists()
    got = _outcome(lambda: core.load_sequence(path).array)
    if ref[0] == "ok" and isinstance(ref[1], dict) and "points" in ref[1]:
        base = _outcome(lambda: DiscreteSequence.from_json(ref[1]).array)
        assert got[0] == base[0], (got, base)
        if got[0] == "ok":
            assert np.array_equal(got[1].view(np.uint64), base[1].view(np.uint64))
        else:
            assert got[1] == base[1]
    elif ref[0] == "raised":
        assert got == ref
    return len(core._points_blocks(data))


def _layout(value, indent: int = 0) -> str:
    """The emitter's layout of nested dicts and lists whose leaves are
    token strings, written verbatim."""
    pad = "\n" + "  " * (indent + 1)
    if isinstance(value, dict):
        items = [json.dumps(k) + ": " + _layout(v, indent + 1) for k, v in value.items()]
    elif isinstance(value, list):
        items = [_layout(v, indent + 1) for v in value]
    else:
        return value
    if not items:
        return "[]" if isinstance(value, list) else "{}"
    close = "\n" + "  " * indent + ("}" if isinstance(value, dict) else "]")
    return ("{" if isinstance(value, dict) else "[") + pad + ("," + pad).join(items) + close


def _tokens(arr: np.ndarray):
    """The nested lists of '%.17g' tokens of a float64 array."""
    return np.vectorize(lambda v: "%.17g" % v, otypes=[object])(arr).tolist()


def _doc(points, n: int = 2) -> dict:
    return {"command": '"gen"', "config": {"seed": "null"},
            "sequence": {"ambient": '"cn"', "n": str(n), "points": points}}


def _text(points, n: int = 2) -> str:
    return _layout(_doc(points, n)) + "\n"


@pytest.fixture
def rng():
    return np.random.default_rng(31)


def test_the_layout_is_the_emitters(rng):
    arr = rng.standard_normal((5, 2, 2))
    doc = {"command": "gen", "config": {"seed": None},
           "sequence": {"ambient": "cn", "n": 2, "points": arr}}
    assert _text(_tokens(arr)) == canonical_json(doc)


class TestValues:
    def test_signed_zeros_subnormals_and_ints_around_2_53(self, tmp_path):
        big = float(2**53)
        values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.0, -7.0,
                  big - 1, big, -big, 1.7976931348623157e308, 1e16, 123456789012345.0]
        arr = np.array(values * 2).reshape(-1, 1, 2)
        assert _agree(tmp_path, _text(_tokens(arr), n=1)) == 1
        got = core._read_json(_text(_tokens(arr), n=1).encode())["sequence"]["points"]
        assert np.array_equal(got.view(np.uint64), arr.view(np.uint64))
        assert not got.flags.writeable

    @pytest.mark.parametrize("token", [str(2**53 + 1), str(-(2**53 + 1)), str(2**60),
                                       "12345678901234567", str(10**400)])
    def test_ints_past_2_53_go_through_json(self, tmp_path, token):
        tokens = _tokens(np.zeros((3, 2, 2)))
        tokens[1][0][1] = token
        assert _agree(tmp_path, _text(tokens)) == 0

    def test_random_doubles_of_every_exponent(self, tmp_path, rng):
        bits = rng.integers(0, 2**64, 20_000, dtype=np.uint64, endpoint=False)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)][:10_000]
        arr = values.reshape(-1, 1, 2)
        assert _agree(tmp_path, _text(_tokens(arr), n=1)) == 1

    def test_random_17_digit_tokens(self, tmp_path, rng):
        # written by hand: a token need not be the one '%.17g' prints for
        # its value, and such a block is left to json
        digits = rng.integers(0, 10, (10_000, 17))
        exps = rng.integers(-300, 300, 10_000)
        tokens = [f"{d[0]}.{''.join(map(str, d[1:]))}e{e:+03d}" for d, e in zip(digits, exps)]
        shaped = [[tokens[i : i + 2]] for i in range(0, len(tokens), 2)]
        assert _agree(tmp_path, _text(shaped, n=1)) == 0
        canonical = ["%.17g" % float(t) for t in tokens]
        shaped = [[canonical[i : i + 2]] for i in range(0, len(canonical), 2)]
        assert _agree(tmp_path, _text(shaped, n=1)) == 1


class TestTokens:
    @pytest.mark.parametrize("token", ["1.0", "1e5", "1E5", "-0.0", "0.50", "+1", "01",
                                       ".5", "NaN", "Infinity", "-Infinity", "1e999",
                                       '"1"', "true", "null", "[]", "[1, 2]"])
    def test_one_token_sends_the_block_to_json(self, tmp_path, rng, token):
        tokens = _tokens(rng.standard_normal((2000, 2, 2)))
        tokens[1500][1][0] = token
        assert _agree(tmp_path, _text(tokens)) == 0

    def test_a_ragged_block(self, tmp_path, rng):
        tokens = _tokens(rng.standard_normal((30, 2, 2)))
        tokens[7].append(["1", "2"])
        assert _agree(tmp_path, _text(tokens)) == 0
        tokens = _tokens(rng.standard_normal((30, 2, 2)))
        tokens[0][1].append("3")
        assert _agree(tmp_path, _text(tokens)) == 0

    @pytest.mark.parametrize("shape", [(40,), (40, 3), (40, 2, 3), (40, 2, 2, 2), (1, 1, 2)])
    def test_blocks_of_other_shapes(self, tmp_path, rng, shape):
        # read as arrays, with `load_sequence`'s messages for those that are
        # not points of C^2
        assert _agree(tmp_path, _text(_tokens(rng.standard_normal(shape)))) == 1


class TestLayout:
    def _text(self, rng) -> str:
        return _text(_tokens(rng.standard_normal((1500, 2, 2))))

    def test_indentation_tabs_line_ends_and_compact_text(self, tmp_path, rng):
        text = self._text(rng)
        odd = text.replace('\n    "points": [', '\n     "points": [')
        tabs = text.replace('\n    "points": [', '\n\t\t"points": [')
        shifted = text.replace("\n          ", "\n           ", 1)
        for variant in (odd, tabs, shifted, text.replace("\n", "\r\n")):
            assert variant != text and _agree(tmp_path, variant) == 0
        compact = json.dumps(_json_path(text))
        assert _agree(tmp_path, compact) == 0

    def test_two_points_keys_in_one_object(self, tmp_path, rng):
        a, b = rng.standard_normal((3, 2, 2)), rng.standard_normal((1100, 2, 2))
        text = _layout({"ambient": '"cn"', "n": "2", "points": _tokens(a),
                        "other": _tokens(b)}) + "\n"
        text = text.replace('"other"', '"points"')
        assert _agree(tmp_path, text) == 2
        assert np.array_equal(core._read_json(text.encode())["points"], b)

    def test_several_blocks_and_a_list_after_each(self, tmp_path, rng):
        parts = [{"ambient": '"cn"', "n": "2", "points": _tokens(rng.standard_normal((m, 2, 2))),
                  "after": _tokens(rng.standard_normal((2, 2)))} for m in (1, 1024, 1025)]
        text = _layout({"command": '"transform"', "parts": parts,
                        "points": _tokens(rng.standard_normal((4, 2))),
                        "tail": ["1", "2"]}) + "\n"
        assert _agree(tmp_path, text) == 4

    def test_a_list_at_the_same_indent_after_the_last_block(self, tmp_path, rng):
        # an end found from the back of the text would land in "later"
        doc = _doc(_tokens(rng.standard_normal((20, 2, 2))))
        doc["later"] = {"list": ["1", "2"]}
        doc["sequence"]["tail"] = ["3"]
        text = _layout(doc) + "\n"
        assert _agree(tmp_path, text) == 1

    def test_a_verdict_and_a_block_exit_2(self, tmp_path, rng):
        doc = _doc(_tokens(rng.standard_normal((20, 2, 2))))
        doc["verdict"] = {"state": '"violated"'}
        assert _agree(tmp_path, _layout(doc) + "\n") == 1


class TestFailures:
    def test_a_file_truncated_inside_a_block(self, tmp_path, rng):
        text = _text(_tokens(rng.standard_normal((3000, 2, 2))))
        for cut in (len(text) // 2, len(text) - 40):
            assert _agree(tmp_path, text[:cut]) == 0
        # cut after the block: the block is read, and the rest fails as a whole
        assert _agree(tmp_path, text[: text.rindex("]") + 1]) == 1

    @pytest.mark.parametrize("edit", [
        ('"command": "gen",', '"command": "gen"'),
        ('"seed": null', '"seed": nul'),
        ('\n}\n', '\n}\n]'),
        ('"n": 2,', '"n": 2,,'),
        ('"ambient": "cn"', '"ambient": "c\\qn"'),
    ])
    def test_a_syntax_error_outside_a_checked_block(self, tmp_path, rng, edit):
        text = _text(_tokens(rng.standard_normal((1500, 2, 2))))
        broken = text.replace(*edit)
        # `_agree` compares the error's message, line, column and offset
        assert broken != text and _agree(tmp_path, broken) == 1

    def test_a_null_escape_of_the_document_keeps_json(self, tmp_path, rng):
        doc = _doc(_tokens(rng.standard_normal((20, 2, 2))))
        doc["note"] = {"points": '"\\u00000"'}  # the placeholder of block 0
        text = _layout(doc) + "\n"
        assert _agree(tmp_path, text) == 1
        assert core._read_json(text.encode())["note"]["points"] == "\x000"

    def test_a_document_nested_too_deeply(self, tmp_path, rng):
        text = _text(_tokens(rng.standard_normal((20, 2, 2))))
        deep = text.replace('"seed": null', '"seed": ' + "[" * 100_000 + "]" * 100_000)
        with pytest.raises(core.MalformedDocument, match=core.TOO_DEEP):
            core._read_json(deep.encode())


def test_random_edits_of_a_canonical_document():
    # one to three characters replaced, deleted or inserted anywhere, blocks
    # included: the same document or the same error as the json path, and
    # the text is called canonical only when it is
    arr = np.random.default_rng(5).standard_normal((6, 2, 2))
    arr[1, 0, 1], arr[2] = -0.0, np.round(arr[2] * 4)
    doc = {"command": "gen", "config": {"seed": None, "neg": -0.0, "xs": [1, 2.5]},
           "sequence": {"ambient": "cn", "n": 2, "points": arr, "generator": {"f": "g"}},
           "parts": [{"points": arr[:2]}, {"points": arr[3:]}]}
    base = canonical_json(doc)
    assert len(core._points_blocks(base.encode())) == 3
    alphabet = list('0123456789-+.eE[]{},: \n"\tnulltrue\\u')
    rng = np.random.default_rng(7)
    for _ in range(1500):
        chars = list(base)
        for _ in range(rng.integers(1, 4)):
            i, op, ch = rng.integers(len(chars)), rng.integers(3), str(rng.choice(alphabet))
            if op == 0:
                chars[i] = ch
            elif op == 1:
                del chars[i]
            else:
                chars.insert(i, ch)
        data = "".join(chars).encode()
        ref = _agree_bytes(data)
        if ref[0] == "ok" and core._read_json(data, emit=core.canonical_bytes)[1]:
            assert core.canonical_bytes(ref[1]) == data


class TestSignedZeros:
    def test_an_overshear_output_reads_its_block_without_parse_int(self, tmp_path,
                                                                    monkeypatch):
        # relative paths: `config.out` holds the --out path, and a "-0" in
        # it (a base temp directory named pytest-0) is a "-0" of the rest
        monkeypatch.chdir(tmp_path)
        assert cli.main(["gen", "sl2-gauss", "--field", "qi", "--height", "1",
                         "--out", "sg.json"]) == 0
        assert cli.main(["transform", "overshear", "sg.json", "--lambda", "1+0.5*a",
                         "--out", "over.json"]) == 0
        data = (tmp_path / "over.json").read_bytes()
        (start, end, _), = core._points_blocks(data)
        block = data[start:end].decode()
        assert len(_NEG_ZERO.findall(block)) > 10
        calls, searched = [], []
        real_int, real_search = core._parse_int, core._NEG_ZERO

        class Recorder:
            def search(self, source):
                searched.append(source)
                return real_search.search(source)

        monkeypatch.setattr(core, "_parse_int", lambda t: calls.append(t) or real_int(t))
        monkeypatch.setattr(core, "_NEG_ZERO", Recorder())
        got = core._read_json(data)["sequence"]["points"]
        assert calls == [] and len(searched) == 1 and len(searched[0]) < start + 1000
        want = np.array(_json_path(data.decode())["sequence"]["points"], dtype=np.float64)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        zeros = got == 0
        assert np.array_equal(np.signbit(got[zeros]), np.signbit(want[zeros]))
        assert np.count_nonzero(np.signbit(got[zeros])) == len(_NEG_ZERO.findall(block))

    def test_a_neg_zero_key_leaves_the_block_to_the_reader(self, tmp_path, monkeypatch):
        points = np.arange(4000.0).view(np.complex128).reshape(-1, 2)
        doc = {"config": {"neg": -0.0}, "sequence": sequence_document(core.cn(2), points)}
        text = canonical_json(doc)
        calls = []
        real = core._parse_int
        monkeypatch.setattr(core, "_parse_int", lambda t: calls.append(t) or real(t))
        got = core._read_json(text.encode())
        assert calls == ["-0", "2"]
        assert math.copysign(1.0, got["config"]["neg"]) == -1.0
        assert _agree(tmp_path, text) == 1


def test_report_formats_a_canonical_document_once(tmp_path, monkeypatch):
    # the reader renders each batch of rows to check it, and `report`
    # writes back the bytes it read
    src, out = tmp_path / "p.json", tmp_path / "r.json"
    assert cli.main(["gen", "cn-powers", "--n", "2", "--k", "3000", "--out", str(src)]) == 0
    rendered = []
    real = core._rows_text
    monkeypatch.setattr(core, "_rows_text", lambda *a: rendered.append(len(a[0])) or real(*a))
    assert _run("report", str(src), "--out", str(out)) == (0, "")
    assert rendered == [1024, 1024, 952]
    assert out.read_bytes() == src.read_bytes()


def test_only_the_reader_reaches_the_block_reader():
    # `_read_json` is the one parse, points blocks included
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert _callers(trees, "_points_blocks") == {"core._read_json"}
    assert _callers(trees, "_block_array") == {"core._points_blocks"}
    assert _callers(trees, "_block_leaves") == {"core._block_array"}
    assert _callers(trees, "_item_shape") == {"core._block_array"}


class TestBytes:
    """The reader works on a file's bytes; `report` and `load_sequence`
    must still see what a text-mode read (strict UTF-8, universal
    newlines) and json made of the file."""

    @staticmethod
    def _base(rng, m: int = 1500) -> bytes:
        doc = _doc(_tokens(rng.standard_normal((m, 2, 2))))
        doc["sequence"]["generator"] = {"family": '"cn-powers"', "params": {"k": str(m)}}
        return (_layout(doc) + "\n").encode()

    def test_crlf_and_lone_cr_line_ends(self, tmp_path, rng):
        base = self._base(rng)
        mixed = b"".join(line + (b"\r\n", b"\r", b"\n")[i % 3]
                         for i, line in enumerate(base.split(b"\n")[:-1]))
        for data in (base.replace(b"\n", b"\r\n"), base.replace(b"\n", b"\r"), mixed):
            # the bytes themselves hold no block in the emitter's layout
            assert _agree(tmp_path, data) == 0
            path = tmp_path / "doc.json"
            # the file reads as its text-mode text, whose block is read as an array
            assert core._document_bytes(path) == _text_mode(path).encode() == base
            assert len(core._points_blocks(core._document_bytes(path))) == 1

    @pytest.mark.parametrize("edit", [(b'"seed": null', b'"seed": nul'),
                                      (b'"n": 2,', b'"n": 2,,')])
    def test_a_syntax_error_after_crlf_lines_is_placed_as_text_mode_places_it(
            self, tmp_path, rng, edit):
        data = self._base(rng, 40).replace(*edit).replace(b"\n", b"\r\n")
        assert _agree(tmp_path, data) == 0

    def test_a_utf8_bom(self, tmp_path, rng):
        # text mode keeps a BOM, and json turns it away; json given the
        # bytes would have skipped it
        data = b"\xef\xbb\xbf" + self._base(rng)
        assert _agree(tmp_path, data) == 1
        assert _outcome(lambda: _json_path(_text_mode(tmp_path / "doc.json")))[1][0] \
            is json.JSONDecodeError

    @pytest.mark.parametrize("bad", [b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xc0\xaf", b"\x80"])
    @pytest.mark.parametrize("where", ["block", "rest", "rest-after-block", "end"])
    @pytest.mark.parametrize("ends", [b"\n", b"\r\n"])
    def test_invalid_utf8(self, tmp_path, rng, bad, where, ends):
        base = self._base(rng, 1100)
        start, end, _ = core._points_blocks(base)[0]
        at = {"block": (start + end) // 2, "rest": base.index(b'"gen"') + 2,
              "rest-after-block": base.index(b'"cn-powers"') + 3, "end": len(base)}[where]
        data = (base[:at] + bad + base[at:]).replace(b"\n", ends)
        # a block is read when the bad bytes are not in it; the rest then
        # fails to decode, and the whole is decoded again for the error
        assert _agree(tmp_path, data) == (where != "block" and ends == b"\n")
        err = _outcome(lambda: core.load_sequence(tmp_path / "doc.json"))[1]
        assert err[0] is UnicodeDecodeError
        with pytest.raises(UnicodeDecodeError) as want:
            _text_mode(tmp_path / "doc.json")
        assert err[1] == str(want.value)

    def test_raw_non_ascii_in_strings_of_the_rest(self, tmp_path, rng):
        base = self._base(rng)
        data = base.replace(b'"cn-powers"', '"cñ-pöwers ✓ 𝔸"'.encode())
        assert _agree(tmp_path, data) == 1
        got = core._read_json(data)["sequence"]["generator"]["family"]
        assert got == "cñ-pöwers ✓ 𝔸"
        # report writes them as the \u escapes the emitter writes
        assert b"\\u00f1" in (tmp_path / "report.json").read_bytes()
        # wide characters before a syntax error: json counts characters
        broken = base.replace(b'"gen"', '"gén ✓ 𝔸"'.encode()).replace(b"null", b"nul")
        assert _agree(tmp_path, broken) == 1
        err = _outcome(lambda: core._read_json(broken))[1]
        assert err[2][2] == broken.decode().index("nul\n") < broken.index(b"nul\n")
        # a non-ASCII character inside a block sends it to json, which fails
        start, end, _ = core._points_blocks(base)[0]
        mid = base.index(b"\n", (start + end) // 2) - 1
        assert _agree(tmp_path, base[:mid] + "½".encode() + base[mid + 1:]) == 0

    def test_a_compact_file(self, tmp_path, rng):
        doc = _json_path(self._base(rng).decode())
        doc["sequence"]["generator"]["family"] = "pöwers"
        for ascii_only in (True, False):
            data = json.dumps(doc, ensure_ascii=ascii_only).encode()
            assert _agree(tmp_path, data) == 0

    def test_random_byte_edits_against_text_mode(self, tmp_path):
        # the random edits of `test_random_edits_of_a_canonical_document`,
        # with bytes that are not ASCII, invalid UTF-8, a BOM and line ends
        # added, each read from a file as `load_sequence` and `report` read it
        arr = np.random.default_rng(5).standard_normal((6, 2, 2))
        arr[1, 0, 1] = -0.0
        doc = {"command": "gen", "config": {"seed": None, "neg": -0.0},
               "sequence": {"ambient": "cn", "n": 2, "points": arr, "generator": {"f": "g"}}}
        base = core.canonical_bytes(doc)
        alphabet = [bytes([c]) for c in b'0123456789-+.eE[]{},: \n"\tnul\\'] + [
            b"\r", b"\r\n", b"\xff", b"\xc3", b"\xa9", "é".encode(), "✓".encode(),
            b"\xef\xbb\xbf", b"\xed\xa0\x80"]
        rng = np.random.default_rng(8)
        path = tmp_path / "doc.json"
        kinds = set()
        for _ in range(1000):
            chunks = [base[i:i + 1] for i in range(len(base))]
            for _ in range(rng.integers(1, 4)):
                i, op = rng.integers(len(chunks)), rng.integers(3)
                piece = alphabet[rng.integers(len(alphabet))]
                if op == 0:
                    chunks[i] = piece
                elif op == 1:
                    del chunks[i]
                else:
                    chunks.insert(i, piece)
            data = b"".join(chunks)
            _agree_bytes(data)
            path.write_bytes(data)
            new = _outcome(lambda: core._read_json(core._document_bytes(path)))
            ref = _outcome(lambda: _json_path(_text_mode(path)))
            assert new[0] == ref[0], data
            assert _same(new[1], ref[1]) if ref[0] == "ok" else new[1] == ref[1]
            kinds.add(ref[0] if ref[0] == "ok" else ref[1][0])
        assert {"ok", json.JSONDecodeError, UnicodeDecodeError} <= kinds

    def test_json_sees_only_text(self, tmp_path, rng, monkeypatch):
        seen = []
        real = json.loads
        monkeypatch.setattr(json, "loads", lambda s, **kw: seen.append(type(s)) or real(s, **kw))
        base = self._base(rng)
        for data in (base, base.replace(b"\n", b"\r\n"), b"\xef\xbb\xbf" + base,
                     base.replace(b'"seed": null', b'"seed": nul')):
            path = tmp_path / "doc.json"
            path.write_bytes(data)
            _outcome(lambda: core.load_sequence(path))
            _run("report", str(path), "--out", str(tmp_path / "out.json"))
        assert len(seen) >= 8 and set(seen) == {str}


def test_bytes_and_str_format_floats_alike():
    # the writer formats with bytes '%', the emitter's str form with str '%'
    rng = np.random.default_rng(32)
    values = rng.integers(0, 2**64, 400_000, dtype=np.uint64, endpoint=False).view(np.float64)
    big = float(2**53)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.225073858507201e-308,
               big - 2, big - 1, big, big + 2, -(big + 2), 1.7976931348623157e308, 1e16, 0.1]
    values = np.concatenate([values[np.isfinite(values)], special]).tolist()
    assert len(values) > 399_000
    frame = ",".join(["%.17g"] * len(values))
    assert (frame.encode() % tuple(values)) == (frame % tuple(values)).encode()
    assert core._rows_text(np.array(values[:4096]), (2,), 1).decode() == \
        (",\n  ".join(["[\n    %.17g,\n    %.17g\n  ]"] * 2048) % tuple(values[:4096]))
