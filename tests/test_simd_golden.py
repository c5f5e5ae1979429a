"""Golden digests at a narrower SIMD level.

numpy picks its complex array kernels per process from its CPU dispatch,
and its AVX-512 complex product rounds differently from the textbook
one. The overshear computes in real float64 arithmetic, so its outputs,
and the moves that read them, keep their frozen digests with the AVX2
and AVX-512 targets turned off. The commands run in a subprocess,
because `NPY_DISABLE_CPU_FEATURES` is read when numpy is imported.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden_cli import _COMMANDS, GOLDEN

DISABLED = "AVX512_SPR AVX512_ICL X86_V4 X86_V3"

# the overshear commands and the moves that read an overshear's output,
# the other moves whose output `core.check_moved` checks, the series
# checks, whose partial sums take a float power, and the torus embeddings,
# whose product error takes a complex array product; `dt`, `sg`, `cnp`,
# `powers` and `dt1k` write their inputs
NAMES = ("dt", "sg", "cnp", "overshear-det", "overshear-law", "overshear-grid", "series",
         "torus", "powers", "powers-series", "rand-overshears", "rand-overshears-report",
         "rand-union", "flat-shears", "center", "chain-union", "chain-center", "dt1k",
         "dt1k-torus")

_SCRIPT = """
import hashlib, json, sys, warnings
sys.path[:0] = sys.argv[1:3]
try:
    with warnings.catch_warnings():
        warnings.simplefilter("error", ImportWarning)
        import numpy
except Exception as exc:
    print(json.dumps({"rejected": str(exc)}))
    raise SystemExit(0)
from test_golden_cli import _COMMANDS, _write_inputs
from tamelab import cli
_write_inputs()
commands = dict(_COMMANDS)
got = {}
for name in sys.argv[3:]:
    code = cli.main([*commands[name], "--out", f"{name}.out"])
    with open(f"{name}.out", "rb") as fh:
        got[name] = [code, hashlib.sha256(fh.read()).hexdigest()]
print(json.dumps({"digests": got}))
"""


def test_the_names_are_corpus_commands_in_order():
    order = [name for name, _ in _COMMANDS]
    assert [name for name in order if name in NAMES] == list(NAMES)


def test_overshear_digests_hold_without_avx2(tmp_path):
    here = Path(__file__).resolve().parent
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=DISABLED)
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(here.parent / "src"), str(here), *NAMES],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if "rejected" in result:
        pytest.skip(f"numpy rejects NPY_DISABLE_CPU_FEATURES={DISABLED!r}: {result['rejected']}")
    assert {name: tuple(v) for name, v in result["digests"].items()} == {
        name: GOLDEN[name] for name in NAMES
    }
