"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of the tamelab modules at run time,
in every module namespace that holds them (``tamelab.cli`` imports most
of them by name), and restores the originals on ``uninstall``.  Each
call records one span: name, start, end, parent span and operation id.
Spans live in flat arrays until the run ends; ``summary`` derives self
time per span name and per layer from them, and ``write_spans`` dumps
them as JSON lines.

A span's self time is its duration minus the time covered by its child
spans.  Counts (points, bytes, draws, ...) are taken at the same
boundaries, from outermost calls only, so a composite automorphism
whose stages call ``apply`` again counts each point once.
"""

from __future__ import annotations

import functools
import json
import os
import re
import sys
from array import array
from time import perf_counter

import numpy as np

OP_PREFIX = "op."


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _attempts(result) -> int:
    match = re.search(r"after (\d+) attempt", result[1].detail)
    return int(match.group(1)) if match else 0


# (span name, module, attribute, {count name: fn(args, kwargs, result)}).
# An attribute "Class.method" patches the class; every other attribute is
# patched wherever a tamelab module binds the same function object.
TARGETS = (
    ("cli.main", "tamelab.cli", "main", {}),
    ("cli.canonical_json", "tamelab.cli", "canonical_json",
     {"bytes": lambda a, k, r: len(r)}),
    ("core.DiscreteSequence", "tamelab.core", "DiscreteSequence.__post_init__",
     {"points": lambda a, k, r: len(a[0].points)}),
    ("core.sl_matrix", "tamelab.core", "sl_matrix", {}),
    ("core.to_json", "tamelab.core", "DiscreteSequence.to_json", {}),
    ("core.from_json", "tamelab.core", "DiscreteSequence.from_json", {}),
    ("core.properness_check", "tamelab.core", "properness_check", {}),
    ("core.properness_check", "tamelab.core", "discreteness_check", {}),
    ("families.generate", "tamelab.families", "generate",
     {"points": lambda a, k, r: len(r)}),
    ("cn_tame.rr_series_test", "tamelab.cn_tame", "rr_series_test", {}),
    ("cn_tame.interpolate_nodes", "tamelab.cn_tame", "interpolate_nodes",
     {"nodes": lambda a, k, r: len(_first(a, k, "nodes"))}),
    ("cn_tame.LagrangePoly", "tamelab.cn_tame", "LagrangePoly.fit", {}),
    ("cn_tame.LagrangePoly", "tamelab.cn_tame", "LagrangePoly.__call__",
     {"evals": lambda a, k, r: int(np.size(a[1]))}),
    ("pi_tame.fit_q_map", "tamelab.pi_tame", "fit_q_map",
     {"nodes": lambda a, k, r: len(_first(a, k, "images"))}),
    ("pi_tame.bundle_push", "tamelab.pi_tame", "bundle_push",
     {"points": lambda a, k, r: len(_first(a, k, "d"))}),
    ("pi_tame.pi_tame_check", "tamelab.pi_tame", "pi_tame_check", {}),
    ("sln_tame.center_separate", "tamelab.sln_tame", "center_separate",
     {"attempts": lambda a, k, r: _attempts(r)}),
    ("sln_tame.union_decompose", "tamelab.sln_tame", "union_decompose", {}),
    ("sl2_special.gaussian_sl2_generate", "tamelab.sl2_special",
     "gaussian_sl2_generate", {"points": lambda a, k, r: len(r)}),
    ("sl2_special.overshear_apply", "tamelab.sl2_special", "overshear_apply", {}),
    ("sl2_special.sl2_column_pipeline", "tamelab.sl2_special",
     "sl2_column_pipeline", {}),
    ("punctured_cn.punctured_tame_check", "tamelab.punctured_cn",
     "punctured_tame_check", {}),
    ("disc_plane.dp_classify", "tamelab.disc_plane", "dp_classify", {}),
    ("generic_projection.haar_su_batch", "tamelab.generic_projection",
     "haar_su_batch", {"draws": lambda a, k, r: len(r)}),
    ("generic_projection.threshold_estimate", "tamelab.generic_projection",
     "threshold_estimate", {}),
    ("generic_projection.measure_estimate", "tamelab.generic_projection",
     "measure_estimate", {}),
    ("generic_projection.g_estimate", "tamelab.generic_projection",
     "g_estimate", {}),
    ("generic_projection.omega_check", "tamelab.generic_projection",
     "omega_check", {"failures": lambda a, k, r: len(r.failures)}),
)

# Exceptions counted per span name before they propagate.
ERROR_COUNTS = {"sl2_special.overshear_apply": ("tamelab.errors", "LambdaVanishes", "rejected")}

# Every public Automorphism.apply shares one span; the classes live in
# several modules but the contract belongs to core.
APPLY_SPAN = "core.apply"
PARSE_SPAN = "cli.parse"


class _JsonProxy:
    """Stands in for the json module inside tamelab.cli, timing decodes."""

    def __init__(self, real, load, loads):
        self._real = real
        self.load = load
        self.loads = loads

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts: dict[str, int] = {}
        self.current = -1
        self.op_id = -1
        self._patches: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _count(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def open(self, name: str) -> int:
        return self._open(self._intern(name))

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.current)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.start.append(perf_counter())
        self.current = idx
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.current = self.parent[idx]

    def _outermost(self, nid: int) -> bool:
        return self.current < 0 or self.name_id[self.current] != nid

    def wrap(self, fn, name: str, counts=None, errors=None):
        """A traced stand-in for fn recording one span per call."""
        nid = self._intern(name)
        counts = counts or {}
        error_type, error_key = errors if errors else ((), None)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = tracer._outermost(nid)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except error_type:
                if outer:
                    tracer._count(f"{name}.{error_key}", 1)
                raise
            finally:
                tracer.close(idx)
            if outer:
                tracer._count(f"{name}.calls", 1)
                for key, measure in counts.items():
                    tracer._count(f"{name}.{key}", measure(args, kwargs, result))
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, wrapped) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "tamelab" or mod_name.startswith("tamelab.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapped)

    def install(self) -> None:
        """Wraps every target; `uninstall` restores the originals."""
        import tamelab.cli  # noqa: F401  (imports every layer module)
        from tamelab import core

        for name, mod_name, attr, counts in TARGETS:
            module = sys.modules[mod_name]
            errors = None
            if name in ERROR_COUNTS:
                err_mod, err_name, key = ERROR_COUNTS[name]
                errors = (getattr(sys.modules[err_mod], err_name), key)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._patch(cls, meth, classmethod(self.wrap(raw.__func__, name, counts, errors)))
                else:
                    self._patch(cls, meth, self.wrap(raw, name, counts, errors))
            else:
                original = getattr(module, attr)
                self._patch_everywhere(original, self.wrap(original, name, counts, errors))

        pending = [core.Automorphism]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "apply" in cls.__dict__ and cls is not core.Automorphism:
                self._patch(cls, "apply", self.wrap(cls.__dict__["apply"], APPLY_SPAN,
                                                    {"points": lambda a, k, r: 1}))

        cli = sys.modules["tamelab.cli"]
        real = cli.json
        load = self.wrap(real.load, PARSE_SPAN,
                         {"bytes": lambda a, k, r: os.fstat(a[0].fileno()).st_size})
        loads = self.wrap(real.loads, PARSE_SPAN, {"bytes": lambda a, k, r: len(a[0])})
        self._patch(cli, "json", _JsonProxy(real, load, loads))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Self seconds and call counts per span name, per layer, and
        the share of operation time that spans cover."""
        n = len(self.start)
        child = [0.0] * n
        self_s: dict[str, float] = {}
        op_total = covered = 0.0
        for i in range(n - 1, -1, -1):
            dur = self.end[i] - self.start[i]
            name = self.names[self.name_id[i]]
            p = self.parent[i]
            if p >= 0:
                child[p] += dur
                if self.names[self.name_id[p]].startswith(OP_PREFIX):
                    covered += dur
            if name.startswith(OP_PREFIX):
                op_total += dur
            else:
                self_s[name] = self_s.get(name, 0.0) + dur - child[i]
        layers: dict[str, float] = {}
        for name, value in self_s.items():
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + value
        return {
            "self_s": self_s,
            "layer_self_s": layers,
            "counts": dict(self.counts),
            "coverage": covered / op_total if op_total > 0 else 0.0,
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps({
                    "name": self.names[self.name_id[i]],
                    "start": self.start[i],
                    "end": self.end[i],
                    "parent": self.parent[i],
                    "op": self.op[i],
                }) + "\n")
