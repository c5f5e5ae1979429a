"""Static checks over the package source."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "tamelab").glob("*.py"))
TRACER = ROOT / "bench" / "tracer.py"
# the code outside the package that uses it: what only tests reach is not needed
USERS = [*sorted((ROOT / "demos").glob("*.py")), *sorted((ROOT / "bench").glob("*.py")),
         ROOT / "tests" / "test_acceptance.py"]


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module's top-level imports that nothing in the
    module reads, `__all__` included."""
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


# private helpers that only tests call, with the reason each is kept
_TEST_ONLY_HELPERS: dict[str, str] = {}


def _unreferenced_helpers(trees: dict[str, ast.Module]) -> list[str]:
    """`module.name` of each top-level function whose name starts with `_`
    that no module reads: as a name, an attribute or an imported name."""
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and node.name not in used
    ]


def test_sources_are_found():
    assert len(SOURCES) > 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_scan_sees_plain_aliased_and_reexported_names():
    tree = ast.parse(
        "import os\nimport numpy as np\nfrom a import b, c as d\nfrom e import f\n"
        "__all__ = ['f']\nnp.zeros(d)\n"
    )
    assert _unused_imports(tree) == ["os", "b"]


def test_every_private_helper_is_reached_from_the_package():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert sorted(_unreferenced_helpers(trees)) == sorted(_TEST_ONLY_HELPERS)


def test_the_helper_scan_sees_calls_attributes_and_imports():
    trees = {
        "a": ast.parse(
            "def _called():\n    pass\n\ndef _dead():\n    pass\n\n"
            "def _imported():\n    pass\n\ndef _by_attribute():\n    pass\n\n"
            "def public():\n    return _called()\n"
        ),
        "b": ast.parse("from .a import _imported\nimport a\n\nx = a._by_attribute\n"),
        "c": ast.parse("class K:\n    def _method(self):\n        pass\n"),
    }
    assert _unreferenced_helpers(trees) == ["a._dead"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` strips asserts, and otherwise one escapes the CLI as a traceback
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []


def _attribute_reads(tree: ast.Module, name: str) -> list[int]:
    """Line numbers, in walk order, where the module reads an attribute
    called `name`."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == name
        and isinstance(node.ctx, ast.Load)
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_the_package_reads_points_from_the_array(path):
    # `DiscreteSequence.points` builds a tuple of row views on every read
    assert _attribute_reads(ast.parse(path.read_text(encoding="utf-8")), "points") == []


# numpy's extended types, whose width depends on the platform: 80-bit on
# x86-64 Linux, binary128 on aarch64 Linux, plain double on Windows
_EXTENDED_TYPES = {"longdouble", "clongdouble", "float96", "float128", "complex192", "complex256"}


def _extended_type_names(tree: ast.Module) -> list[str]:
    """Every name, attribute, imported name or string constant of the
    module that names one of numpy's extended types."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append(node.id)
        elif isinstance(node, ast.Attribute):
            found.append(node.attr)
        elif isinstance(node, ast.alias):
            found.append(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.append(node.value)
    return [name for name in found if name in _EXTENDED_TYPES]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_platform_width_floats(path):
    # bytes from an extended type would differ from one platform to the next
    assert _extended_type_names(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_extended_type_scan_sees_names_attributes_and_dtype_strings():
    tree = ast.parse(
        "from numpy import longdouble\nx = np.clongdouble(1)\n"
        "y = a.astype('float128')\n# longdouble\nz = 'a longdouble'\n"
    )
    assert _extended_type_names(tree) == ["longdouble", "clongdouble", "float128"]


def test_the_attribute_scan_sees_reads_but_not_stores_keys_or_names():
    tree = ast.parse(
        "a = d.points\nfor p in s.points[1:]:\n    pass\n"
        "d.points = 1\nx = doc['points']\npoints = 2\ny = d.points_seen\n"
    )
    assert sorted(_attribute_reads(tree, "points")) == [1, 2]


def _callers(trees: dict[str, ast.Module], name: str) -> set[str]:
    """`module.function` of each top-level function or method that calls
    `name`, as a plain or an attribute call; `module` alone for a call
    outside any function."""
    found = set()

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and name in (
                getattr(child.func, "id", None),
                getattr(child.func, "attr", None),
            ):
                found.add(owner)
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and "." not in owner:
                inner = f"{owner}.{child.name}"
            visit(child, inner)

    for module, tree in trees.items():
        visit(tree, module)
    return found


def test_only_the_draw_block_generator_and_the_single_draw_call_the_batch_sampler():
    # estimators draw through `_draw_blocks`, which bounds the draws held at once
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert _callers(trees, "haar_su_batch") == {
        "generic_projection._draw_blocks",
        "generic_projection.haar_su",
    }


def test_only_the_batch_sampler_and_the_column_stream_read_raw_uniforms():
    # everything else reaches the uniforms through a block generator
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert _callers(trees, "raw_uniforms") == {
        "generic_projection.haar_su_batch",
        "generic_projection._column_blocks",
    }


def test_the_caller_scan_sees_plain_attribute_nested_and_module_calls():
    trees = {
        "a": ast.parse(
            "def f():\n    return g(1)\n\n"
            "def h():\n    def inner():\n        return m.g(2)\n    return inner\n\n"
            "class K:\n    def k(self):\n        return [g(x) for x in ()]\n\n"
            "def quiet():\n    return g\n\n"
            "x = g(3)\n"
        ),
    }
    assert _callers(trees, "g") == {"a.f", "a.h", "a.k", "a"}


def test_only_the_command_line_touches_the_collector():
    # `cli.main` pauses it for one command and restores the caller's state;
    # library calls run under whatever the caller chose
    importers = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import) and any(a.name == "gc" for a in node.names):
                importers.add(path.stem)
            elif isinstance(node, ast.ImportFrom) and node.module == "gc":
                importers.add(path.stem)
    assert importers == {"cli"}


def test_only_core_parses_json():
    # `core._read_json` is the one parse: it reads "-0" back as -0.0 and
    # types a document nested too deeply
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert _callers(trees, "loads") == {"core._read_json"}
    assert _callers(trees, "load") == set()


def test_only_the_block_reader_converts_text_with_numpy():
    # np.loadtxt reads tokens JSON refuses (nan, +1, 01, .5), so it runs
    # only where the byte check decides, and it is the one text converter
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert _callers(trees, "loadtxt") == {"core._block_leaves"}
    assert _callers(trees, "fromstring") == set()


def _opens(trees: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """(`module.function`, mode) of each call of `open`: its second
    argument or `mode` keyword, "r" when it has neither, and "?" when that
    is not a literal."""
    found = set()

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "open":
                mode = child.args[1] if len(child.args) > 1 else next(
                    (k.value for k in child.keywords if k.arg == "mode"), ast.Constant("r"))
                found.add((owner, mode.value if isinstance(mode, ast.Constant) else "?"))
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and "." not in owner:
                inner = f"{owner}.{child.name}"
            visit(child, inner)

    for module, tree in trees.items():
        visit(tree, module)
    return found


def test_documents_are_read_and_written_as_bytes():
    # `load_sequence` and `report` read a document through one core
    # function, which opens it in binary; documents are written in binary.
    # Only the config file, which is not a document, is read as text.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert _callers(trees, "_document_bytes") == {"core.load_sequence", "cli._cmd_report"}
    assert _opens(trees) == {
        ("core._document_bytes", "rb"),
        ("core.save_sequence", "wb"),
        ("cli._finish", "wb"),
        ("cli._load_config_file", "r"),
    }


def test_the_open_scan_sees_positional_keyword_and_default_modes():
    tree = ast.parse("def a(p):\n    open(p, 'rb')\n\ndef b(p):\n    open(p, mode='w')\n\n"
                     "def c(p):\n    open(p)\n\ndef d(p, m):\n    open(p, m)\n")
    assert _opens({"m": tree}) == {("m.a", "rb"), ("m.b", "w"), ("m.c", "r"), ("m.d", "?")}


def _loads_sources(tree: ast.Module) -> list[ast.AST]:
    """In `_read_json`, the first argument of each call of its nested
    `parse`, after checking that `parse` hands json.loads its own first
    parameter."""
    reader = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_read_json")
    parse = next(n for n in reader.body if isinstance(n, ast.FunctionDef) and n.name == "parse")
    loads = [n for n in ast.walk(parse) if isinstance(n, ast.Call)
             and getattr(n.func, "attr", None) == "loads"]
    assert [ast.unparse(n.args[0]) for n in loads] == [parse.args.args[0].arg]
    return [n.args[0] for n in ast.walk(reader) if isinstance(n, ast.Call)
            and getattr(n.func, "id", None) == "parse"]


def test_json_parses_only_strictly_decoded_text():
    # json.loads given bytes would accept a BOM or UTF-16, so the reader
    # decodes them itself: every text it parses is `<bytes>.decode("utf-8")`
    tree = ast.parse(next(p for p in SOURCES if p.stem == "core").read_text(encoding="utf-8"))
    sources = _loads_sources(tree)
    assert len(sources) == 2
    assert all(isinstance(s, ast.Call) and getattr(s.func, "attr", None) == "decode"
               and [ast.unparse(a) for a in s.args] == ["'utf-8'"] and not s.keywords
               for s in sources)


def test_only_the_determinant_rule_scales_the_tolerance():
    # `core.det_drift` is the one rule by which a matrix is a point of SL(n),
    # on load and on a move's output alike
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert _callers(trees, "det_tolerance") == {"core.det_drift"}


def test_the_torus_validates_its_stack_once():
    # `torus_embed` validates its input as one stack, and `one_param_check`
    # reads the loaded array: no matrix is validated one at a time
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert not {owner for owner in _callers(trees, "sl_matrix") if owner.startswith("sln_tame")}


def test_no_subgroup_declaration():
    # the diagonal subgroup is the only one, so nothing declares it
    defined = {
        node.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
    }
    assert "DiagonalGroup" not in defined


def test_no_second_copy_of_the_output_check():
    # a moved prefix is applied and checked once, by `cli._moved`
    defined = {
        node.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    assert defined & {"apply_all", "drift_verdict"} == set()


def _memoized(trees: dict[str, ast.Module]) -> list[str]:
    """`module.function` of each function or method decorated with
    `lru_cache` or `cache`, called or not, by plain or attribute name."""
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    name = getattr(target, "id", getattr(target, "attr", None))
                    if name in ("lru_cache", "cache"):
                        found.append(f"{module}.{node.name}")
    return found


def test_only_the_parser_and_the_item_templates_are_memoized():
    # a process-wide cache is state one call leaves for the next; fits at
    # one node set share their weights by handing them over instead
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert sorted(_memoized(trees)) == ["cli._parser", "core._item_template"]


def test_the_memo_scan_sees_plain_called_and_attribute_decorators():
    tree = ast.parse(
        "@lru_cache(maxsize=2)\ndef a():\n    pass\n\n@functools.cache\ndef b():\n    pass\n\n"
        "@cached_property\ndef c():\n    pass\n\n"
        "class K:\n    @functools.lru_cache\n    def d(self):\n        pass\n"
    )
    assert _memoized({"m": tree}) == ["m.a", "m.b", "m.d"]


def _traced_names(source: str) -> list[tuple[str, str]]:
    """(module, attribute) of every entry of a tracer's `TARGETS` tuple."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [(entry.elts[1].value, entry.elts[2].value) for entry in node.value.elts]
    raise AssertionError("no TARGETS tuple")


def _unresolved(names: list[tuple[str, str]]) -> list[str]:
    """The `module:attribute` names that do not resolve to a callable; a
    `Class.method` must be defined on the class itself, where the tracer
    patches it."""
    missing = []
    for mod_name, attr in names:
        owner = importlib.import_module(mod_name)
        *path, last = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        found = vars(owner).get(last) if path and owner is not None else getattr(owner, last, None)
        if not (callable(found) or isinstance(found, classmethod)):
            missing.append(f"{mod_name}:{attr}")
    return missing


def test_every_name_the_benchmark_traces_resolves():
    names = _traced_names(TRACER.read_text(encoding="utf-8"))
    assert len(names) > 20
    assert _unresolved(names) == []


def test_the_traced_name_check_sees_functions_methods_and_misses():
    names = _traced_names(
        'TARGETS = (("a", "tamelab.core", "load_sequence", {}),\n'
        '           ("b", "tamelab.cn_tame", "LagrangePoly.fit", {"n": lambda a, k, r: 1}),\n'
        '           ("c", "tamelab.core", "DiscreteSequence.__post_init__", {}),\n'
        '           ("d", "tamelab.core", "LinearAut.apply", {}),\n'
        '           ("e", "tamelab.core", "no_such_function", {}),\n'
        '           ("f", "tamelab.cn_tame", "NoSuchClass.fit", {}))\n'
    )
    assert len(names) == 6
    # LinearAut inherits `apply`, so the tracer could not patch it there
    assert _unresolved(names) == [
        "tamelab.core:LinearAut.apply",
        "tamelab.core:no_such_function",
        "tamelab.cn_tame:NoSuchClass.fit",
    ]


def test_only_one_matrix_entry_points_validate_one_matrix():
    # each takes a raw matrix from its caller; a move reads arrays that were
    # validated when they were loaded, and does not validate them again
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert _callers(trees, "sl_matrix") == {
        "sl2_special.overshear_apply",
        "sl2_special.right_translate",
        "sl2_special.fiber_distance",
    }


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# public names that only tests reach, with the reason each is kept
_TEST_ONLY_NAMES = {
    "pi_tame.fit_q_map": "the benchmark traces it by name until it traces `fit_factors`; "
                         "then it is deleted",
    "sl2_special.fiber_distance": "a one-matrix entry point: the fiber distance of two raw "
                                  "matrices, which tests compare with the stacked one",
    "cn_tame.ShearAut.inverse": "the inverse shear, for inverse round trips",
    "disc_plane.MoebiusDisc.inverse": "the inverse disc automorphism, for inverse round trips",
    "cn_tame.Polynomial.is_zero": "how a caller tells the zero fit of an unneeded push",
    "sl2_special.BivariatePoly.is_zero": "how a caller tells the zero shift of the identity "
                                         "overshear",
}


def _references(tree: ast.AST) -> set[str]:
    """Every name the tree reads: names and attribute names. Docstrings and
    other strings are not read, and neither are imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def _unreached_public_names(package: dict[str, ast.Module], users: list[ast.Module]) -> list[str]:
    """`module.name` of each public top-level function or class of the
    package, and `module.Class.method` of each public method, that nothing
    reaches. The users, every `__all__` and the package's module-level code
    outside its definitions reach what they name; a reached top-level
    definition reaches what its body names, a class through all its
    methods. Names match by identifier, in any module."""
    reached = set().union(*map(_references, users))
    definitions = {}
    for tree in package.values():
        for node in tree.body:
            if isinstance(node, _DEFINITIONS):
                definitions.setdefault(node.name, []).append(node)
            elif isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "__all__":
                reached.update(ast.literal_eval(node.value))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                reached |= _references(node)
    todo = list(reached)
    while todo:
        for node in definitions.pop(todo.pop(), ()):
            new = _references(node) - reached
            reached |= new
            todo += new
    missing = []
    for module, tree in package.items():
        for node in tree.body:
            if not isinstance(node, _DEFINITIONS) or node.name.startswith("_"):
                continue
            if node.name not in reached:
                missing.append(f"{module}.{node.name}")
            methods = node.body if isinstance(node, ast.ClassDef) else []
            missing += [f"{module}.{node.name}.{m.name}" for m in methods
                        if isinstance(m, _DEFINITIONS[:2]) and not m.name.startswith("_")
                        and m.name not in reached]
    return missing


def test_every_public_name_is_reached_from_outside_the_tests():
    # the command line, the demos, the benchmark and the acceptance battery
    # use the package; a name that only its own tests reach is not needed
    package = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    users = [ast.parse(path.read_text(encoding="utf-8")) for path in USERS]
    assert sorted(_unreached_public_names(package, users)) == sorted(_TEST_ONLY_NAMES)


def test_the_reach_scan_follows_reached_definitions_only():
    package = {
        "a": ast.parse(
            "def root():\n    return helper()\n\n"
            "def helper():\n    \"not dead\"\n    return 1\n\n"
            "def dead():\n    return only_from_dead()\n\n"
            "def only_from_dead():\n    pass\n\n"
            "class K:\n    def used(self):\n        pass\n\n"
            "    def unused(self):\n        return self._private()\n\n"
            "TABLE = {'k': K}\n"
        ),
        "b": ast.parse("from .a import dead\n\n__all__ = ['exported']\n\n"
                       "def exported():\n    pass\n\nclass Unused:\n    pass\n"),
    }
    users = [ast.parse("import a\na.root()\nx.used()\n")]
    assert _unreached_public_names(package, users) == [
        "a.dead", "a.only_from_dead", "a.K.unused", "b.Unused"
    ]
