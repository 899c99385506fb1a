"""The production modules stay independent of the verification oracles, of
BLAS, of numpy's seeding and of each other's private names, ``import
fanwidth.cli`` and each command load only their pinned modules, which import
nothing new at their top level, the graph representation and the
breadth-first walks stay behind ``graphs``, a decomposition's tree is walked
only by its cached ``RootedWalk``, and ``fanwidth`` keeps its exports."""

import ast
import importlib
import pathlib
import subprocess
import sys

import pytest

import fanwidth

PACKAGE = pathlib.Path(fanwidth.__file__).parent
ORACLES = {"starmetric", "volumes", "oracles"}


def imported_modules(name: str) -> set:
    """The ``fanwidth`` modules that module ``name`` imports anywhere in its
    source, top level or inside a function."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:  # from . import x
                found.update(alias.name for alias in node.names)
            elif node.level == 1:
                found.add(node.module.split(".")[0])
            elif node.module and node.module.startswith("fanwidth."):
                found.add(node.module.split(".")[1])
            elif node.module == "fanwidth":
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("fanwidth."))
    return found


@pytest.mark.parametrize("name", ["graphs", "treedec", "sparsify", "embedding",
                                  "pipeline", "randomness"])
def test_production_module_imports_no_oracle(name):
    assert not imported_modules(name) & ORACLES


def test_the_guard_sees_relative_imports():
    assert {"embedding", "volumes"} <= imported_modules("starmetric")


def private_imports(source: str) -> list:
    """The underscore names ``source`` imports from ``fanwidth`` modules,
    top level or inside a function."""
    return [alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").startswith("fanwidth"))
            for alias in node.names if alias.name.startswith("_")]


# a module's underscore names are its own; the oracles may read them
@pytest.mark.parametrize("name", ["graphs", "treedec", "sparsify", "embedding",
                                  "pipeline", "randomness", "formats", "cli"])
def test_production_module_imports_no_private_name(name):
    assert private_imports((PACKAGE / f"{name}.py").read_text()) == []


@pytest.mark.parametrize("added", ["from .embedding import _Columns\n",
                                   "def f():\n    from . import _helpers\n",
                                   "from fanwidth.pipeline import CENTER, _round_trip\n"])
def test_the_private_guard_sees_an_added_import(added):
    source = (PACKAGE / "graphs.py").read_text() + added
    assert len(private_imports(source)) == 1
    assert private_imports((PACKAGE / "starmetric.py").read_text()) == ["_embedding_shape"]


# The modules each module on the ``import fanwidth.cli`` path imports when it
# is itself imported, in source order.  Every CLI process pays for these, and
# a new one showed as a slower process start, not as a failed test; an import
# the CLI needs on one path only goes inside the function that needs it.
CLI_PATH_IMPORTS = {
    "__init__": ["importlib"],
    "cli": ["argparse", "sys", ".errors"],
    "errors": [],
}

# The same for the modules that the certificate commands load besides those.
COMMAND_PATH_IMPORTS = {
    "formats": ["__future__", "gc", "os", "contextlib", "fractions", ".errors", ".graphs",
                ".pipeline"],
    "graphs": ["__future__", "math", "numbers", "dataclasses", "fractions", ".errors"],
    "oracles": ["__future__", ".errors", ".graphs"],
    "pipeline": ["__future__", "math", "dataclasses", ".errors", ".graphs"],
    "sparsify": ["__future__", "math", "os", "collections", "dataclasses", "fractions",
                 ".errors", ".graphs", ".treedec"],
    "treedec": ["__future__", "heapq", "dataclasses", "functools", "itertools", ".errors",
                ".graphs"],
}


def import_time_imports(source: str) -> list:
    """The modules ``source`` imports when it is imported: every import
    statement outside a function body, as ``.name`` when relative."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.extend(alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                dots = "." * child.level
                found.extend([dots + child.module] if child.module
                             else [dots + alias.name for alias in child.names])
            visit(child)

    visit(ast.parse(source))
    return found


PINNED_IMPORTS = {**CLI_PATH_IMPORTS, **COMMAND_PATH_IMPORTS}


@pytest.mark.parametrize("name", sorted(PINNED_IMPORTS))
def test_cli_path_imports_nothing_new(name):
    assert import_time_imports((PACKAGE / f"{name}.py").read_text()) == PINNED_IMPORTS[name]


WATCHED = ("statistics", "numpy")


def loaded_modules(script: str, *argv) -> tuple:
    """The ``fanwidth`` modules (``__init__`` for the package) and the
    modules of ``WATCHED`` that ``script`` has loaded when it ends, run in a
    fresh interpreter with ``sys`` imported and ``argv`` as its arguments."""
    script = ("import sys\n" + script
              + "print(sorted(m for m in sys.modules if m.startswith('fanwidth')))\n"
              + f"print([m for m in {WATCHED!r} if m in sys.modules])\n")
    proc = subprocess.run([sys.executable, "-c", script, *map(str, argv)],
                          capture_output=True, text=True, check=True)
    package, watched = map(ast.literal_eval, proc.stdout.splitlines()[-2:])
    return {m.partition(".")[2] or "__init__" for m in package}, set(watched)


def test_the_package_import_loads_no_submodule():
    assert loaded_modules("import fanwidth\n") == ({"__init__"}, set())


def test_the_cli_path_is_the_pinned_modules():
    assert loaded_modules("import fanwidth.cli\n") == (set(CLI_PATH_IMPORTS), set())


def test_from_import_returns_the_submodule():
    script = ("from fanwidth import formats\n"
              "assert formats is sys.modules['fanwidth.formats']\n")
    assert loaded_modules(script) == ({"__init__", "errors", "formats", "graphs",
                                       "pipeline"}, set())


# The modules each command loads besides the CLI path, and which of
# ``WATCHED``: every command reads the ordering defaults of ``pipeline``, the
# certificate commands read and write with ``formats``, and only the commands
# that order load ``embedding`` and numpy.
VERIFY_MODULES = {"formats", "graphs", "pipeline"}
SPARSIFY_MODULES = VERIFY_MODULES | {"sparsify", "treedec", "oracles"}
ORDER_MODULES = VERIFY_MODULES | {"sparsify", "treedec", "embedding", "randomness"}
COMMAND_MODULES = {
    "verify-graph": (["verify", "--graph", "g.txt", "--cert", "c.txt"],
                     VERIFY_MODULES, set()),
    "verify-product": (["verify", "--product", "p.txt", "--cert", "c.txt"],
                       VERIFY_MODULES, set()),
    "sparsify-graph": (["sparsify", "--graph", "g.txt", "--D", "8", "--out", "x.txt"],
                       SPARSIFY_MODULES, set()),
    "certify-graph": (["certify", "--graph", "g.txt", "--D", "8", "--out", "x.txt"],
                      ORDER_MODULES, {"statistics", "numpy"}),
    "certify-product": (["certify", "--product", "p.txt", "--D", "8", "--out", "x.txt"],
                        ORDER_MODULES, {"statistics", "numpy"}),
}


def test_each_module_a_command_loads_is_pinned():
    loaded = set().union(*(modules for _, modules, _ in COMMAND_MODULES.values()))
    # the top-level imports of the numerical layers, which load numpy, are
    # not pinned: only the commands that order load them
    assert loaded - {"embedding", "randomness"} == set(COMMAND_PATH_IMPORTS)


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """The 5x5 grid as a graph, inside path(5) x path(5), and its fan
    certificate at b = 5 with an empty X."""
    from fanwidth import ProductVertex, fan_certificate, grid_graph, path_graph
    from fanwidth.formats import (serialize_certificate, serialize_graph,
                                  serialize_product_input)

    work = tmp_path_factory.mktemp("documents")
    g, _ = grid_graph(5, 5)
    placements = [ProductVertex(v % 5, v // 5 + 1) for v in range(25)]
    (work / "g.txt").write_text(serialize_graph(g))
    (work / "p.txt").write_text(serialize_product_input(path_graph(5), None, 5,
                                                        placements, g))
    (work / "c.txt").write_text(serialize_certificate(fan_certificate(g, [], g.vertices(), 5)))
    return work


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_each_command_loads_its_pinned_modules(documents, command):
    argv, modules, watched = COMMAND_MODULES[command]
    script = "import fanwidth.cli\nassert fanwidth.cli.main(sys.argv[1:]) == 0\n"
    loaded = loaded_modules(script, *[documents / arg if arg.endswith(".txt") else arg
                                      for arg in argv])
    assert loaded == (set(CLI_PATH_IMPORTS) | modules, watched)


@pytest.mark.parametrize("added", ["import operator\n", "from .embedding import Embedding\n",
                                   "if True:\n    import numpy as np\n",
                                   "class Late:\n    import itertools\n"])
def test_the_import_guard_sees_an_added_import(added):
    source = (PACKAGE / "graphs.py").read_text() + added
    assert import_time_imports(source) != PINNED_IMPORTS["graphs"]
    assert import_time_imports("def f():\n    import numpy\n") == []


BLAS_NAMES = {"linalg", "dot", "matmul", "einsum", "tensordot"}


def blas_uses(name: str) -> list:
    """Lines of module ``name`` that name a BLAS-backed numpy routine or use
    the ``@`` operator.  Their sums run in an order that depends on the BLAS
    build and its thread count, and the outputs must not."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, ast.MatMult)
            or {getattr(node, field, None) for field in ("id", "attr", "name")}
            & BLAS_NAMES]


@pytest.mark.parametrize("name", ["graphs", "treedec", "sparsify", "embedding",
                                  "pipeline", "randomness"])
def test_production_module_calls_no_blas(name):
    assert blas_uses(name) == []


def test_the_blas_guard_sees_the_matmul_in_starmetric():
    assert blas_uses("starmetric")


NUMPY_SEEDERS = {"default_rng", "SeedSequence"}


def numpy_seedings(source: str) -> list:
    """Lines of ``source`` that call, name or import numpy's ``default_rng``
    or ``SeedSequence``.  ``randomness.label_states`` seeds every generator,
    and numpy's own seeding is only its test reference."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if {getattr(node, field, None) for field in ("id", "attr", "name")}
            & NUMPY_SEEDERS]


@pytest.mark.parametrize("name", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_no_module_seeds_through_numpy(name):
    assert numpy_seedings((PACKAGE / f"{name}.py").read_text()) == []


@pytest.mark.parametrize("added", [
    "rng = np.random.default_rng(3)\n",
    "def f(x):\n    return np.random.SeedSequence(x).generate_state(4)\n",
    "from numpy.random import default_rng as make\n"])
def test_the_seeding_guard_sees_an_added_call(added):
    source = (PACKAGE / "randomness.py").read_text() + added
    assert len(numpy_seedings(source)) == 1
    test_source = (pathlib.Path(__file__).parent / "test_randomness.py").read_text()
    assert numpy_seedings(test_source)


def adjacency_reads(name: str) -> list:
    """Lines of module ``name`` that read an ``_adj`` attribute."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_adj"]


@pytest.mark.parametrize("name", sorted(p.stem for p in PACKAGE.glob("*.py")
                                        if p.stem != "graphs"))
def test_only_graphs_reads_the_adjacency(name):
    assert adjacency_reads(name) == []


def test_the_adjacency_guard_sees_graphs():
    assert adjacency_reads("graphs")


def queue_loops(source: str) -> list:
    """Lines of ``source`` that name ``deque`` or ``popleft``: the marks of a
    hand-written BFS queue loop, which belongs in ``graphs.bfs``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if {getattr(node, field, None) for field in ("id", "attr", "name")}
            & {"deque", "popleft"}]


@pytest.mark.parametrize("name", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_no_hand_written_bfs_queue(name):
    assert queue_loops((PACKAGE / f"{name}.py").read_text()) == []


def test_the_queue_guard_sees_a_queue_loop():
    source = ("from collections import deque\n"
              "queue = deque([0])\n"
              "while queue:\n"
              "    u = queue.popleft()\n")
    assert len(queue_loops(source)) == 3


def adjacency_callers(source: str) -> list:
    """The qualified name of the function around each call of an
    ``adjacency()`` method in ``source``: the tree adjacency of a
    decomposition, which only its cached ``RootedWalk`` builds."""
    callers = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + [child.name])
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "adjacency"):
                callers.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), [])
    return callers


def test_only_the_cached_walk_builds_the_tree_adjacency():
    callers = {p.stem: adjacency_callers(p.read_text())
               for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in callers.items() if found} == {
        "treedec": ["RootedWalk.__init__"]}


def test_the_walk_guard_sees_a_call_in_a_method():
    source = ("class Walker:\n"
              "    def run(self, td):\n"
              "        return [td.adjacency() for _ in range(2)]\n")
    assert adjacency_callers(source) == ["Walker.run"]


# The rules of the ordering parameters, by the text of their messages, and
# the literal defaults of ``a`` and ``restarts``: each is stated in one module,
# ``pipeline`` (``check_ordering_params``, ``DEFAULT_A``, ``DEFAULT_RESTARTS``).
ORDERING_RULES = ["--restarts must be at least 1", "embedding needs k >= 2",
                  "is not a finite positive number", "--dims-cap must be at least 1"]
ORDERING_DEFAULTS = {"a": 193.0, "restarts": 5}


def ordering_statements(sources: dict) -> dict:
    """For each rule message and default, the modules of ``sources`` (module
    name -> source) that state it.  A message is stated by a string constant
    that holds it, docstrings aside.  A default is stated by a literal: the
    default of a parameter named after it, the ``default=`` of an
    ``add_argument`` of its flag, or the value of ``DEFAULT_<NAME>``; and
    ``a``'s 193 by any numeric constant."""
    found = {key: set() for key in ORDERING_RULES + list(ORDERING_DEFAULTS)}
    for module, source in sources.items():
        tree = ast.parse(source)
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                      and node.body and isinstance(node.body[0], ast.Expr)}
        literals = []  # (parameter name, literal value)
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and id(node) not in docstrings:
                if isinstance(node.value, str):
                    for rule in ORDERING_RULES:
                        if rule in node.value:
                            found[rule].add(module)
                elif node.value == ORDERING_DEFAULTS["a"]:
                    literals.append(("a", node.value))
            elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
                args = node.args.posonlyargs + node.args.args
                pairs = list(zip(args[len(args) - len(node.args.defaults):],
                                 node.args.defaults))
                pairs += [(arg, d) for arg, d in zip(node.args.kwonlyargs,
                                                     node.args.kw_defaults) if d]
                literals += [(arg.arg, d.value) for arg, d in pairs
                             if isinstance(d, ast.Constant)]
            elif isinstance(node, ast.Call) and node.args:
                flag = node.args[0]
                if isinstance(flag, ast.Constant) and isinstance(flag.value, str):
                    literals += [(flag.value.lstrip("-"), kw.value.value)
                                 for kw in node.keywords
                                 if kw.arg == "default" and isinstance(kw.value, ast.Constant)]
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant):
                literals += [(target.id[len("DEFAULT_"):].lower(), node.value.value)
                             for target in node.targets
                             if isinstance(target, ast.Name)
                             and target.id.startswith("DEFAULT_")]
        for name, value in literals:
            if name in ORDERING_DEFAULTS and value is not None:
                found[name].add(module)
    return found


def package_sources() -> dict:
    return {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}


def test_each_ordering_rule_and_default_is_stated_once():
    assert ordering_statements(package_sources()) == {
        key: {"pipeline"} for key in ORDERING_RULES + list(ORDERING_DEFAULTS)}


@pytest.mark.parametrize("added, key", [
    ('def check(args):\n    if args.restarts < 1:\n'
     '        raise ValueError("--restarts must be at least 1")\n', ORDERING_RULES[0]),
    ('MESSAGE = f"--a {1!r} is not a finite positive number"\n', ORDERING_RULES[2]),
    ("def run(g, a=193, restarts=None):\n    pass\n", "a"),
    ("def run(g, *, restarts=5):\n    pass\n", "restarts"),
    ('parser.add_argument("--restarts", type=int, default=5)\n', "restarts"),
    ('parser.add_argument("--a", type=float, default=193.0)\n', "a"),
    ("DEFAULT_RESTARTS = 5\n", "restarts"),
    ("a = a or 193.0\n", "a"),
])
def test_the_ordering_guard_sees_a_second_copy(added, key):
    sources = package_sources()
    sources["cli"] += added
    assert ordering_statements(sources)[key] == {"pipeline", "cli"}


def test_the_ordering_guard_skips_docstrings():
    sources = {"doc": '"""Says embedding needs k >= 2."""\n'
                      'def f(restarts=None):\n    "the default a is 193"\n'}
    assert not any(ordering_statements(sources).values())


# Every name ``fanwidth`` exported before the numerical layers became lazy,
# by defining module, in export order.
EXPORTS = {
    "errors": ["ConstraintError", "DegenerateMetricError", "InputError",
               "VerificationFailure"],
    "graphs": ["Graph", "Layering", "ProductVertex", "all_pairs_distances",
               "bandwidth_of_ordering", "bfs_distances", "bfs_layering",
               "build_blowup", "build_fan", "graph_local_density", "grid_graph",
               "path_graph", "product_distance", "strong_product"],
    "treedec": ["TreeDecomposition", "minfill_decomposition",
                "separator_bag_union", "ttree_complete",
                "validate_decomposition", "weighted_separator"],
    "sparsify": ["BakerResult", "StructuredSparsifier", "baker_sparsify",
                 "product_sparsify"],
    "volumes": ["FiniteMetric", "euclidean_volume", "harmonic_number",
                "ivol_sandwich", "reciprocal_sum_check", "tree_volume"],
    "embedding": ["DecompInstance", "Embedding", "build_embedding",
                  "project_order"],
    "starmetric": ["StarMetric", "distortion_volume_report",
                   "metric_local_density", "theoretical_distortion_bound",
                   "verify_metric_axioms"],
    "oracles": ["exact_bandwidth", "exhaustive_local_density"],
    "pipeline": ["Crossing", "DrawnGraph", "FanCertificate", "PipelineResult",
                 "blowup_to_bandwidth", "default_blowup_factor",
                 "fan_certificate", "gk_reduce", "kplanar_reduce",
                 "planar_pipeline", "planarize_drawing", "product_pipeline",
                 "verify_certificate"],
}
EXPORTED = [name for names in EXPORTS.values() for name in names]


class TestExports:
    def test_all_lists_every_export(self):
        assert fanwidth.__all__ == EXPORTED

    @pytest.mark.parametrize("module", sorted(EXPORTS))
    def test_each_export_is_its_module_binding(self, module):
        defining = importlib.import_module(f"fanwidth.{module}")
        for name in EXPORTS[module]:
            assert getattr(fanwidth, name) is getattr(defining, name), name

    def test_star_import_binds_every_export(self):
        # in a fresh interpreter, where no lazy export is resolved yet
        script = (
            "import sys\n"
            "from fanwidth import *\n"
            f"for module, names in {EXPORTS!r}.items():\n"
            "    for name in names:\n"
            "        assert globals()[name] is getattr(\n"
            "            sys.modules['fanwidth.' + module], name), name\n"
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_dir_lists_every_export(self):
        assert set(EXPORTED) <= set(dir(fanwidth))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_export"):
            fanwidth.no_such_export
        assert not hasattr(fanwidth, "no_such_export")
