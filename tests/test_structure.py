"""Source-structure checks: one layer traversal, one number rule, one count
floor, one level rule, one per-vertex rule, one vertex id rule, one reader,
no fresh block arrays, no unused public names or members, no test module
lost, exact audits apart from the simulator, one scipy user, one score
writer.

Loops over ``TestTree.layers`` or ``TestTree.families`` belong to the tree
passes of ``trees`` and the procedure kernels of ``procedures``; every other
module goes through them.  The simulator draws each block into its worker's
scratch.  JSON documents, ``SimConfig`` and count arguments read their
numbers through ``trees._number``, every count with a floor through
``trees._integer`` (``_number``, then the floor: the one place a "must be
>= " refusal is written), scalar test levels through ``trees._level`` and
noise scales through ``gaussian._check_sigma`` (both by ``_number``),
per-vertex inputs their shape through
``trees._per_vertex``, arrays of numbers their dtype through
``trees._numeric``, truth through ``trees._truth_flags`` and vertex ids
through ``trees._vertex``, and only ``cli`` opens files.  The audits of
``exact`` check the simulator's guarantee, so they import nothing from
``simulate``, and they reach a tree only through the passes of ``trees``;
the normal CDF and quantile come from ``gaussian`` alone, the one module
that imports scipy, and only at its first kernel call; the scores ``-|z|``
and their p-values are written by ``gaussian._scores`` alone.  Every name the
package exports, and every public member of an exported class, has a user
outside the tests, every test module imports, and every mutant of the
register in ``mutants.py`` applies to exactly one place.

Each library module's ``__all__`` is the export list: ``__init__`` holds
only one star import per module and ``__version__``, the lists share no
name, and each listed name is defined in the module that lists it.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import mutants

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "treetest"
OWNERS = ("trees.py", "procedures.py")


def layer_loops(path: Path) -> list[int]:
    """Lines of ``for`` loops and comprehensions whose iterable reads a
    ``.layers`` or ``.families`` attribute."""
    loops = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            names = {n.attr for n in ast.walk(node.iter) if isinstance(n, ast.Attribute)}
            if names & {"layers", "families"}:
                loops.append(node.iter.lineno)
    return loops


def test_only_trees_and_procedures_loop_over_layers():
    loops = {path.name: layer_loops(path) for path in sorted(SRC.glob("*.py"))}
    assert loops["trees.py"]  # the scan sees the passes themselves
    assert {name: lines for name, lines in loops.items() if lines and name not in OWNERS} == {}


def called(node: ast.AST) -> set[str]:
    """Names of the functions and methods called anywhere inside ``node``."""
    return {
        call.func.id if isinstance(call.func, ast.Name) else call.func.attr
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and isinstance(call.func, (ast.Name, ast.Attribute))
    }


def definition(module: str, *names: str) -> ast.AST:
    """The class or function ``names`` (outermost first) of a source module."""
    node: ast.AST = ast.parse((SRC / module).read_text(), filename=module)
    for name in names:
        node = next(
            n for n in ast.iter_child_nodes(node)
            if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name
        )
    return node


def test_block_draw_fills_the_scratch():
    # a block drawn with a shape argument or into a fresh array allocates
    # its memory anew; only the scratch helper allocates
    draw = definition("simulate.py", "_Instance", "draw_block")
    rng_calls = [
        call for call in ast.walk(draw)
        if isinstance(call, ast.Call)
        and getattr(call.func, "attr", None) in ("random", "standard_normal")
    ]
    assert rng_calls  # the scan sees the draw
    shaped = [c for c in rng_calls if c.args or [k.arg for k in c.keywords] != ["out"]]
    assert [ast.unparse(c) for c in shaped] == []
    allocators = {"empty", "zeros", "ones", "full"}
    allocators |= {f"{name}_like" for name in allocators}
    assert called(draw) & allocators == set()
    assert called(definition("simulate.py", "_transposed")) & allocators == set()
    assert called(definition("simulate.py", "_Instance", "_nested")) & allocators == set()
    assert "empty" in called(definition("simulate.py", "_Instance", "scratch"))


def test_documents_read_numbers_through_one_rule():
    # a bare int() or float() reads 2.7 as 2, true as 1 and "0.05" as 0.05
    readers = {
        "SimConfig.__post_init__": called(
            definition("simulate.py", "SimConfig", "__post_init__")
        ),
        "simulate._branching": called(definition("simulate.py", "_branching")),
        "trees.allocation_from_doc": called(definition("trees.py", "allocation_from_doc")),
        "trees.build_complete_tree": called(definition("trees.py", "build_complete_tree")),
        "trees._branching_list": called(definition("trees.py", "_branching_list")),
        "exact.audit_alpha_sums": called(definition("exact.py", "audit_alpha_sums")),
        "localize.build_interval_tree": called(definition("localize.py", "build_interval_tree")),
    }
    assert {reader: names & {"int", "float"} for reader, names in readers.items()} == {
        reader: set() for reader in readers
    }
    # the scan sees the rule, called directly, through the count reader or through the
    # branching-list reader
    assert all(names & {"_number", "_integer", "_branching_list"} for names in readers.values())
    # a config's numbers are read once, by __post_init__, whatever built it
    assert "_number" not in called(definition("simulate.py", "SimConfig", "from_doc"))


def test_counts_read_through_one_floor():
    # eleven hand-written floors in six modules once gave four kinds of message
    # for one refusal, and monte_carlo_bound checked none
    owner = definition("trees.py", "_integer")
    floors = {(path.name, i) for path in SRC.glob("*.py")
              for i, line in enumerate(path.read_text().splitlines(), 1) if "must be >= " in line}
    assert floors and all(name == "trees.py" and owner.lineno <= i <= owner.end_lineno
                          for name, i in floors), floors
    sites = [("trees.py", "_branching_list"), ("exact.py", "audit_alpha_sums"),
             ("wavelet.py", "WaveletTree", "__post_init__"), ("wavelet.py", "level_thresholds"),
             ("localize.py", "build_interval_tree"), ("localize.py", "localize"),
             ("simulate.py", "SimConfig", "__post_init__"), ("simulate.py", "compare_procedures"),
             ("simulate.py", "monte_carlo_bound"), ("cli.py", "_read_csv")]
    assert [site for site in sites if "_integer" not in called(definition(*site))] == []


def test_per_vertex_inputs_read_through_one_rule():
    # readers with their own checks drift apart: an int8 cast before the
    # 0/1 check once read truth 0.9 as a false null
    shape_readers = {
        "trees.as_levels": called(definition("trees.py", "as_levels")),
        "trees.as_truth": called(definition("trees.py", "as_truth")),
        "trees._weights": called(definition("trees.py", "_weights")),
        "procedures.descend": called(definition("procedures.py", "descend")),
    }
    # weights are read by one helper, for the allocation and for a SimConfig alike
    weight_readers = [definition("trees.py", "weighted_levels"),
                      definition("simulate.py", "SimConfig", "__post_init__")]
    assert all("_weights" in called(node) for node in weight_readers)
    truth_readers = {
        "trees.as_truth": shape_readers["trees.as_truth"],
        "procedures.error_report": called(definition("procedures.py", "error_report")),
        "SimConfig.__post_init__": called(definition("simulate.py", "SimConfig", "__post_init__")),
    }
    assert {r: "_per_vertex" in names for r, names in shape_readers.items()} == dict.fromkeys(
        shape_readers, True
    )
    assert {r: "_truth_flags" in names for r, names in truth_readers.items()} == dict.fromkeys(
        truth_readers, True
    )


def test_array_inputs_read_through_one_numeric_rule():
    # a float64 cast reads "0.01" as 0.01 and True as 1: holm(["0.01",
    # "0.2"]) once rejected the first, and boolean p-values made descend
    # reject vertices 0 and 1
    readers = {
        "trees.TestTree": definition("trees.py", "TestTree", "__init__"),
        "trees.AlphaAllocation": definition("trees.py", "AlphaAllocation", "__post_init__"),
        "trees._weights": definition("trees.py", "_weights"),
        "procedures._checked_pvalues": definition("procedures.py", "_checked_pvalues"),
        "procedures.descend": definition("procedures.py", "descend"),
        "procedures.descend_batch": definition("procedures.py", "descend_batch"),
        "procedures.descend_local": definition("procedures.py", "descend_local"),
        "localize.TrialMatrix": definition("localize.py", "TrialMatrix", "__post_init__"),
        "wavelet.haar_forward": definition("wavelet.py", "haar_forward"),
        "wavelet.denoise": definition("wavelet.py", "denoise"),
        "wavelet.WaveletTree": definition("wavelet.py", "WaveletTree", "__post_init__"),
        "gaussian.std_normal_cdf": definition("gaussian.py", "std_normal_cdf"),
        "gaussian.std_normal_quantile": definition("gaussian.py", "std_normal_quantile"),
        "gaussian.two_sided_pvalue": definition("gaussian.py", "two_sided_pvalue"),
    }
    casts = {"array", "asarray", "asanyarray", "ascontiguousarray", "astype"}
    float_casts = {
        reader: [ast.unparse(call) for call in ast.walk(node) if isinstance(call, ast.Call)
                 and getattr(call.func, "attr", getattr(call.func, "id", None)) in casts
                 and any("float" in ast.unparse(arg) for arg in [*call.args, *call.keywords])]
        for reader, node in readers.items()
    }
    assert float_casts == dict.fromkeys(readers, [])
    assert {r: "_numeric" in called(node) for r, node in readers.items()} == dict.fromkeys(
        readers, True
    )
    flat = ("holm", "bonferroni", "benjamini_hochberg")
    assert all("_checked_pvalues" in called(definition("procedures.py", name)) for name in flat)


def test_exact_reaches_trees_only_through_the_passes():
    # the audit once walked tree.children vertex by vertex, building every
    # attainable sum once per allocation; its tree work is the passes of
    # trees, so no per-vertex Python walk comes back
    module = ast.parse((SRC / "exact.py").read_text(), filename="exact.py")
    assert "children" not in called(module)
    read = {node.attr for node in ast.walk(module) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "tree"}
    assert read <= {"n_vertices", "child_counts"}
    assert {"_fold_up", "_first_true", "_subtree_sums"} <= called(module)


def test_vertex_ids_read_through_one_rule():
    # hand-written id checks drift apart: int() read 1.7 and True as
    # vertex 1, a negative id wrapped, and an id past the end was dropped
    readers = {
        "TestTree.children": called(definition("trees.py", "TestTree", "children")),
        "trees.ancestors": called(definition("trees.py", "ancestors")),
        "procedures.descend": called(definition("procedures.py", "descend")),
        "procedures.descend_local": called(definition("procedures.py", "descend_local")),
        "procedures.error_report": called(definition("procedures.py", "error_report")),
    }
    assert {r: ("_vertex" in names, "int" in names) for r, names in readers.items()} == (
        dict.fromkeys(readers, (True, False))
    )


def level_checks(node: ast.AST) -> set[tuple[int, int]]:
    """Places of the chains ``0 < x < 1`` and ``0 < x <= 1`` inside ``node``:
    a scalar test level checked against its range."""
    return {
        (c.lineno, c.col_offset) for c in ast.walk(node)
        if isinstance(c, ast.Compare) and len(c.ops) == 2 and isinstance(c.ops[0], ast.Lt)
        and isinstance(c.left, ast.Constant) and c.left.value == 0
        and isinstance(c.comparators[-1], ast.Constant) and c.comparators[-1].value == 1
    }


def test_levels_read_through_one_rule():
    # eight copies of the range check once ran True as level 1 and ended
    # "0.05" in a bare comparison TypeError
    level_readers = {
        "trees.uniform_levels": definition("trees.py", "uniform_levels"),
        "trees.weighted_levels": definition("trees.py", "weighted_levels"),
        "procedures.holm": definition("procedures.py", "holm"),
        "procedures.bonferroni": definition("procedures.py", "bonferroni"),
        "procedures.benjamini_hochberg": definition("procedures.py", "benjamini_hochberg"),
        "wavelet.level_thresholds": definition("wavelet.py", "level_thresholds"),
        "wavelet.keep_mask": definition("wavelet.py", "keep_mask"),
        "gaussian.critical_z": definition("gaussian.py", "critical_z"),
        "SimConfig.__post_init__": definition("simulate.py", "SimConfig", "__post_init__"),
    }
    scale_readers = {
        "localize.TrialMatrix": definition("localize.py", "TrialMatrix", "__post_init__"),
        "wavelet.level_thresholds": level_readers["wavelet.level_thresholds"],
        "wavelet.keep_mask": level_readers["wavelet.keep_mask"],
        "wavelet.denoise": definition("wavelet.py", "denoise"),
    }
    assert {r: "_level" in called(node) for r, node in level_readers.items()} == dict.fromkeys(
        level_readers, True
    )
    assert {r: "_check_sigma" in called(node) for r, node in scale_readers.items()} == (
        dict.fromkeys(scale_readers, True)
    )
    assert "_number" in called(definition("gaussian.py", "_check_sigma"))
    rule = level_checks(definition("trees.py", "_level"))
    assert rule  # the scan sees the rule itself
    checks = {path.name: level_checks(ast.parse(path.read_text())) for path in SRC.glob("*.py")}
    checks["trees.py"] -= rule
    assert {name: places for name, places in checks.items() if places} == {}


def imports(path: Path) -> set[str]:
    """Dotted names a source file imports, package-relative ones under
    ``treetest``; ``from m import n`` gives both ``m`` and ``m.n``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["treetest" if node.level else "", node.module]))
            names.add(module)
            names.update(f"{module}.{a.name}" for a in node.names)
    return names


def test_exact_imports_nothing_from_simulate():
    # an oracle that runs the simulator's code cannot catch its faults
    names = imports(SRC / "exact.py")
    assert "treetest.trees" in names  # the scan sees the package imports
    assert sorted(n for n in names if (n + ".").startswith("treetest.simulate.")) == []


def test_only_gaussian_imports_scipy():
    # one p-value kernel: a second module calling ndtr or ndtri can drift from it
    users = {path.name for path in SRC.glob("*.py")
             if any(n.split(".")[0] == "scipy" for n in imports(path))}
    assert users == {"gaussian.py"}


def test_only_gaussian_writes_scores():
    # one score kernel, gaussian._scores: -|z| or its p-value written by a
    # second module can drift from the scores the cuts were made for
    names = {}
    for path in sorted(SRC.glob("*.py")):
        found = {node.attr if isinstance(node, ast.Attribute) else node.id
                 for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                 if isinstance(node, (ast.Attribute, ast.Name))}
        if found := sorted(found & {"negative", "ndtr"}):
            names[path.name] = found
    assert names == {"gaussian.py": ["ndtr", "negative"]}


def import_time(node: ast.AST):
    """Nodes under ``node`` that run when their module is imported: all but
    the bodies of functions."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from import_time(child)


def test_no_module_imports_scipy_at_import():
    # scipy loads at the first kernel call, so `import treetest` and the
    # commands that compute no p-value start without it
    loaded = {}
    for path in sorted(SRC.glob("*.py")):
        names = set()
        for node in import_time(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(node.module)
        loaded[path.name] = names
    assert "numpy" in loaded["gaussian.py"]  # the scan sees module-level imports
    assert {name: sorted(n for n in names if n.split(".")[0] == "scipy")
            for name, names in loaded.items()} == {name: [] for name in loaded}


def test_only_cli_opens_files():
    modules = {path.name: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    assert {name for name, module in modules.items() if "open" in called(module)} == {"cli.py"}


# Exported names that no user path reaches, each kept on purpose.
UNUSED_EXPORTS = {
    "holm": "the scalar form of the Holm kernel that the simulator runs flat",
    "bonferroni": "the scalar form of the Bonferroni kernel that the simulator runs flat",
    "benjamini_hochberg": "the scalar form of the BH kernel that the simulator runs flat",
    "allocation_doc": "writes the allocation document that validate-lb --tree reads",
}


def referenced(path: Path, exports: dict[str, str]) -> set[str]:
    """Names read in a source file as a ``Name`` or an ``Attribute``; inside
    the package module that defines an export, its own definition does not
    count as a use of it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)):
            names[id(node)] = node.id if isinstance(node, ast.Name) else node.attr
    for top in tree.body:
        if path.parent == SRC and exports.get(getattr(top, "name", None)) == path.stem:
            for node in ast.walk(top):
                if names.get(id(node)) == top.name:
                    del names[id(node)]
    return set(names.values())


def export_lists() -> dict[str, list[str]]:
    """The ``__all__`` of each module that ``__init__`` imports from, in
    import order."""
    init = ast.parse((SRC / "__init__.py").read_text())
    return {node.module: importlib.import_module(f"treetest.{node.module}").__all__
            for node in init.body if isinstance(node, ast.ImportFrom)}


def exported() -> dict[str, str]:
    """The package's exported names, each mapped to its defining module."""
    return {name: module for module, names in export_lists().items() for name in names}


# The package namespace of a fresh `import treetest`: the exports and the
# library modules that the star imports load.
NAMESPACE = [
    "AlphaAllocation", "AlphaSumAudit", "BudgetError", "DenoiseResult", "ErrorReport",
    "IntervalNode", "IntervalTree", "LEVEL_SUM_TOL", "LocalizeResult", "PROCEDURES",
    "SimConfig", "SimReport", "SubtreeAudit", "TestTree", "TreeRejections", "TrialMatrix",
    "WaveletTree", "allocation_doc", "allocation_from_doc", "ancestors", "audit_alpha_sums",
    "audit_subtree_sums", "benjamini_hochberg", "bonferroni", "build_complete_tree",
    "build_interval_tree", "compare_procedures", "critical_z", "denoise", "descend",
    "descend_batch", "descend_local", "error_report", "estimate_sigma", "exact",
    "first_true_vertices", "format_comparison", "gaussian", "haar_forward", "haar_inverse",
    "holm", "interval_pvalues", "keep_mask", "level_budget_violations", "level_thresholds",
    "localize", "monte_carlo_bound", "procedures", "simulate", "std_normal_cdf",
    "std_normal_quantile", "trees", "two_sided_pvalue", "uniform_levels", "wavelet",
    "weighted_levels",
]


def test_package_namespace_is_pinned():
    # test_every_export_has_a_user counts uses inside the package, so a
    # private helper added to an __all__ would pass it; this list would not.
    # A fresh interpreter, because importing treetest.cli elsewhere in the
    # run adds `cli` to the namespace.
    code = "import treetest; print(*sorted(n for n in dir(treetest) if not n.startswith('__')))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == NAMESPACE


def test_init_only_republishes_module_exports():
    # a name imported or defined in __init__ itself would be a second export list
    init = ast.parse((SRC / "__init__.py").read_text())
    body = [node for node in init.body if not isinstance(node, ast.Expr)]  # the docstring
    stars = [node for node in body if isinstance(node, ast.ImportFrom)]
    assert [ast.unparse(node) for node in body if node not in stars] == ["__version__ = '0.1.0'"]
    assert {(node.level, *(a.name for a in node.names)) for node in stars} == {(1, "*")}
    assert set(export_lists()) == {p.stem for p in SRC.glob("*.py")} - {
        "__init__", "__main__", "cli"
    }


def test_export_lists_are_disjoint():
    # a name in two lists would be silently taken from the later star import
    seen: dict[str, list[str]] = {}
    for module, names in export_lists().items():
        assert len(set(names)) == len(names), module
        for name in names:
            seen.setdefault(name, []).append(module)
    assert {name: ms for name, ms in seen.items() if len(ms) > 1} == {}


def test_exports_are_defined_where_listed():
    # a listed name that is only imported into its module would map to the
    # wrong module in exported(), and escape the member scan
    for module, listed in export_lists().items():
        tree = ast.parse((SRC / f"{module}.py").read_text())
        defined = {node.name for node in tree.body
                   if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
        defined |= {t.id for node in tree.body if isinstance(node, ast.Assign)
                    for t in node.targets if isinstance(t, ast.Name)}
        defined |= {node.target.id for node in tree.body
                    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)}
        assert sorted(set(listed) - defined) == [], module


# Users: the package's modules, the demos, the benchmark and the acceptance
# suite; a name only the unit tests call is dead weight.
USERS = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
USERS += [*ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py"), ROOT / "tests" / "test_acceptance.py"]


def test_every_export_has_a_user():
    exports = exported()
    used = set().union(*(referenced(path, exports) for path in USERS))
    assert len(exports) > 50 and "simulate" in used  # the scan sees the package
    assert sorted(set(exports) - used) == sorted(UNUSED_EXPORTS)


# Public members of exported classes that no user path reads, each kept on
# purpose as ``"Class.member": reason``.
UNUSED_MEMBERS: dict[str, str] = {}


def members(cls: ast.ClassDef) -> list[str]:
    """Public methods and properties of a class, and its fields if it is a
    dataclass."""
    dataclass = any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
        for d in cls.decorator_list
    )
    names = [node.name for node in cls.body if isinstance(node, ast.FunctionDef)]
    if dataclass:
        names += [node.target.id for node in cls.body if isinstance(node, ast.AnnAssign)]
    return [name for name in names if not name.startswith("_")]


def test_every_member_has_a_user():
    """A member is used when a user path reads its name as an attribute, of
    any object.  A name shared with another member or attribute can thus only
    hide an unused member, never flag a used one.  A member that only the
    unit tests read fails it."""
    read = {
        node.attr for path in USERS for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    declared = {}
    for name, module in exported().items():
        for node in ast.parse((SRC / f"{module}.py").read_text()).body:
            if isinstance(node, ast.ClassDef) and node.name == name:
                declared.update((f"{name}.{m}", m) for m in members(node))
    assert len(declared) > 50 and "TestTree.children" in declared  # the scan sees the classes
    assert sorted(k for k, m in declared.items() if m not in read) == sorted(UNUSED_MEMBERS)


def test_every_test_module_imports():
    # a module that fails to import drops its tests from a run that goes on
    # past collection errors, instead of failing
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        importlib.import_module(path.stem)


def test_every_mutant_applies_once():
    # a refactor that rewrites a mutant's old text would orphan it silently
    assert len(mutants.MUTANTS) >= 11
    for mutant in mutants.MUTANTS:
        mutants.mutated(mutant, (SRC / mutant.module).read_text())  # ValueError unless once
        assert (ROOT / mutant.killer.split("::")[0]).is_file(), mutant.name
