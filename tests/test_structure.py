"""Source-structure checks: one layer traversal, one number rule, one reader.

Loops over ``TestTree.layers`` or ``TestTree.families`` belong to the tree
passes of ``trees`` and the procedure kernels of ``procedures``; every other
module goes through them.  JSON documents read their numbers through
``trees._number``, and only ``cli`` opens files.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "treetest"
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


def test_documents_read_numbers_through_one_rule():
    # a bare int() or float() reads 2.7 as 2, true as 1 and "0.05" as 0.05
    readers = {
        "SimConfig.from_doc": called(definition("simulate.py", "SimConfig", "from_doc")),
        "simulate._branching": called(definition("simulate.py", "_branching")),
        "trees.allocation_from_doc": called(definition("trees.py", "allocation_from_doc")),
    }
    assert {reader: names & {"int", "float"} for reader, names in readers.items()} == {
        reader: set() for reader in readers
    }
    assert all("_number" in names for names in readers.values())  # the scan sees the rule


def test_only_cli_opens_files():
    modules = {path.name: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    assert {name for name, module in modules.items() if "open" in called(module)} == {"cli.py"}
