"""Source-structure checks: one layer traversal.

Loops over ``TestTree.layers`` or ``TestTree.families`` belong to the tree
passes of ``trees`` and the procedure kernels of ``procedures``; every other
module goes through them.
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
