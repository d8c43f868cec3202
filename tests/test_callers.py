"""Every top-level function and class of ``src/anchorlab``, and every method
of those classes, is read somewhere in ``src/`` or ``perfbench/`` outside
its own definition, or is named in ``ORACLES`` with the reason it stays;
most of those are the scalar oracles that the batched code is tested against.

A reference is a name, an attribute, an imported name, or a string constant
that is exactly the name (perfbench's spans name their targets as strings).
Dunder methods are called by Python itself and are not checked.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "anchorlab"
READERS = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

# Kept without a reader in src/ or perfbench/: (qualified name, why).
ORACLES = (
    ("sample_token", "scalar inverse-CDF draw, the oracle that rollout is tested against"),
    ("verify", "scalar reward check, the oracle for rollout's leaf-id lookup"),
    ("ReasoningTree.child_context",
     "scalar heap rule, the oracle that rollout and oracle_coverage are tested against"),
    ("dump_logit_table", "writes a policy as text; saving each cell's final policy is still open"),
    ("load_logit_table", "reads dump_logit_table text back, for a train --init-policy still open"),
    ("DynamicsReport.series", "one quantity of a report, as the dynamics tests read it"),
)


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def definitions():
    """(qualified name, path, first line, last line) of every checked def."""
    for path in sorted(SRC.glob("*.py")):
        for node in parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            yield node.name, path, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not item.name.startswith("__")):
                        yield f"{node.name}.{item.name}", path, item.lineno, item.end_lineno


def references():
    """(name, path, line) of every name-like reference in the readers."""
    for path in READERS:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            yield name, path, node.lineno


def unread():
    refs = list(references())
    out = []
    for qualname, path, first, last in definitions():
        name = qualname.rsplit(".", 1)[-1]
        if not any(n == name and not (p == path and first <= line <= last)
                   for n, p, line in refs):
            out.append(qualname)
    return out


def test_every_definition_has_a_reader_or_a_reason():
    # Also fails when a kept name gains a reader or is deleted: drop it here.
    assert sorted(unread()) == sorted(name for name, _ in ORACLES)
