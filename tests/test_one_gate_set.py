"""The gate set is stated once, in qdepth.ir: no other module of qdepth
writes a set, tuple, list or dict literal that names two or more GateKind
members. A module that needs a group of kinds takes it from ir
(FLIP_KINDS), or adds one kind to such a group, so a change to the gate
set is made in one place."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qdepth"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "ir.py")


def _is_kind(node) -> bool:
    """Whether an expression is GateKind.NAME, however GateKind is reached."""
    if not isinstance(node, ast.Attribute):
        return False
    owner = node.value
    return (isinstance(owner, ast.Name) and owner.id == "GateKind") or (
        isinstance(owner, ast.Attribute) and owner.attr == "GateKind")


def kind_lists(source: str) -> list[str]:
    """Each literal in `source` that names two or more GateKind members,
    as "line: count"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
            items = node.elts
        elif isinstance(node, ast.Dict):
            items = [*node.keys, *node.values]
        else:
            continue
        named = sum(map(_is_kind, items))
        if named >= 2:
            found.append(f"{node.lineno}: {named} kinds")
    return found


def test_the_modules_are_checked():
    names = {p.name for p in MODULES}
    assert names >= {"sim.py", "oracle.py", "verify.py", "synth.py"}
    assert "ir.py" not in names


def test_only_ir_lists_gate_kinds():
    found = [f"{path.relative_to(SRC)}:{v}" for path in MODULES
             for v in kind_lists(path.read_text(encoding="utf-8"))]
    assert not found, found


@pytest.mark.parametrize("source", [
    "_FLIP = frozenset({GateKind.PAULI_X, GateKind.CNOT, GateKind.TOFFOLI})",
    "ok = gate.kind in (GateKind.PAULI_X, GateKind.CNOT, GateKind.FANOUT)",
    "KINDS = frozenset({\n    GateKind.PAULI_X, GateKind.CNOT,\n    GateKind.PHASE,\n})",
    "KINDS = [ir.GateKind.MODQ, ir.GateKind.FANOUT]",
    "COST = {GateKind.CNOT: 1, GateKind.TOFFOLI: 2}",
    "NAME = {'x': GateKind.PAULI_X, 'h': GateKind.HADAMARD}",
], ids=["frozenset", "tuple", "multiline", "list-dotted", "dict-keys", "dict-values"])
def test_each_list_is_found(source):
    assert kind_lists(source)


def test_one_kind_at_a_time_passes():
    source = ("PERMUTATION_KINDS = FLIP_KINDS | {GateKind.PHASE}\n"
              "modq = gate.kind is GateKind.MODQ\n"
              "pair = (GateKind.MODQ, 3)\n"
              "ok = kind in FLIP_KINDS or kind is GateKind.HADAMARD\n")
    assert kind_lists(source) == []
