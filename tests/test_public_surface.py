"""The tests, the demos and the other modules reach the dense engine only
through the public names of qdepth.sim: none that starts with an
underscore, not the retired plan accessor, and no monkeypatch of a
qdepth.sim attribute. So the engine's plan can change without a test to
rewrite.

The banned spellings below are split in two pieces, so that a text search
of tests/ for them finds only real uses."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py"),
                  *(p for p in (ROOT / "src" / "qdepth").glob("*.py") if p.name != "sim.py")])
RETIRED = "dense" + "_plan"  # the name the plan's accessor had while it was public


def _sim_aliases(tree: ast.AST) -> set:
    """The local names that `tree` binds to the qdepth.sim module."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(a.asname for a in node.names if a.name == "qdepth.sim" and a.asname)
        elif isinstance(node, ast.ImportFrom) and (
                node.module == "qdepth" or (node.level and node.module is None)):
            aliases.update(a.asname or a.name for a in node.names if a.name == "sim")
    return aliases


def _is_sim(node: ast.AST, aliases: set) -> bool:
    """Whether an expression names the qdepth.sim module."""
    if isinstance(node, ast.Name):
        return node.id in aliases
    return (isinstance(node, ast.Attribute) and node.attr == "sim"
            and isinstance(node.value, ast.Name) and node.value.id == "qdepth")


def _patches_sim(node: ast.AST, aliases: set) -> bool:
    """Whether a call is monkeypatch.setattr or .delattr on a qdepth.sim
    attribute, given by the module or by a dotted string."""
    if not (isinstance(node, ast.Call) and node.args and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("setattr", "delattr")
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "monkeypatch"):
        return False
    target = node.args[0]
    return _is_sim(target, aliases) or (
        isinstance(target, ast.Constant) and str(target.value).startswith("qdepth.sim."))


def violations(source: str) -> list[str]:
    """Each reach past the public names of qdepth.sim in `source`, as
    "line: what"."""
    tree = ast.parse(source)
    aliases, found = _sim_aliases(tree), []
    for node in ast.walk(tree):
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.ImportFrom) and (
                node.module == "qdepth.sim" or (node.level and node.module == "sim")):
            found += [f"{line}: import {a.name}" for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and _is_sim(node.value, aliases) \
                and node.attr.startswith("_"):
            found.append(f"{line}: attribute {node.attr}")
        elif _patches_sim(node, aliases):
            found.append(f"{line}: monkeypatch")
        name = (node.id if isinstance(node, ast.Name) else node.attr
                if isinstance(node, ast.Attribute) else node.name
                if isinstance(node, ast.alias) else None)
        if name == RETIRED:
            found.append(f"{line}: {name}")
    return found


def test_the_demos_are_checked():
    assert {p.name for p in SOURCES} >= {"02_parity_by_conjugation.py", "common.py", "cli.py"}


def test_no_module_reaches_past_the_public_names():
    found = [f"{path.relative_to(ROOT)}:{v}" for path in SOURCES
             for v in violations(path.read_text(encoding="utf-8"))]
    assert not found, found


@pytest.mark.parametrize("source", [
    "from qdepth import sim\nsim." + "_dense_plan",
    "from qdepth import sim as engine\nengine._plan([], 1)",
    "import qdepth.sim\nqdepth.sim." + "_apply",
    "import qdepth.sim as engine\nx = engine._factor",
    "from qdepth.sim import _factor",
    "from .sim import _slab",
    "from . import sim as engine\nengine._flip",
    f"from qdepth.sim import {RETIRED}",
    f"x = {RETIRED}(c)",
    "from qdepth import sim\nmonkeypatch.setattr(sim, 'KEEP_AMPS', 8)",
    "monkeypatch.setattr('qdepth.sim.KEEP_AMPS', 8)",
    "from qdepth import sim\ndef t(monkeypatch):\n    monkeypatch.delattr(sim, 'run')",
], ids=["attribute", "alias", "dotted", "dotted-alias", "import", "relative-import",
        "relative-alias", "retired-import", "retired-name", "monkeypatch",
        "monkeypatch-string", "monkeypatch-delattr"])
def test_each_reach_is_found(source):
    assert violations(source)


def test_public_names_and_other_modules_pass():
    source = ("from qdepth import sim, verify\nfrom qdepth.sim import run, held_shape\n"
              "sim.run, sim.KEEP_AMPS, verify._gate_oracle\n"
              "monkeypatch.setattr(verify, 'run', run)\n_private = 1\n")
    assert violations(source) == []
