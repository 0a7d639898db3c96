"""The package's module layering and the names the benchmark's tracer reads,
checked on the source with ``ast``.

The layers, bottom up: ``system``, ``sysfile``, ``formula``, ``properties``
and ``composition`` state and decide the semantics; ``registry`` says what
a claim is and how it is decided on one system; ``scenarios`` searches
generated systems; ``cli`` fronts them all.  A module imports only from the
layers below it, and reads every name it imports from a sibling, so no
module re-exports another's names.
"""
import ast
import importlib
from pathlib import Path

import pytest

import anoncheck.cli  # as install() imports it, so that ``anoncheck.cli`` resolves

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "anoncheck"
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
BASE = ("system", "sysfile", "formula", "properties", "composition")


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(), filename=f"{module}.py")


def _sibling_imports(tree: ast.Module):
    """(sibling module, imported names) of every relative import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import x
                yield from ((alias.name, [alias.asname or alias.name]) for alias in node.names)
            else:
                yield node.module, [alias.asname or alias.name for alias in node.names]


@pytest.mark.parametrize("module", BASE + ("registry",))
def test_lower_layers_import_no_search_and_no_cli(module):
    forbidden = {"scenarios", "cli"} | ({"registry"} if module in BASE else set())
    imported = {sibling for sibling, _ in _sibling_imports(_tree(module))}
    assert not imported & forbidden, (module, imported & forbidden)


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")
                                           if p.stem != "__init__"))
def test_every_name_imported_from_a_sibling_is_read(module):
    tree = _tree(module)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = [(sibling, name) for sibling, names in _sibling_imports(tree)
              for name in names if name not in read]
    assert unread == []


def _dotted(node):
    """``a.b.c`` of an attribute chain over a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def test_every_module_attribute_the_tracer_reads_exists():
    """``install()`` in ``perfbench/tracing.py`` rebinds names it reads off
    anoncheck's modules; each ``module.name`` it reads must be defined."""
    install = next(node for node in ast.walk(ast.parse(TRACER.read_text()))
                   if isinstance(node, ast.FunctionDef) and node.name == "install")
    modules = {"anoncheck": anoncheck}
    for node in ast.walk(install):
        if isinstance(node, ast.ImportFrom) and node.module == "anoncheck":
            modules.update((alias.asname or alias.name,
                            importlib.import_module(f"anoncheck.{alias.name}"))
                           for alias in node.names)
    checked = set()
    for node in ast.walk(install):
        dotted = _dotted(node) if isinstance(node, ast.Attribute) else None
        if dotted is None or dotted.split(".")[0] not in modules:
            continue
        root, *attrs = dotted.split(".")
        target = modules[root]
        for attr in attrs:
            assert hasattr(target, attr), dotted
            target = getattr(target, attr)
        checked.add(dotted)
    assert {"scenarios.CheckSuite", "scenarios.check_claim", "scenarios.exhaustive_systems",
            "composition.derive_parallel", "anoncheck.cli.main"} <= checked
