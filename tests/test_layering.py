"""The package's module layering: which qcluster modules each one imports."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qcluster"

# Every module of the package and the package modules it may import.
LAYERS = {
    "__init__": {"qarith", "qtorus", "seeds"},
    "__main__": {"cli"},
    "qarith": set(),
    "qtorus": {"qarith"},
    "seeds": {"qarith", "qtorus"},
    "relations": {"qarith", "qtorus", "seeds"},
    "identities": {"qarith"},
    "cli": {"identities", "qtorus", "relations", "seeds"},
}


def package_imports(path):
    """The qcluster modules a source file imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module
            elif node.module and node.module.split(".")[0] == "qcluster":
                module = node.module.partition(".")[2]
            else:
                continue
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "qcluster" and rest:
                    found.add(rest.split(".")[0])
    return found


def test_every_module_is_pinned():
    assert {path.stem for path in PACKAGE.glob("*.py")} == set(LAYERS)


def test_intra_package_imports():
    actual = {path.stem: package_imports(path) for path in PACKAGE.glob("*.py")}
    assert actual == LAYERS


def test_identities_reads_packed_entries_only():
    # Every identity family decides on the q-binomial table's packed
    # entries and bounds its slot width from their bits, so the oracle
    # imports no decoded form and no slot decoder from qarith.
    path = PACKAGE / "identities.py"
    imported = {
        alias.name
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "qarith"
        for alias in node.names
    }
    assert imported and not imported & {"QLaurent", "q_binom", "q_int", "_slots"}
