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


def test_one_kernel_caller_family():
    # The relation plans are the kernel's only callers and `_expand` its
    # only decoder in the package; the general-middle q-commutator adapter
    # and its packer are test oracles (tests/torus_words.py).
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}
    defined = {
        node.name
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert not defined & {"iterated_q_commutator", "_pack"}

    def imported(module):
        return {alias.name for node in ast.walk(trees[module]) if isinstance(node, ast.ImportFrom) for alias in node.names}

    assert not imported("relations") & {"iterated_q_commutator", "_pack"}
    assert "_slot_width" not in imported("qtorus")


def test_relations_writes_its_json_and_reads_strided_entries():
    # Certificates write their own JSON line, quoting strings with the
    # json encoder's escaper alone, and y_j^l's q-binomials are read from
    # the table at the plan's stride, never moved there.
    path = PACKAGE / "relations.py"
    imported = {
        alias.name
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert not imported & {"json", "dumps", "_respread", "_q_binom_entry"}


def test_only_cli_main_writes_stdout():
    # Each subcommand returns its lines and its verdict; main writes the
    # lines in one call and alone maps the verdict to an exit status, and
    # every print goes to stderr.
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

    def function(node):
        while not isinstance(node, (ast.FunctionDef, ast.Module)):
            node = parent[node]
        return getattr(node, "name", None)

    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    writes = [call for call in calls if ast.unparse(call.func).startswith("sys.stdout.write")]
    assert [function(call) for call in writes] == ["main"]
    assert {function(node) for node in ast.walk(tree) if isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.stdout"} == {"main"}
    prints = [call for call in calls if ast.unparse(call.func) == "print"]
    assert prints and all(
        [ast.unparse(k.value) for k in call.keywords if k.arg == "file"] == ["sys.stderr"] for call in prints
    )
    verdicts = {function(node) for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in ("EXIT_OK", "EXIT_FAIL")}
    assert verdicts == {"main"}
