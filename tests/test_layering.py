"""The package's module layering: which qcluster modules each one imports."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qcluster"

# Every module of the package and the package modules it may import.
LAYERS = {
    "__init__": {"lattice", "qarith", "qtorus", "seeds"},
    "__main__": {"cli"},
    "lattice": set(),
    "qarith": {"lattice"},
    "qtorus": {"lattice", "qarith"},
    "seeds": {"lattice", "qarith", "qtorus"},
    "relations": {"lattice", "qarith", "qtorus", "seeds"},
    "identities": {"lattice", "qarith"},
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


def _names_imported(module):
    path = PACKAGE / f"{module}.py"
    return {alias.name for node in ast.walk(ast.parse(path.read_text(), str(path))) if isinstance(node, ast.ImportFrom) for alias in node.names}


def _names_defined():
    return {
        node.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


def test_one_kernel_caller_family():
    # The relation plans are the kernel's only callers in the package; the
    # general-middle q-commutator adapter is a test oracle
    # (tests/torus_words.py), and no module keeps its old packer.
    assert not _names_defined() & {"iterated_q_commutator", "_pack"}
    assert not _names_imported("relations") & {"iterated_q_commutator", "_pack"}
    assert "_slot_width" not in _names_imported("qtorus")


# The kernel's coefficients are QLaurents, so the relation path packs
# nothing: relations reads no slot width, qtorus reads no slots, and no
# module keeps a packed-coefficient decoder or merger.


def test_relations_reads_no_slot_width():
    assert "_slot_width" not in _names_imported("relations")


def test_qtorus_reads_no_slots():
    assert "_slots" not in _names_imported("qtorus")


def test_no_module_defines_a_packed_coefficient_decoder():
    assert not _names_defined() & {"_unpack", "_merge"}


def test_relations_writes_its_json_and_builds_its_binomials():
    # Certificates write their own JSON line, quoting strings with the
    # json encoder's escaper alone, and y_j^l's q-binomials are built by
    # Pascal's rule, so relations reads no name of
    # the q-binomial table and no relation check adds a row to it.
    path = PACKAGE / "relations.py"
    imported = {
        alias.name
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert not imported & {"json", "dumps", "_respread", "_q_binom_entry", "_Q_BINOM_TABLE", "_fill_q_binom_table", "q_binom"}


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


def _child(*argv):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_cli_import_loads_only_what_every_request_runs():
    # Each qcluster call is a fresh process, so what `import qcluster.cli`
    # loads is paid by every request.  `relations` stays: every seed
    # subcommand but validate and mutate runs it.  The rings, qarith and
    # qtorus, load only for a request that builds an element of one.
    # Modules the interpreter loaded before the import (site hooks) are
    # not counted.
    code = (
        "import sys; before = set(sys.modules); import qcluster.cli; "
        "loaded = set(sys.modules) - before; "
        "print(sorted(loaded & {'dataclasses', 'inspect', 'qcluster.identities', "
        "'qcluster.qarith', 'qcluster.qtorus', 'qcluster.relations'}))"
    )
    assert _child("-c", code) == "['qcluster.relations']\n"


FIXTURES = PACKAGE.parents[1] / "fixtures"

# One request in a fresh interpreter, as a `qcluster` call runs: its
# report, then the ring modules it loaded and its exit status.
_REQUEST = (
    "import sys, qcluster.cli; status = qcluster.cli.main(sys.argv[1:]); "
    "print(sorted({'qcluster.qarith', 'qcluster.qtorus'} & set(sys.modules)), status)"
)

# Every admissible plan is decided on its spans, so a passing relation
# request builds no QLaurent and no TorusElem, and loads neither ring.
PASSING = [
    ("suite", "--seed", "exam1"),
    ("suite", "--seed", "exam3", "--format", "json"),
    ("suite", "--seed", "lambda11"),
    ("verify-serre", "--seed", "exam1", "--i", "2", "--j", "1", "--opposite"),
    ("verify-higher", "--seed", "exam1", "--i", "2", "--j", "1", "--l", "2", "--m", "4"),
    ("verify-lemmas", "--seed", "exam1", "--i", "2", "--j", "1"),
    ("verify-lemmas", "--seed", "exam1", "--i", "2", "--j", "1", "--variant", "L41", "--m", "4", "--t", "1"),
    ("validate", "--seed", "exam3"),
    ("mutate", "--seed", "exam3", "--k", "2"),
]

# Requests that print a ring element or run the q-identity oracle: the
# rings they load, and their report, byte for byte as before the rings
# were deferred.
LOADING = [
    (
        ("vars", "--seed", "exam1"),
        ["qcluster.qarith", "qcluster.qtorus"], 0,
        "y1 = 1 * X^[-1,0,1,0] + 1 * X^[-1,2,0,0]\n"
        "y2 = 1 * X^[0,-1,0,0] + 1 * X^[1,-1,0,1]\n",
    ),
    (
        ("verify-higher", "--seed", "exam1", "--i", "2", "--j", "1", "--l", "2", "--m", "3", "--exploratory"),
        ["qcluster.qarith", "qcluster.qtorus"], 1,
        "higher(i=2, j=1, l=2, m=3) [exploratory]: FAIL [terms=75]\n"
        "  remainder: (q^-2 - q^-1 - 1 + 2*q^3 - q^6 - q^7 + q^8) * X^[2,0,0,4]\n",
    ),
    (
        ("identities", "--family", "PASCAL", "--params", "3,2,1"),
        ["qcluster.qarith"], 0,
        "PASCAL(n=3,r=2,d=1) = PASS\n",
    ),
]


def _request(flags, argv):
    """The child's report and the line naming its rings and exit status;
    the value of --seed names a file of fixtures/."""
    argv = [str(FIXTURES / f"{arg}.json") if flag == "--seed" else arg for flag, arg in zip(("", *argv), argv)]
    report, _, tail = _child(*flags, "-c", _REQUEST, *argv).rstrip("\n").rpartition("\n")
    return report + "\n" if report else "", tail


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "O"])
@pytest.mark.parametrize("argv", PASSING, ids=[" ".join(arg for arg in argv if arg != "--seed") for argv in PASSING])
def test_passing_request_loads_no_ring(flags, argv):
    report, tail = _request(flags, argv)
    assert report and tail == "[] 0"


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "O"])
@pytest.mark.parametrize("argv, rings, status, expected", LOADING, ids=[case[0][0] for case in LOADING])
def test_ring_request_loads_its_ring_and_prints_the_same_bytes(flags, argv, rings, status, expected):
    assert _request(flags, argv) == (expected, f"{rings} {status}")


def test_public_names_load_on_first_access():
    # The ring's public names load through the package's __getattr__
    # (PEP 562), in a fresh interpreter: a star import binds all of
    # __all__, a named import binds the ring's three, dir() lists them
    # before they load, and an unknown name fails as on any module.
    code = """if True:
        import json, sys
        import qcluster
        from qcluster import lattice, seeds
        before = sorted(m for m in ('qcluster.qarith', 'qcluster.qtorus') if m in sys.modules)
        listed = sorted(set(qcluster.__all__) - set(dir(qcluster)))
        from qcluster import QLaurent, TorusElem, q_binom
        star = {}
        exec('from qcluster import *', star)
        from qcluster import qarith, qtorus
        same = [
            QLaurent is qarith.QLaurent, q_binom is qarith.q_binom, TorusElem is qtorus.TorusElem,
            star['SkewForm'] is lattice.SkewForm is qtorus.SkewForm, star['mutate'] is seeds.mutate,
            all(star[name] is getattr(qcluster, name) for name in qcluster.__all__),
        ]
        try:
            qcluster.no_such_name
        except AttributeError as exc:
            refused = str(exc)
        try:
            from qcluster import no_such_name
        except ImportError as exc:
            unimported = exc.name == 'qcluster'
        print(json.dumps([before, listed, sorted(set(qcluster.__all__) - set(star)), len(qcluster.__all__), same, refused, unimported]))
    """
    before, unlisted, unbound, count, same, refused, unimported = json.loads(_child("-c", code))
    assert (before, unlisted, unbound, count) == ([], [], [], 10)
    assert all(same), same
    assert refused == "module 'qcluster' has no attribute 'no_such_name'"
    assert unimported


def test_identities_subcommand_imports_its_oracle():
    assert _child("-m", "qcluster", "identities", "--family", "PASCAL", "--params", "3,2,1") == "PASCAL(n=3,r=2,d=1) = PASS\n"


def test_no_module_imports_dataclasses():
    # Records are named tuples or small plain classes (seeds._Immutable):
    # dataclasses loads inspect, a cost every process would pay at start.
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                assert all(alias.name.split(".")[0] != "dataclasses" for alias in node.names), path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.level or (node.module or "").split(".")[0] != "dataclasses", path.name
