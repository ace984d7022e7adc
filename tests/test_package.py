"""The package namespace: public names load their modules on first use."""

import ast
import glob
import json
import os
import subprocess
import sys
from importlib import import_module

import pytest

import segrekit

SRC = os.path.dirname(os.path.dirname(os.path.abspath(segrekit.__file__)))
TESTS = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(TESTS, "cli_golden.json")

# runs through cli.main those command lines of cli_golden.json whose command
# is in WANTED, then prints their exit codes and stdout and the segrekit
# modules loaded
GOLDEN_SCRIPT = """
import contextlib, io, json, os, sys
from importlib import resources
for var in ("SEGREKIT_SEED", "SEGREKIT_MAX_DEGREE", "SEGREKIT_MAX_BASIS"):
    os.environ.pop(var, None)
from segrekit.cli import main
data = resources.files("segrekit.data")
got = {}
with open(GOLDEN) as fh:
    commands = json.load(fh)
for command in commands:
    argv = [str(data.joinpath(a)) if a.endswith((".mfd", ".map")) else a
            for a in command.split()]
    if argv[0] in WANTED:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            got[command] = {"exit": main(argv), "stdout": out.getvalue()}
print(json.dumps({"commands": got,
                  "modules": sorted(m for m in sys.modules if m.startswith("segrekit."))}))
"""


def run_python(code):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_the_engine_loads_without_the_domain_modules():
    out = run_python(
        "import sys, segrekit; segrekit.groebner_basis; "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('segrekit'))), "
        "'numpy' in sys.modules)")
    assert out.split() == ["segrekit", "segrekit.gaussian", "segrekit.ideal",
                           "segrekit.orders", "segrekit.poly", "False"]


def test_the_parser_loads_without_the_groebner_engine():
    out = run_python(
        "import sys, segrekit.parsing; "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('segrekit'))))")
    assert out.split() == ["segrekit", "segrekit.gaussian", "segrekit.orders",
                           "segrekit.parsing", "segrekit.poly"]


def run_golden(wanted, prelude=""):
    return json.loads(run_python(
        prelude + f"GOLDEN = {GOLDEN!r}; WANTED = {tuple(wanted)!r}\n" + GOLDEN_SCRIPT))


def test_quick_commands_load_only_their_modules():
    got = run_golden(["segre", "essfin", "minimal", "levi"])
    assert len(got["commands"]) == 5
    assert all(run["exit"] == 0 for run in got["commands"].values())
    assert "segrekit.segre" in got["modules"]
    for module in ("correspond", "solve", "catalog"):
        assert "segrekit." + module not in got["modules"]


def test_the_cli_runs_without_dataclasses():
    got = run_golden(["segre", "essfin", "minimal", "levi", "correspond", "suite"],
                     prelude="import sys; sys.modules['dataclasses'] = None\n")
    with open(GOLDEN) as fh:
        assert got["commands"] == json.load(fh)


# the eight command lines the README and CI run, over the bundled data
README_COMMANDS = [
    "segre sphere_C2.mfd --point 1,0",
    "segre sphere_C2.mfd --symbolic",
    "essfin power_r2_n2.mfd --point 1,1",
    "minimal tube_C2.mfd --point 1,0",
    "levi hyperquadric_k1_n3.mfd --point 1,0,0 --conormal 1",
    "correspond power_r2_n2.mfd hyperquadric_k1_n2.mfd square_n2.map --fiber 1,4 --reverse",
    "correspond power_r2_n2.mfd hyperquadric_k1_n2.mfd square_n2.map --fiber 1,4 --splits",
    "suite --all",
]

# runs cli.main on ARGV and prints its exit code and the modules it loaded
COLD_SCRIPT = """
import sys
before = set(sys.modules)
import contextlib, io, json, os
for var in ("SEGREKIT_SEED", "SEGREKIT_MAX_DEGREE", "SEGREKIT_MAX_BASIS"):
    os.environ.pop(var, None)
from segrekit.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(ARGV)
print(json.dumps({"exit": code, "loaded": sorted(set(sys.modules) - before)}))
"""


@pytest.mark.parametrize("command", README_COMMANDS)
def test_a_fresh_command_loads_no_openssl_and_only_the_algebra_it_runs(command):
    """No command loads OpenSSL for its input digests or ``fractions`` (and
    so ``decimal``) for its numbers, and only ``levi`` and ``suite``, which
    form Levi matrices, load the linear algebra."""
    data = os.path.join(SRC, "segrekit", "data")
    argv = [os.path.join(data, a) if a.endswith((".mfd", ".map")) else a
            for a in command.split()]
    got = json.loads(run_python(f"ARGV = {argv!r}\n" + COLD_SCRIPT))
    assert got["exit"] == 0
    loaded = set(got["loaded"])
    assert "segrekit.cli" in loaded
    assert not loaded & {"hashlib", "_hashlib"}
    assert not loaded & {"fractions", "decimal"}
    assert ("segrekit.linalg" in loaded) == (argv[0] in ("levi", "suite"))


@pytest.mark.parametrize("text", ["", "vars z1 z2\nrho: z1*~z1 + z2*~z2 - 1\n", "\u03c1 = |z|\u00b2",
                                  "x" * 100000])
def test_input_digests_are_sha256(text):
    """The digest comes from the interpreter's own SHA-256 module where it
    has one, and agrees with hashlib's."""
    import hashlib

    from segrekit.report import Report

    rep = Report("segre", 0)
    rep.add_input("manifold", text)
    assert rep.inputs == {"manifold": hashlib.sha256(text.encode()).hexdigest()[:16]}


def test_the_oracle_runs_without_numpy():
    out = run_python(
        f"import sys; sys.modules['numpy'] = None; sys.path.insert(0, {TESTS!r}); "
        "from oracle import numeric_oracle; import segrekit; "
        "from segrekit.parsing import parse_poly; "
        "table = segrekit.VarTable.make(['x'], conjugates=False); "
        "print(numeric_oracle([parse_poly('x^4 - 1', table)], ['x'], seed=4).count)")
    assert out.split() == ["4"]


def test_the_package_holds_no_test_only_names():
    """The numeric oracle is a test helper in tests/oracle.py, and names
    that only tests called are not exported."""
    with pytest.raises(ImportError):
        import_module("segrekit.oracle")
    gone = {"check_reality", "polar", "max_rank_check", "numeric_oracle"}
    assert not gone & set(segrekit.__all__)


def test_every_public_name_resolves():
    for name in segrekit.__all__:
        assert getattr(segrekit, name) is not None
    assert set(segrekit.__all__) <= set(dir(segrekit))
    assert "__version__" in dir(segrekit)
    namespace = {}
    exec("from segrekit import *", namespace)
    assert set(segrekit.__all__) <= set(namespace)
    assert namespace["Poly"] is segrekit.poly.Poly
    try:
        segrekit.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc)
    else:
        raise AssertionError("an unknown name resolved")


def unused_imports(path):
    """The names a module imports and never reads, as a name or as the base
    of an attribute; ``__future__`` imports are exempt."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(set(imported) - read)


def test_no_unused_imports():
    paths = sorted(glob.glob(os.path.join(SRC, "segrekit", "*.py"))
                   + glob.glob(os.path.join(TESTS, "*.py")))
    assert len(paths) > 30
    unused = {os.path.relpath(p, os.path.dirname(TESTS)): names
              for p in paths if (names := unused_imports(p))}
    assert unused == {}


# methods that change a list, dict or set in place
MUTATORS = {"append", "extend", "insert", "remove", "pop", "popitem", "clear", "update",
            "setdefault", "add", "discard", "sort", "reverse", "difference_update",
            "intersection_update", "symmetric_difference_update"}


def _root(node):
    """The name an attribute or subscript chain starts from, or None."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def module_state_mutations(path):
    """Where a module keeps mutable state: a ``global`` statement, a
    ``cache`` or ``lru_cache`` decorator, or a function that assigns to an
    item or attribute of a module-level name, or calls a mutating method on
    it, where the function does not bind that name itself."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    module = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            module.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            module.update((a.asname or a.name).split(".")[0] for a in node.names)
        else:
            module.update(n.id for n in ast.walk(node) if isinstance(n, ast.Name))
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
            continue
        for deco in getattr(fn, "decorator_list", ()):
            target = deco.func if isinstance(deco, ast.Call) else deco
            if (getattr(target, "id", None) or getattr(target, "attr", None)) in ("cache", "lru_cache"):
                found.append(f"{fn.lineno}: cache decorator on {fn.name}")
        bound = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
        bound |= {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
                  and isinstance(n.ctx, ast.Store)}
        shared = module - bound
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                found.append(f"{node.lineno}: global {', '.join(node.names)}")
            elif (isinstance(node, (ast.Subscript, ast.Attribute))
                  and isinstance(node.ctx, (ast.Store, ast.Del)) and _root(node) in shared):
                found.append(f"{node.lineno}: assigns {ast.unparse(node)}")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in MUTATORS and _root(node.func.value) in shared):
                found.append(f"{node.lineno}: calls {ast.unparse(node.func)}")
    return sorted(set(found))


def test_no_module_level_mutable_state():
    """Caches live on the objects a caller holds (a table keeps its orders,
    a manifold its rings and relayouts), never in a module."""
    paths = sorted(glob.glob(os.path.join(SRC, "segrekit", "*.py")))
    assert len(paths) > 10
    found = {os.path.basename(p): f for p in paths if (f := module_state_mutations(p))}
    assert found == {}


@pytest.mark.parametrize("code", [
    "CACHE = {}\ndef f(k):\n    CACHE[k] = 1\n",
    "SEEN = []\ndef f(k):\n    SEEN.append(k)\n",
    "import sys\ndef f(p):\n    sys.path.insert(0, p)\n",
    "COUNT = 0\ndef f():\n    global COUNT\n    COUNT += 1\n",
    "import functools\n@functools.lru_cache(None)\ndef f(k):\n    return k\n",
    "from functools import cache\n@cache\ndef f(k):\n    return k\n",
    "class Box:\n    pass\ndef f(v):\n    Box.value = v\n",
])
def test_the_module_state_check_catches(code, tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(code)
    assert module_state_mutations(str(path))


def test_the_module_state_check_passes_locals(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("CACHE = {}\ndef f(k):\n    CACHE = {}\n    CACHE[k] = 1\n"
                    "    out = []\n    out.append(CACHE.get(k))\n    return out\n")
    assert module_state_mutations(str(path)) == []
