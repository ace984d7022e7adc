"""The package namespace: public names load their modules on first use."""

import os
import subprocess
import sys

import segrekit

SRC = os.path.dirname(os.path.dirname(os.path.abspath(segrekit.__file__)))


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


def test_the_oracle_runs_without_numpy():
    out = run_python(
        "import sys; sys.modules['numpy'] = None; import segrekit; "
        "from segrekit.parsing import parse_poly; "
        "table = segrekit.VarTable.make(['x'], conjugates=False); "
        "print(segrekit.numeric_oracle([parse_poly('x^4 - 1', table)], ['x'], seed=4).count)")
    assert out.split() == ["4"]


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
