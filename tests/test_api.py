"""Public surface: every exported name exists, every library attribute the
demos use resolves, every demo runs, and importing the package stays light."""

import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

MODULES = [
    "qtraj",
    "qtraj.analysis",
    "qtraj.atomic",
    "qtraj.cli",
    "qtraj.engine",
    "qtraj.model",
    "qtraj.sampler",
    "qtraj.stats",
]
DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_no_module_imports_a_private_name_of_another():
    # a module's underscore names are its own: a sibling that needs one
    # needs a public name instead
    src = pathlib.Path(importlib.import_module("qtraj").__file__).parent
    private = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("qtraj")):
                private += [f"{path.name}: {a.name}" for a in node.names
                            if a.name.startswith("_") and not a.name.startswith("__")]
    assert private == []


def test_model_laws_take_a_signed_time_not_a_run():
    # every law takes the signed time gt = g*t; only the two helpers that
    # describe a run take its config, and a time on its horizon
    model = importlib.import_module("qtraj.model")
    takes_run = {
        name
        for name in model.__all__
        if inspect.isfunction(getattr(model, name))
        and {"cfg", "t"} & set(inspect.signature(getattr(model, name)).parameters)
    }
    assert takes_run == {"boundary_hill", "reference_moments"}


def _qtraj_aliases(tree):
    """Local name -> module for `import qtraj [as q]` and `from qtraj import m`."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "qtraj":
                    aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom) and node.module == "qtraj":
            for a in node.names:
                aliases[a.asname or a.name] = f"qtraj.{a.name}"
    return aliases


def _dotted(node):
    """['qt', 'Setting', 'P'] for qt.Setting.P; None unless rooted at a name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id, *reversed(parts)]


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_attributes_resolve(path):
    tree = ast.parse(path.read_text())
    aliases = _qtraj_aliases(tree)
    assert aliases, f"{path.name} does not import qtraj"
    unresolved = []
    for node in ast.walk(tree):
        chain = _dotted(node) if isinstance(node, ast.Attribute) else None
        if not chain or chain[0] not in aliases:
            continue
        obj = importlib.import_module(aliases[chain[0]])
        for attr in chain[1:]:
            if not hasattr(obj, attr):
                unresolved.append(".".join(chain))
                break
            obj = getattr(obj, attr)
    assert unresolved == []


@pytest.fixture
def python(child_env):
    """Run a fresh interpreter that imports this checkout's qtraj; keyword
    arguments override its environment (None drops a variable)."""

    def run(args, cwd=None, **env):
        return subprocess.run([sys.executable, *args], cwd=cwd, env=child_env(**env),
                              capture_output=True, text=True, timeout=300)

    return run


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, tmp_path, python):
    # the scan above cannot see instance attributes such as cfg.t_f; the demos
    # write their CSVs into the working directory, here tmp_path
    out = python(["-W", "error::RuntimeWarning", str(path)], cwd=tmp_path)
    assert out.returncode == 0, out.stderr


def test_import_leaves_scipy_stats_unloaded(python):
    # scipy.stats alone costs more import time than the rest of the package
    out = python(["-c", "import sys, qtraj; print('scipy.stats' in sys.modules)"])
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


_THREADS_PROBE = ("import os, qtraj; "
                  "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])")
_needs_proc_tasks = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                       reason="no /proc/self/task to count threads")


@_needs_proc_tasks
def test_import_runs_one_blas_thread_by_default(python):
    # numpy's and scipy's OpenBLAS would each start a helper thread that
    # busy-waits through the rest of the import
    out = python(["-c", _THREADS_PROBE], OPENBLAS_NUM_THREADS=None)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["1", "1"]


@_needs_proc_tasks
def test_import_keeps_an_explicit_blas_thread_count(python):
    out = python(["-c", _THREADS_PROBE], OPENBLAS_NUM_THREADS="2")
    assert out.returncode == 0, out.stderr
    assert out.stdout.split()[1] == "2"


def _tracer_hooks():
    """(owner, attr) of every name perfbench/traced.py's install() wraps."""
    traced = pathlib.Path(__file__).parent.parent / "perfbench" / "traced.py"
    install = next(node for node in ast.walk(ast.parse(traced.read_text()))
                   if isinstance(node, ast.FunctionDef) and node.name == "install")
    hooks = []
    for node in ast.walk(install):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        if node.func.id == "wrap":
            hooks.append((_dotted(node.args[0]), node.args[1].value))
        elif node.func.id == "chunk_iter":
            hooks.append((_dotted(node.args[0]), "iter_chunk_batches"))
    return hooks


def test_tracer_hooks_resolve():
    # the tracer wraps module attributes by name: a hook that a refactor
    # deletes would otherwise fail only inside the slow benchmark self-tests
    hooks = _tracer_hooks()
    assert hooks
    unresolved = []
    for (module, *path), attr in hooks:
        obj = importlib.import_module(f"qtraj.{module}")
        for name in (*path, attr):
            if not hasattr(obj, name):
                unresolved.append(".".join([module, *path, attr]))
                break
            obj = getattr(obj, name)
    assert unresolved == []
