"""Package surface: the names each module exports, and the README's library example."""

import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import bergman_zeros

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(bergman_zeros.__file__).resolve().parent


def test_all_names_resolve():
    for info in pkgutil.iter_modules(bergman_zeros.__path__):
        module = importlib.import_module(f"bergman_zeros.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"bergman_zeros.{info.name}.__all__ names missing attributes: {missing}"


def _library_uses(name: str) -> list[str]:
    """Places in the library that refer to name, outside its own definition and the __all__ lists.

    A reference is a name or attribute read, an import, or a string equal
    to the name: the experiment drivers are named by their strings in
    `config.EXPERIMENTS`.
    """
    uses = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        listed, own = set(), []
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                listed.update(id(n) for n in ast.walk(node.value))
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
                own.append(range(node.lineno, node.end_lineno + 1))
        for node in ast.walk(tree):
            if (
                (isinstance(node, ast.Name) and node.id == name and not isinstance(node.ctx, ast.Store))
                or (isinstance(node, ast.Attribute) and node.attr == name)
                or (isinstance(node, ast.alias) and node.name == name)
                or (isinstance(node, ast.Constant) and node.value == name and id(node) not in listed)
            ) and not any(node.lineno in lines for lines in own):
                uses.append(f"{path.name}:{node.lineno}")
    return uses


def test_exported_names_used_by_library():
    # an export that only the tests call belongs in tests/oracles.py, not in the library
    unused = [
        f"{info.name}.{name}"
        for info in pkgutil.iter_modules(bergman_zeros.__path__)
        for name in getattr(importlib.import_module(f"bergman_zeros.{info.name}"), "__all__", ())
        if not _library_uses(name)
    ]
    assert not unused, f"exported but used nowhere in the library: {unused}"


def test_top_level_exports_only_version():
    # the submodules become attributes of the package once imported; nothing else is exported
    names = [n for n, v in vars(bergman_zeros).items() if not n.startswith("_") and not inspect.ismodule(v)]
    assert names == []
    assert isinstance(bergman_zeros.__version__, str)


def test_readme_library_example_runs(capsys):
    [block] = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    exec(compile(block, str(README), "exec"), {})
    plateau = capsys.readouterr().out.splitlines()[0]
    assert abs(float(plateau) - 1.0) < 1e-3


def test_disc_and_statistics_take_p_not_a_space():
    # the truncated basis is the concern of `sections` alone; `variance_bipotential` keeps its space because the
    # benchmark calls it with one
    from bergman_zeros import disc, statistics

    takes_space = [
        f"{module.__name__}.{name}"
        for module in (disc, statistics)
        for name in module.__all__
        if inspect.isfunction(fn := getattr(module, name))
        and any("DiscSpace" in str(param.annotation) for param in inspect.signature(fn).parameters.values())
    ]
    assert takes_space == ["bergman_zeros.statistics.variance_bipotential"]


def test_sections_takes_no_matrix_product_outside_find_zeros():
    # a matrix product is a threaded BLAS call, which inside a Monte Carlo chunk fights the chunk pool for the
    # cores; only `find_zeros`, the oracle of the rare fallback rows, may take one
    tree = ast.parse((SRC / "sections.py").read_text(encoding="utf-8"))
    [oracle] = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "find_zeros"]
    inside = {id(node) for node in ast.walk(oracle)}
    found = [
        f"sections.py:{node.lineno}"
        for node in ast.walk(tree)
        if id(node) not in inside
        and (
            (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult))
            or (isinstance(node, ast.Attribute) and node.attr in ("dot", "vdot", "inner", "matmul", "tensordot"))
            or (isinstance(node, ast.Attribute) and node.attr == "linalg")
            or (isinstance(node, ast.ImportFrom) and "linalg" in (node.module or ""))
        )
    ]
    assert not found, f"matrix products outside find_zeros: {found}"


def test_cli_import_leaves_out_scipy():
    # scipy is most of the start-up for a few calls (the clt KS test, the sup search, the bipotential's
    # dilogarithm, the model kernel); the library imports it inside those functions, or in `model`,
    # which is itself imported inside its driver
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    probe = "import sys, bergman_zeros.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
