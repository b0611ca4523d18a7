"""Package surface: the names each module exports, and the README's library example."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import bergman_zeros

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_names_resolve():
    for info in pkgutil.iter_modules(bergman_zeros.__path__):
        module = importlib.import_module(f"bergman_zeros.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"bergman_zeros.{info.name}.__all__ names missing attributes: {missing}"


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
