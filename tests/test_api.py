"""The public API stays what the package and README say it is."""

import importlib
import math
import pkgutil
import re
from pathlib import Path

import pytest

import auxfield

_MODULES = sorted(m.name for m in pkgutil.iter_modules(auxfield.__path__)
                  if not m.ispkg)


@pytest.mark.parametrize("name", ["auxfield"] + [f"auxfield.{m}" for m in _MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert printed and all(math.isfinite(float(x)) for x in printed)
