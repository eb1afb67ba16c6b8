"""The public API stays what the package and README say it is."""

import ast
import csv
import importlib
import inspect
import io
import json
import math
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import auxfield
from auxfield import _numpy, cli, exact, specfun, tables
from auxfield.afm import PotentialModel
from auxfield.errors import DomainError
from auxfield.exact import QuantumNumbers

_MODULES = sorted(m.name for m in pkgutil.iter_modules(auxfield.__path__)
                  if not m.ispkg)


@pytest.mark.parametrize("name", ["auxfield"] + [f"auxfield.{m}" for m in _MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def _star_exports(module):
    """The names ``from module import *`` binds: ``__all__``, else every public name."""
    return getattr(module, "__all__", None) or [n for n in vars(module)
                                                if not n.startswith("_")]


@pytest.mark.parametrize("name", [f"auxfield.{m}" for m in _MODULES])
def test_every_public_definition_is_exported(name):
    module = importlib.import_module(name)
    defined = [n for n, obj in vars(module).items() if not n.startswith("_")
               and (inspect.isclass(obj) or inspect.isfunction(obj))
               and obj.__module__ == name]
    unlisted = sorted(set(defined) - set(_star_exports(module)))
    assert not unlisted, f"{name} defines public names missing from __all__: {unlisted}"


def test_package_names_are_exported_by_their_modules():
    for n in auxfield.__all__:
        home = getattr(getattr(auxfield, n), "__module__", "")
        if home.startswith("auxfield."):
            assert n in _star_exports(importlib.import_module(home)), (n, home)


@pytest.mark.parametrize("name", ["__init__"] + _MODULES)
def test_no_module_imports_a_private_name_of_another(name):
    # a private helper has one owner; another module reaches it through a
    # public name, so each rule keeps one definition and one way in
    tree = ast.parse((Path(auxfield.__file__).parent / f"{name}.py").read_text())
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level
               for alias in node.names if alias.name.startswith("_")]
    assert not private, f"auxfield.{name} imports private names: {private}"


# Exported names no src/auxfield module reads, each with the reason it stays
_UNREAD_BY_THE_PACKAGE = {
    "energy_at_aux": "E(nu) off the extremum, which perfbench's sweep differentiates",
    "tangent_check": "the AFM layer's own tangency and bound-sign check",
}


class _Reads(ast.NodeVisitor):
    """Names read (Load context, as a Name or an Attribute) outside the
    definition of the same name."""

    def __init__(self):
        self.reads, self._inside = set(), []

    def _definition(self, node):
        self._inside.append(node.name)
        self.generic_visit(node)
        self._inside.pop()

    visit_FunctionDef = visit_ClassDef = _definition

    def _read(self, name):
        if name not in self._inside:
            self.reads.add(name)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._read(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self._read(node.attr)
        self.generic_visit(node)


def test_every_exported_name_is_read_by_the_package():
    # one way in per capability: a public name only tests call is a wrapper
    # or a test-only formula, which belongs in tests/reference.py
    src = Path(auxfield.__file__).parent
    reads = _Reads()
    for path in sorted(src.glob("*.py")):
        if path.name != "__init__.py":
            reads.visit(ast.parse(path.read_text()))
    exported = {n for m in _MODULES
                for n in getattr(importlib.import_module(f"auxfield.{m}"), "__all__", [])}
    assert sorted(exported - reads.reads) == sorted(_UNREAD_BY_THE_PACKAGE)


def _polynomial_imports(source: str):
    """Imports of numpy.polynomial (or of a name from it) in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.startswith("numpy.polynomial")]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{a.name}" for a in node.names]
            found += [n for n in names if n.startswith("numpy.polynomial")]
    return found


def test_no_module_imports_numpy_polynomial():
    # every closed form is a finite sum or a fixed rule: the package needs no
    # polynomial quadrature nodes, which the references in tests/ keep
    src = Path(auxfield.__file__).parent
    found = {p.name: _polynomial_imports(p.read_text()) for p in sorted(src.glob("*.py"))}
    assert not {name: hits for name, hits in found.items() if hits}
    assert _polynomial_imports("from numpy.polynomial.legendre import leggauss")
    assert _polynomial_imports("from numpy import polynomial")
    assert _polynomial_imports("import numpy.polynomial as P")


def test_every_family_owns_its_trial_mean_v():
    # no inherited default: mean_hamiltonian has one path for every family
    from auxfield.afm import _FAMILIES, PotentialModel
    assert not hasattr(PotentialModel, "trial_mean_v")
    for name, family in _FAMILIES.items():
        assert "trial_mean_v" in vars(family), name


_LINEAR = PotentialModel.linear()
_REFUSALS = {   # each names what is wrong, before any work on the input
    "linear_s_state m = 0": (lambda: exact.linear_s_state(0.0, 1.0, 0), DomainError, "positive"),
    "linear_s_state a < 0": (lambda: exact.linear_s_state(1.0, -1.0, 0), DomainError, "positive"),
    "linear_s_observables m < 0": (lambda: exact.linear_s_observables(-1.0, 1.0, 0),
                                   DomainError, "positive"),
    "linear_s_observables a = 0": (lambda: exact.linear_s_observables(1.0, 0.0, 0),
                                   DomainError, "positive"),
    "airy_ai nan": (lambda: specfun.airy_ai(math.nan), DomainError, "finite"),
    "airy_zero_estimate -1": (lambda: specfun.airy_zero_estimate(-1), DomainError, "index"),
    "laguerre -1": (lambda: specfun.laguerre(-1, 0.0, 1.0), DomainError, "degree"),
    "sample_psi bogus": (lambda: tables.sample_psi(_LINEAR, "bogus", QuantumNumbers(0, 0), [1.0]),
                         DomainError, "aux must be"),
    "build_table nope": (lambda: tables.build_table("nope"), ValueError, "unknown table id"),
    "format_rows xml": (lambda: tables.format_rows([], [], "xml"), ValueError, "unknown format"),
    # the lazy numpy handle answers a dunder probe without importing numpy
    "np.__wrapped__": (lambda: _numpy.np.__wrapped__, AttributeError, "__wrapped__"),
}


@pytest.mark.parametrize("case", _REFUSALS)
def test_bad_inputs_are_refused(case):
    call, error, match = _REFUSALS[case]
    with pytest.raises(error, match=re.escape(match)):
        call()


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert printed and all(math.isfinite(float(x)) for x in printed)


def _readme_cli_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line, comments=True) for line in block.splitlines()
            if line.startswith("auxfield ")]


@pytest.mark.parametrize("argv", _readme_cli_lines(), ids=" ".join)
def test_readme_cli_example_runs(argv, capsys):
    assert cli.main(argv[1:]) == 0
    out = capsys.readouterr().out
    if argv[1:] == ["--help-units"]:
        assert "reduced units" in out
    elif out.startswith(("{", "[")):
        json.loads(out, parse_constant=lambda token: pytest.fail(token))
    else:
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) > 1 and len(rows[0]) > 1
        assert all(len(row) == len(rows[0]) for row in rows)
