"""Checks of the benchmark's own tracing and input generation.

Run from the repository root:  python3 -m pytest -q perfbench/test_tracer.py
"""

import itertools
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def _unwrapped_bindings(originals):
    """(module, name) pairs where an auxfield module still binds an original."""
    ids = {id(fn) for fn in originals.values()}
    found = []
    for module in tracer.package_modules():
        namespaces = [("", vars(module))] + [
            (f"{key}[...]", value) for key, value in vars(module).items()
            if isinstance(value, dict)]
        for prefix, ns in namespaces:
            for key, value in ns.items():
                if id(value) in ids:
                    found.append((module.__name__, prefix + str(key)))
    return found


@pytest.fixture
def installed():
    t = tracer.Tracer().install()
    try:
        yield t
    finally:
        t.uninstall()


def test_every_binding_site_is_wrapped(installed):
    from auxfield.afm import PotentialModel
    assert set(tracer.LAYERS) == {key.split(".")[0] for key in installed.originals}
    assert "oracle.solve_radial" in installed.originals
    assert _unwrapped_bindings(installed.originals) == []
    assert getattr(PotentialModel.v, "__traced__", False)
    # the names tables and cli import by name are the traced ones
    from auxfield import cli, tables
    assert cli.solve_radial.__traced__ and tables.solve_radial.__traced__


def test_uninstall_restores_originals():
    t = tracer.Tracer().install()
    originals = dict(t.originals)
    t.uninstall()
    from auxfield import cli, oracle, tables
    from auxfield.afm import PotentialModel
    assert tables.solve_radial is originals["oracle.solve_radial"]
    assert cli.main is originals["cli.main"]
    assert oracle.solve_radial is originals["oracle.solve_radial"]
    assert not getattr(PotentialModel.v, "__traced__", False)


def test_self_time_is_span_minus_children(installed):
    import auxfield as af
    v = af.PotentialModel.logarithmic()
    q = af.QuantumNumbers(1, 2)
    sol = af.afm_solve(v, af.AuxiliaryKind.COULOMB, q)
    af.mean_hamiltonian(v, sol, q)
    stats = installed.stats
    parent = stats["observables.mean_hamiltonian"]
    children = sum(stats[key].total_s for key in
                   ("observables.afm_observable_set", "observables.mean_potential"))
    assert parent.calls == 1 and stats["observables.afm_observable_set"].calls == 1
    assert parent.self_s == pytest.approx(parent.total_s - children, abs=1e-9)
    assert 0.0 <= parent.self_s < parent.total_s


def test_energy_evaluations_counted_only_under_solve(installed):
    import auxfield as af
    v = af.PotentialModel.linear()
    v.v(1.0)
    assert installed.energy_evals == 0
    af.solve_radial(v, af.QuantumNumbers(0, 0), af.SolverConfig(grid_points=2000))
    assert installed.energy_evals > 10


@pytest.mark.parametrize("inputs", [workloads.sweep_inputs, workloads.cold_inputs])
def test_inputs_depend_only_on_seed(inputs):
    first = list(itertools.islice(inputs(7), 40))
    assert first == list(itertools.islice(inputs(7), 40))
    assert first != list(itertools.islice(inputs(8), 40))
