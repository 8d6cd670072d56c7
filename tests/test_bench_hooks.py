"""The benchmark in perfbench/ patches polympe functions by name: phase
gates, size counters read off return values, and timed spans. A renamed
function or a new return shape would make a benchmark run fail or a metric
read 0, so these tests read perfbench's tables (without changing them) and
check them against the code."""

import importlib
import json
import sys
from pathlib import Path

import pytest

from polympe import cli
from polympe.agglomerate import AgglomerationConfig, agglomerate
from polympe.families import VERIFICATION_DIRICHLET, cartesian_two_domain, triangulated_two_domain
from polympe.mesh import build_faces
from polympe.params import PhysicalParams
from polympe.solvers import factorize
from polympe.spaces import build_space
from polympe.stepping import SchemeParams, build_stepping_matrices
from polympe.system import build_system

from conftest import read_config

BENCH = Path(__file__).parents[1] / "perfbench"
CONFIGS = BENCH.parent / "configs"

#: names the benchmark still uses but the code no longer has: the steady
#: wrapper (now driver.solve_steady's own factorization) and the time loop
#: (now stepping.simulate); they are due to be renamed in perfbench
STALE = {"system.build_steady", "stepping.advance"}


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        yield {name: importlib.import_module(name) for name in ("probes", "spec", "workloads")}
    finally:
        sys.path.remove(str(BENCH))


def test_every_hooked_name_resolves(bench):
    probes, spec, workloads = bench["probes"], bench["spec"], bench["workloads"]
    names = (set(workloads.PHASE_GATES) | set(workloads.AgglomerateBrain.gates)
             | set(probes.COUNTERS) | set(spec._SPAN_TIMES))
    targets = probes.layer_targets()
    assert {n for n in names if n not in targets} == STALE


@pytest.fixture(scope="module")
def returns():
    """The return value of each counted function, from small setups."""
    mesh = cartesian_two_domain(2)
    sysm = build_system(mesh, 1, PhysicalParams.unit(), VERIFICATION_DIRICHLET)
    fine = triangulated_two_domain(4)
    return {
        "families.triangulated_two_domain": fine,
        "agglomerate.agglomerate": agglomerate(fine, AgglomerationConfig(2, 2)),
        "mesh.build_faces": build_faces(mesh, VERIFICATION_DIRICHLET),
        "spaces.build_space": build_space(mesh, 1),
        "system.build_system": sysm,
        "stepping.build_stepping_matrices": build_stepping_matrices(sysm, SchemeParams(dt=0.01)),
        "solvers.factorize": factorize(sysm.M_el),
    }


def test_every_counter_reads_its_return_value(bench, returns):
    counters = bench["probes"].COUNTERS
    assert set(counters) == set(returns)
    for span, result in returns.items():
        counts = counters[span](result)
        assert counts, span
        for key, val in counts.items():
            assert int(val) == val and val > 0, (span, key, val)


def test_direct_calls_accept_the_benchmark_arguments(bench):
    # the calls perfbench's workloads make into polympe, with their edits of
    # the shipped configs: a rejected argument would show only as a failed run
    sweep = json.loads((CONFIGS / "verification_unsteady.json").read_text())
    assert cli.resolve_mesh(dict(sweep["convergence"]["meshes"][0], seed=1)).n_elements == 20
    assert SchemeParams(**sweep["scheme"]) == SchemeParams(dt=1e-3)
    demo = json.loads((CONFIGS / "demo.json").read_text())
    demo["mesh"].update(targets=[160, 160], fine_ny=48, seed=1)
    demo["scheme"]["n_steps"] = bench["workloads"].PulsatileMarch.n_steps
    assert read_config("solve", demo)["scheme"]["n_steps"] == 300
