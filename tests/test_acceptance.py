"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria (defaults everywhere: unit coefficients, Biot-Willis 1/2, the
penalty constant ``forms.PENALTY``). The rate window of criteria 1 and 3 is
``norms.RATE_WINDOW``, and the oracle bounds of criterion 4 are
``manufactured.ORACLE_TOL``, ``CONTROL_FLOOR`` and ``ORACLE_T``:

1. steady energy-norm rates m = 1, 2, 3 within [m - 0.2, m + 0.3] on three
   polygonal refinements (20/80/320 elements), under a 10-minute budget;
2. spectral trend on the fixed 80-polygon mesh: strictly decreasing error
   for m = 1..5 with a total reduction of at least 1e3;
3. unsteady rates m = 1, 2, 3 with dt = 1e-3, T = 5 dt, theta = 0.5,
   beta = 0.25, gamma = 0.5, without saturation;
4. strong-form oracle residuals < 1e-4 for both manufactured cases at 100+
   points, the unsteady one at t = 0.37 (negative controls > 1e-1, one per
   source and the outlet datum);
5. structural matrix suite: symmetry, PSD sampling, transpose pairing,
   continuous-field jump annihilation;
6. discrete energy non-increasing over 100 unforced steps;
7. agglomeration pipeline hitting targets (910, 101) exactly with purity,
   connectivity, interface preservation, and area conservation;
8. temporal order against the time-harmonic response of the brain demo
   (configs/demo.json on the 80-polygon mesh): as dt halves from 0.01 three
   times, the discrete periodic solution's relative error to the continuous
   one falls by 4 +- 0.3 per halving at theta = 1/2 and by 2 +- 0.15 at
   theta = 0.7 and 1, in every field.
"""

import json
import time
from pathlib import Path

import numpy as np

from polympe import forms, norms, stepping
from polympe.agglomerate import AgglomerationConfig, agglomerate, partition_assignment, validate_partition
from polympe.cli import DemoData, resolve_params
from polympe.driver import convergence_table, solve_steady
from polympe.families import (DEMO_DIRICHLET, VERIFICATION_DIRICHLET, cartesian_two_domain,
                              triangulated_two_domain)
from polympe.manufactured import CONTROL_FLOOR, ORACLE_T, ORACLE_TOL, SOURCES, residual_oracle
from polympe.mesh import ELASTIC, FLUID
from polympe.spaces import l2_project
from polympe.system import build_system, structural_checks

from conftest import harmonic_response


def report(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert passed, line


def finest_rates(rows, m_values):
    out = {}
    for m in m_values:
        mine = [r for r in rows if r["m"] == m]
        out[m] = mine[-1]["rate_energy"]
    return out


def test_criterion_1_steady_convergence(poly_family):
    t0 = time.time()
    rows = convergence_table("steady", poly_family, [1, 2, 3])
    elapsed = time.time() - t0
    rates = finest_rates(rows, [1, 2, 3])
    below, above = norms.RATE_WINDOW
    ok = all(m - below <= rates[m] <= m + above for m in rates)
    ok &= elapsed < 600.0
    report(1, ok, "steady rates " + ", ".join(f"m={m}: {r:.3f}" for m, r in rates.items())
           + f" (windows [m-{below}, m+{above}]), {elapsed:.0f}s")


def test_criterion_2_spectral_trend(mesh80, steady):
    errs = []
    for m in (1, 2, 3, 4, 5):
        state, sysm = solve_steady(steady, mesh80, m)
        eb = norms.energy_norm([state], [0.0], sysm.space, sysm.faces, steady.params, exact=steady)
        errs.append(eb.total)
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    reduction = errs[0] / errs[-1]
    report(2, decreasing and reduction >= 1e3,
           "errors " + ", ".join(f"{e:.3e}" for e in errs)
           + f"; strictly decreasing: {decreasing}, reduction {reduction:.1f}x")


def test_criterion_3_unsteady_convergence(poly_family):
    scheme = stepping.SchemeParams(dt=1e-3, beta=0.25, gamma=0.5, theta=0.5)
    rows = convergence_table("unsteady", poly_family, [1, 2, 3], scheme=scheme, n_steps=5)
    rates = finest_rates(rows, [1, 2, 3])
    below, above = norms.RATE_WINDOW
    ok = all(m - below <= rates[m] <= m + above for m in rates)
    saturated = any(r["err_energy"] <= norms.SATURATION_FLOOR for r in rows)
    report(3, ok and not saturated,
           "unsteady rates " + ", ".join(f"m={m}: {r:.3f}" for m, r in rates.items())
           + f"; saturation: {saturated}")


def test_criterion_4_manufactured_oracle(steady, unsteady):
    details, ok = [], True
    for case, t in ((steady, 0.0), (unsteady, ORACLE_T)):
        rep = residual_oracle(case, n_points=100, t=t)
        details.append(f"{case.name}: {rep.max_residual:.2e}")
        ok &= rep.max_residual < ORACLE_TOL
        for source in SOURCES:
            bad = residual_oracle(case.corrupted(source), n_points=20, t=t)
            details.append(f"{case.name} control {source}: {bad.max_residual:.2e}")
            ok &= bad.max_residual > CONTROL_FLOOR
    report(4, ok, "max residuals " + ", ".join(details)
           + f" (tol {ORACLE_TOL:g}, controls > {CONTROL_FLOOR:g})")


def test_criterion_5_structural_suite(mesh80, unit_params):
    sysm = build_system(mesh80, 2, unit_params, VERIFICATION_DIRICHLET)
    rep = structural_checks(sysm)
    ok = all(v < 1e-12 for v in rep.symmetry.values())
    ok &= all(v >= -1e-10 for v in rep.psd_min.values())
    ok &= all(v < 1e-12 for v in rep.pairing.values())
    ok &= rep.interface_energy < 1e-12

    # continuous degree <= m interpolants with homogeneous Dirichlet traces:
    # every jump-penalty contribution annihilates
    sys4 = build_system(cartesian_two_domain(2), 4, unit_params, VERIFICATION_DIRICHLET)
    space, faces = sys4.space, sys4.faces

    def bubble_el(p):
        b = p[:, 0] * (p[:, 0] + 1) * p[:, 1] * (p[:, 1] - 1)
        return np.stack([b, b], axis=1)

    def bubble_f(p):
        b = p[:, 0] * (p[:, 0] - 1) * p[:, 1] * (p[:, 1] - 1)
        return np.stack([b, b], axis=1)

    jumps = 0.0
    d = l2_project(space, "d", bubble_el)
    jumps = max(jumps, norms.jump_sq(space, faces.sipg_faces("d"), "d", d, unit_params))
    pe = l2_project(space, "p:E", lambda p: bubble_el(p)[:, 0])
    jumps = max(jumps, norms.jump_sq(space, faces.sipg_faces("p:E"), "p:E", pe,
                                     unit_params))
    u = l2_project(space, "u", bubble_f)
    jumps = max(jumps, norms.jump_sq(space, faces.sipg_faces("u"), "u", u, unit_params))
    ok &= jumps < 1e-10
    report(5, ok, f"symmetry max {max(rep.symmetry.values()):.1e}, "
                  f"psd min {min(rep.psd_min.values()):.1e}, "
                  f"pairing max {max(rep.pairing.values()):.1e}, "
                  f"interface energy {rep.interface_energy:.1e}, "
                  f"jump annihilation {jumps:.1e}")


def test_criterion_6_energy_dissipativity(unit_params):
    sysm = build_system(cartesian_two_domain(4), 2, unit_params, VERIFICATION_DIRICHLET)
    rng = np.random.default_rng(7)
    vals = {f: rng.standard_normal(sysm.space.sizes[f]) for f in ("d", "u", "p")}
    vals["z"] = rng.standard_normal(sysm.space.sizes["d"])
    vals["p:E"] = rng.standard_normal(sysm.space.sizes["p:E"])
    sp = stepping.SchemeParams(dt=1e-2, beta=0.25, gamma=0.5, theta=0.5)
    states, _ = stepping.simulate(sysm, sp, forms.ZeroData(), 100, vals)
    E = [stepping.discrete_energy(sysm, s) for s in states]
    ratios = [E[i + 1] / E[i] for i in range(len(E) - 1)]
    ok = all(r <= 1.0 + 1e-10 for r in ratios)
    report(6, ok, f"100 steps, max per-step energy ratio {max(ratios):.12f}")


def test_criterion_7_agglomeration_pipeline():
    fine = triangulated_two_domain(48, nx_el=48, nx_f=12, jitter=0.25)
    cfg = AgglomerationConfig(910, 101, seed=0)
    assignment = partition_assignment(fine, cfg)
    rep = validate_partition(fine, assignment)
    coarse = agglomerate(fine, cfg, assignment)
    counts = {d: coarse.element_domain.count(d) for d in (ELASTIC, FLUID)}
    ok = counts[ELASTIC] == 910 and counts[FLUID] == 101
    ok &= rep.domain_pure and rep.connected and rep.covers_all
    ok &= rep.area_error < 1e-10
    ok &= coarse.interface_edges() == fine.interface_edges()
    report(7, ok, f"targets {counts}, pure={rep.domain_pure}, "
                  f"connected={rep.connected}, area err {rep.area_error:.1e}, "
                  f"interface preserved={coarse.interface_edges() == fine.interface_edges()}")


def test_criterion_8_temporal_order_against_harmonic_response(mesh80):
    # the demo loads are sin(2 pi t) times their value at t = 1/4
    cfg = json.loads((Path(__file__).parents[1] / "configs" / "demo.json").read_text())
    sysm = build_system(mesh80, 2, resolve_params(cfg), DEMO_DIRICHLET)
    loads = forms.assemble_loads(sysm.space, sysm.params, sysm.faces, DemoData(), 0.25)
    omega = 2.0 * np.pi
    exact = harmonic_response(sysm, loads, omega)
    ok, details = True, []
    for theta, ratio, tol in ((0.5, 4.0, 0.3), (0.7, 2.0, 0.15), (1.0, 2.0, 0.15)):
        errs = []
        for dt in (0.01, 0.005, 0.0025, 0.00125):
            X = harmonic_response(sysm, loads, omega, stepping.SchemeParams(dt=dt, theta=theta))
            errs.append({f: np.linalg.norm(X[f] - xc) / np.linalg.norm(xc)
                         for f, xc in exact.items()})
        ratios = [e1[f] / e2[f] for e1, e2 in zip(errs, errs[1:]) for f in exact]
        ok &= all(abs(r - ratio) <= tol for r in ratios)
        details.append(f"theta={theta}: {min(ratios):.3f}-{max(ratios):.3f}")
    report(8, ok, "error ratios per dt halving " + ", ".join(details)
           + " (windows 4 +- 0.3 at theta = 0.5, 2 +- 0.15 otherwise)")
