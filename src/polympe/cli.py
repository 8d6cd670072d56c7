"""Command line: the convergence harness, solves, verification oracles and
the agglomeration pipeline. Each command reads its whole JSON config through
:class:`Section` readers and returns its run, which builds the meshes, runs
the solves through :mod:`polympe.driver`, writes the outputs and returns the
exit code and the command's manifest fields; :func:`main` writes the manifest.
A command closes the top level before it reads a section with a required
key, so that a misspelt section name is reported as an unknown key.

Exit codes: 0 on success, 1 when an acceptance-style check fails (rate out
of window, oracle residual too large, invalid partition), 2 on input errors
(missing files, malformed config, unknown keys, values of the wrong type,
invalid meshes or parameters), 3 on numerical failure (singular matrix,
steady residual too large, a time step whose state is not finite).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np

from . import __version__, driver, norms, outputs, stepping
from .agglomerate import AgglomerationConfig, agglomerate, partition_assignment, validate_partition
from .families import DEMO_DIRICHLET, VERIFICATION_DIRICHLET, cartesian_two_domain, triangulated_two_domain
from .forms import ZeroData
from .manufactured import (CONTROL_FLOOR, ORACLE_T, ORACLE_TOL, SOURCES, residual_oracle,
                           steady_case, unsteady_case)
from .mesh import MeshError, load_mesh, quality_report, save_mesh
from .params import PhysicalParams, check_dirichlet
from .solvers import NumericalError
from .system import EXCHANGE, build_system, structural_checks


class ConfigError(Exception):
    pass


def _finite(v) -> bool:
    """Whether a JSON value is a number that converts to a finite float
    (``json`` reads ``NaN``, ``Infinity`` and integers of any size)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


class Section:
    """One JSON object of a config. Each getter returns the value of ``key``
    once its JSON kind is checked, or ``default`` if the key is absent (a key
    without default is required, and a None default admits ``null``); it
    records the value in :attr:`resolved` and names ``<section> <key>`` (as
    ``path`` formats it) in its errors. :meth:`close` rejects every key that
    no getter read."""

    def __init__(self, name: str, doc, path: str = "{} {}"):
        if not isinstance(doc, dict):
            raise ConfigError(f"{name or 'the config'} must be a JSON object, got {doc!r}")
        self.name, self.doc, self._path, self.resolved = name, doc, path, {}

    def path(self, key) -> str:
        return self._path.format(self.name, key) if self.name else key

    def _get(self, key, default, kind: str, ok):
        val = self.doc.get(key, default)
        if val is MISSING:
            raise ConfigError(f"{self.path(key)} is required")
        if key in self.doc and not (ok(val) or (val is None and default is None)):
            raise ConfigError(f"{self.path(key)} must be {kind}, got {val!r}")
        self.resolved[key] = val
        return val

    def integer(self, key, default=MISSING):
        return self._get(key, default, "an integer",
                         lambda v: isinstance(v, int) and not isinstance(v, bool))

    def real(self, key, default=MISSING) -> float:
        return float(self._get(key, default, "a finite number", _finite))

    def flag(self, key, default=MISSING) -> bool:
        return self._get(key, default, "true or false", lambda v: isinstance(v, bool))

    def string(self, key, default=MISSING) -> str:
        return self._get(key, default, "a string", lambda v: isinstance(v, str))

    def ints(self, key, default=MISSING, n=None) -> list:
        """A list of exactly ``n`` integers (of at least one, without ``n``)."""
        return self._get(key, default, f"a list of {n or 'one or more'} integers",
                         lambda v: isinstance(v, list) and (len(v) == n if n else len(v) > 0)
                         and all(isinstance(i, int) and not isinstance(i, bool) for i in v))

    def names(self, key, default=MISSING) -> list:
        return self._get(key, default, "a list of names",
                         lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v))

    def section(self, key, default=MISSING, path: str = "{} {}") -> "Section":
        doc = self._get(key, default, "a JSON object", lambda v: isinstance(v, dict))
        sub = Section(self.path(key), doc, path)
        self.resolved[key] = sub.resolved
        return sub

    def sections(self, key) -> list:
        docs = self._get(key, MISSING, "a list of JSON objects", lambda v: isinstance(v, list))
        subs = [Section(f"{self.path(key)}[{i}]", doc) for i, doc in enumerate(docs)]
        self.resolved[key] = [sub.resolved for sub in subs]
        return subs

    def close(self) -> None:
        unknown = sorted(set(self.doc) - set(self.resolved))
        if unknown:
            raise ConfigError(f"unknown {self.name or 'top-level'} key(s) {unknown}; "
                              f"expected some of {sorted(self.resolved)}")


def _read_spec(sec: Section, family: bool = True) -> dict:
    """Read and close a mesh spec, ``path`` alone or a ``family`` and its keys
    (without ``family``, those of :func:`_fine_mesh`); returns it resolved."""
    if "path" in sec.doc:
        sec.string("path")
    elif not family or sec.string("family") == "agglomerated":
        if family:
            sec.ints("targets", [40, 40], 2)
        sec.integer("fine_ny", 24)
        sec.integer("fine_nx_el", None)
        sec.integer("fine_nx_f", None)
        sec.real("jitter", 0.25)
        sec.integer("seed", 0)
    elif sec.resolved["family"] == "cartesian":
        sec.integer("ny")
        sec.integer("nx", None)
    else:
        raise ConfigError(f"unknown {sec.path('family')} {sec.resolved['family']!r}")
    sec.close()
    return sec.resolved


def _fine_mesh(spec: dict):
    return triangulated_two_domain(spec["fine_ny"], spec["fine_nx_el"], spec["fine_nx_f"],
                                   jitter=spec["jitter"], seed=spec["seed"])


def resolve_mesh(spec: dict):
    """The mesh of a mesh spec (see :func:`_read_spec`)."""
    spec = _read_spec(Section("mesh", spec))
    if "path" in spec:
        return load_mesh(spec["path"])
    if spec["family"] == "cartesian":
        return cartesian_two_domain(spec["ny"], spec["nx"])
    return agglomerate(_fine_mesh(spec), AgglomerationConfig(*spec["targets"], seed=spec["seed"]))


def _merge(sec: Section, current: dict) -> None:
    """Overwrite the entries of ``current`` that ``sec`` names, a mapping (a
    per-compartment parameter or a row of ``beta``) entry by entry."""
    for key, val in current.items():
        if key in sec.doc and key != "compartments":  # a top-level key
            if isinstance(val, dict):
                _merge(sec.section(key, path="{}[{}]"), val)
            else:
                current[key] = sec.real(key)
    sec.close()


def _read_params(cfg: Section) -> PhysicalParams:
    """The ``compartments`` and ``params`` of ``cfg``: a preset and its edits."""
    compartments = cfg.names("compartments", ["E"])
    sec = cfg.section("params", {})
    preset = sec.string("preset", "unit")
    if preset not in ("unit", "brain"):
        raise ConfigError(f"unknown params preset {preset!r}")
    try:
        params = getattr(PhysicalParams, preset)(compartments)
    except ValueError as exc:  # only the compartments can fail a preset
        raise ConfigError(str(exc)) from exc
    _merge(sec, vars(params))
    params.validate()
    return params


def resolve_params(cfg: dict) -> PhysicalParams:
    """The parameters set by a config's ``compartments`` and ``params``."""
    return _read_params(Section("", cfg))


def _read_scheme(sec: Section) -> stepping.SchemeParams:
    """Read and close a ``scheme`` section (defaults: those of SchemeParams)."""
    scheme = stepping.SchemeParams(**{f.name: sec.real(f.name, f.default)
                                      for f in fields(stepping.SchemeParams)})
    sec.close()
    return scheme


def _read_case(cfg: Section, default: str, cases=("steady", "unsteady", "zero", "demo")) -> str:
    """The ``case`` key, one of ``cases``."""
    case_id = cfg.string("case", default)
    if case_id not in cases:
        raise ConfigError(f"unknown case {case_id!r}; expected {', '.join(cases[:-1])} "
                          f"or {cases[-1]}")
    return case_id


def _read_dirichlet(cfg: Section, default: dict, compartments) -> dict:
    """The Dirichlet fields of each boundary label, by default ``default``'s
    (see :func:`~polympe.params.check_dirichlet`)."""
    sec = cfg.section("dirichlet", {lab: sorted(fs) for lab, fs in default.items()},
                      path="{} {!r}")
    out = {lab: set(sec.names(lab)) for lab in sec.doc}
    check_dirichlet(out, compartments)
    return out


class DemoData(ZeroData):
    """Synthetic demo regime: a pulsatile volumetric source in the exchange
    compartment (one heartbeat per second), no other forcing, free outlet."""

    def __init__(self, amplitude=2e-3):
        self.amplitude = amplitude

    def exact(self, key: str, pts, t=0.0):
        if key == f"g:{EXCHANGE}":
            return np.full(len(pts), self.amplitude * np.pi * np.sin(2.0 * np.pi * t))
        return super().exact(key, pts, t)


def cmd_convergence(cfg: Section):
    case_id = _read_case(cfg, "steady", ("steady", "unsteady"))
    conv = cfg.section("convergence", {})
    scfg = cfg.section("scheme", {"dt": 1e-3}) if case_id == "unsteady" else None
    cfg.close()
    specs = [_read_spec(s) for s in conv.sections("meshes")]
    spectral = conv.flag("spectral", False)
    m_values = conv.ints("m_values", [1, 2, 3])
    n_steps = conv.integer("n_steps", 5) if scfg else None
    conv.close()
    if min(m_values) < 1:
        raise ConfigError(f"convergence m_values must be >= 1, got {m_values}")
    if scfg and n_steps < 1:
        raise ConfigError(f"convergence n_steps must be >= 1, got {n_steps}")
    if len(specs) < (1 if spectral else 3):
        raise ConfigError("convergence meshes must be a mesh family with >= 3 refinements "
                          "(or a single mesh with 'spectral': true)")
    scheme = _read_scheme(scfg) if scfg else None

    def run(out: Path):
        meshes = [resolve_mesh(s) for s in specs]
        rows = driver.convergence_table(case_id, meshes, m_values, scheme=scheme, n_steps=n_steps)
        outputs.write_rate_table(rows, out / "rates.csv")

        # the rows of each degree, coarsest mesh first
        per_m = {}
        for row in rows:
            per_m.setdefault(row["m"], []).append(row)
        failures = []
        if spectral:
            # fixed-mesh sweep over m: the error must decrease monotonically
            errs = [per_m[m][-1]["err_energy"] for m in m_values]
            for (m1, e1), (m2, e2) in zip(zip(m_values, errs), zip(m_values[1:], errs[1:])):
                if not e2 < e1:
                    failures.append((m2, e2 / e1))
        else:
            below, above = norms.RATE_WINDOW
            for m in m_values:
                rate = per_m[m][-1]["rate_energy"]
                if not (m - below <= rate <= m + above):
                    failures.append((m, rate))
        for m, r in failures:
            kind = "spectral trend" if spectral else "rate"
            print(f"{kind} check failed at m={m}: {r:.4g}", file=sys.stderr)
        print(f"wrote {out / 'rates.csv'}")

        def value(r):  # no rate is null: json would write NaN, which is not JSON
            return r if math.isfinite(r) else None
        return 1 if failures else 0, {
            "spectral": spectral,
            "observed_rates": {str(m): [value(r["rate_energy"]) for r in per_m[m][1:]]
                               for m in m_values},
            "failures": [{"m": m, "value": value(r)} for m, r in failures],
        }

    return run


def cmd_solve(cfg: Section):
    case_id = _read_case(cfg, "demo")
    spec = _read_spec(cfg.section("mesh", {"family": "cartesian", "ny": 4}))
    m = cfg.integer("degree", 2)
    if m < 1:
        raise ConfigError(f"degree must be >= 1, got {m}")
    if case_id in ("steady", "unsteady"):
        # the manufactured cases bring their own parameters
        data = steady_case() if case_id == "steady" else unsteady_case()
        params, default = data.params, VERIFICATION_DIRICHLET
    else:
        params, default = _read_params(cfg), DEMO_DIRICHLET
        data = DemoData(cfg.real("demo_amplitude", 2e-3)) if case_id == "demo" else ZeroData()
    dirichlet = _read_dirichlet(cfg, default, params.compartments)
    if case_id != "steady":
        scfg, stride = cfg.section("scheme", {}), cfg.integer("snapshot_stride", 1)
    cfg.close()
    if case_id != "steady":
        n_steps = scfg.integer("n_steps", 100)
        scheme = _read_scheme(scfg)
        stepping.check_step_counts(n_steps, stride)

    def run(out: Path):
        mesh = resolve_mesh(spec)
        if case_id == "steady":
            state, sysm = driver.solve_steady(data, mesh, m, dirichlet)
            snaps = [(0, state)]
        else:
            states, times, sysm = driver.solve_unsteady(data, params, mesh, m, scheme, n_steps,
                                                        dirichlet, stride=stride)
            # one snapshot per recorded step, named by step number; the
            # initial state is not written
            snaps = [(int(round(t / scheme.dt)), st) for st, t in zip(states[1:], times[1:])]

        space = sysm.space
        geometry = outputs.vtk_geometry(mesh)
        for i, st in snaps:
            means = outputs.cell_means(space, st)
            outputs.write_snapshot_csv(space, means, out / f"snapshot_{i:06d}.csv")
            outputs.write_snapshot_vtk(space, means, out / f"snapshot_{i:06d}.vtk", geometry)
        print(f"wrote {len(snaps)} snapshots to {out}")
        return 0, {"snapshots": len(snaps), "n_elements": mesh.n_elements,
                   "n_dofs": space.n_dofs, "resolved_params": asdict(sysm.params)}

    return run


def cmd_verify(cfg: Section):
    vcfg = cfg.section("verify", {})
    n_points = vcfg.integer("n_points", 100)
    if n_points < 1:
        raise ConfigError(f"verify n_points must be >= 1, got {n_points}")
    vcfg.close()
    m, params = cfg.integer("degree", 2), _read_params(cfg)
    if m < 1:
        raise ConfigError(f"degree must be >= 1, got {m}")
    spec = _read_spec(cfg.section("mesh", {"family": "cartesian", "ny": 4}))
    dirichlet = _read_dirichlet(cfg, VERIFICATION_DIRICHLET, params.compartments)
    cfg.close()

    def run(out: Path):
        # the mesh and the system first, so that their input errors come
        # before the oracle's runs
        sysm = build_system(resolve_mesh(spec), m, params, dirichlet)
        ok = True
        report_lines = []
        for case, t in ((steady_case(), 0.0), (unsteady_case(), ORACLE_T)):
            rep = residual_oracle(case, n_points=n_points, t=t)
            report_lines.append(f"[{case.name}] max residual {rep.max_residual:.3e} "
                                f"(tol {ORACLE_TOL:g})")
            report_lines.append(rep.summary())
            ok &= rep.max_residual < ORACLE_TOL
            for source in SOURCES:
                bad = residual_oracle(case.corrupted(source), n_points=10, t=t)
                report_lines.append(f"[{case.name}] negative control {source} residual "
                                    f"{bad.max_residual:.3e}")
                ok &= bad.max_residual > CONTROL_FLOOR

        srep = structural_checks(sysm)
        report_lines.append(srep.summary())
        ok &= srep.passed

        text = "\n".join(report_lines)
        (out / "verify.txt").write_text(text + "\n")
        print(text)
        return 0 if ok else 1, {"passed": bool(ok)}

    return run


def cmd_agglomerate(cfg: Section):
    acfg = cfg.section("agglomeration", {})
    cfg.close()
    fine_spec = _read_spec(acfg.section("fine"), family=False)
    agcfg = AgglomerationConfig(*acfg.ints("targets", [40, 40], 2), seed=acfg.integer("seed", 0))
    output = acfg.string("output", "coarse_mesh.json")
    acfg.close()

    def run(out: Path):
        fine = load_mesh(fine_spec["path"]) if "path" in fine_spec else _fine_mesh(fine_spec)
        assignment = partition_assignment(fine, agcfg)
        prep = validate_partition(fine, assignment)
        coarse = agglomerate(fine, agcfg, assignment)
        qrep = quality_report(coarse)
        mesh_path = out / output
        save_mesh(coarse, mesh_path)
        (out / "quality.txt").write_text(qrep.summary() + "\n")
        print(f"wrote {mesh_path} ({coarse.n_elements} elements); "
              f"partition valid: {prep.valid}")
        return 0 if prep.valid else 1, {"coarse_elements": coarse.n_elements,
                                        "partition_valid": prep.valid,
                                        "area_error": prep.area_error}

    return run


COMMANDS = {"convergence": cmd_convergence, "solve": cmd_solve, "verify": cmd_verify,
            "agglomerate": cmd_agglomerate}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="polympe",
        description="Polytopal DG solver for coupled poroelasticity-Stokes flow")
    parser.add_argument("command", choices=list(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    try:
        # a missing file is an OSError, malformed JSON a ValueError
        cfg = Section("", json.loads(Path(args.config).read_text()))
        out_dir = cfg.string("output_dir", "out")  # read even when --out overrides it
        out = Path(args.out or out_dir)
        run = COMMANDS[args.command](cfg)
        out.mkdir(parents=True, exist_ok=True)
        code, extra = run(out)
        outputs.write_manifest(out / "manifest.json", cfg.doc, {
            "command": args.command, "version": __version__,
            "elapsed_s": time.perf_counter() - t0, "resolved_config": cfg.resolved, **extra})
        return code
    except (ConfigError, MeshError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
