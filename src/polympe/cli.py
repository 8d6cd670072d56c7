"""Command line: the convergence harness, solves, verification oracles and
the agglomeration pipeline. Each command parses its JSON config, runs its
solves through :mod:`polympe.driver` and writes its outputs, and returns
its exit code and manifest fields; :func:`main` writes the manifest.

Exit codes: 0 on success, 1 when an acceptance-style check fails (rate out
of window, oracle residual too large, invalid partition), 2 on input errors
(missing files, malformed config, unknown keys, values of the wrong type,
invalid meshes or parameters), 3 on numerical failure (singular matrix,
steady residual too large, a time step whose state is not finite).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__, driver, outputs, stepping
from .agglomerate import AgglomerationConfig, agglomerate, partition_assignment, validate_partition
from .families import DEMO_DIRICHLET, VERIFICATION_DIRICHLET, cartesian_two_domain, triangulated_two_domain
from .forms import ZeroData
from .manufactured import residual_oracle, steady_case, unsteady_case
from .mesh import MeshError, load_mesh, quality_report, save_mesh
from .params import PhysicalParams
from .solvers import NumericalError
from .system import structural_checks


class ConfigError(Exception):
    pass


def _load_config(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc


#: the top-level keys a solve config reads, per case: each case reads those
#: of the one before it and its own
_SOLVE_KEYS = {"steady": ("case", "mesh", "degree", "dirichlet", "output_dir")}
_SOLVE_KEYS["unsteady"] = _SOLVE_KEYS["steady"] + ("scheme", "snapshot_stride")
_SOLVE_KEYS["zero"] = _SOLVE_KEYS["unsteady"] + ("params", "compartments")
_SOLVE_KEYS["demo"] = _SOLVE_KEYS["zero"] + ("demo_amplitude",)
#: the top-level keys each command reads
_TOP_KEYS = {
    "convergence": ("case", "convergence", "scheme", "output_dir"),
    "solve": tuple(dict.fromkeys(k for keys in _SOLVE_KEYS.values() for k in keys)),
    "verify": ("case", "mesh", "degree", "compartments", "params", "dirichlet", "verify",
               "output_dir"),
    "agglomerate": ("agglomeration", "output_dir"),
}
_FINE_KEYS = ("fine_ny", "fine_nx_el", "fine_nx_f", "jitter", "seed")
_MESH_KEYS = {
    "cartesian": ("family", "ny", "nx"),
    "agglomerated": ("family", "targets") + _FINE_KEYS,
}


def _check_keys(section: str, doc, known=None) -> None:
    """Raise :class:`ConfigError` unless ``doc`` is an object whose keys are
    in ``known`` (any, when ``None``)."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{section} must be a JSON object, got {doc!r}")
    unknown = sorted(set(doc) - set(doc if known is None else known))
    if unknown:
        raise ConfigError(f"unknown {section} key(s) {unknown}; expected some of {list(known)}")


def _spec_keys(spec, family_keys) -> tuple:
    """The keys a mesh spec may hold: ``path`` alone for a mesh file, else
    ``family_keys`` (any, when ``None``)."""
    if not isinstance(spec, dict):
        return ()
    if "path" in spec:
        return ("path",)
    return tuple(spec) if family_keys is None else family_keys


def _fine_mesh(spec: dict):
    """The jittered fine triangulation described by the ``_FINE_KEYS`` of a
    mesh spec (family ``agglomerated``) or of an agglomeration ``fine`` spec."""
    return triangulated_two_domain(
        int(spec.get("fine_ny", 24)), spec.get("fine_nx_el"), spec.get("fine_nx_f"),
        jitter=float(spec.get("jitter", 0.25)), seed=int(spec.get("seed", 0)))


def resolve_mesh(spec: dict):
    family = spec.get("family") if isinstance(spec, dict) else None
    # an unknown family is reported with its whole spec below
    _check_keys("mesh", spec, _spec_keys(spec, _MESH_KEYS.get(family)))
    if "path" in spec:
        return load_mesh(spec["path"])
    if family == "cartesian":
        return cartesian_two_domain(int(spec["ny"]), spec.get("nx"))
    if family == "agglomerated":
        t_el, t_f = spec.get("targets", (40, 40))
        cfg = AgglomerationConfig(int(t_el), int(t_f), seed=int(spec.get("seed", 0)))
        return agglomerate(_fine_mesh(spec), cfg)
    raise ConfigError(f"unknown mesh spec {spec}")


def _names(name: str, val) -> list:
    """``val`` if it is a list of strings, else a :class:`ConfigError`."""
    if not (isinstance(val, list) and all(isinstance(v, str) for v in val)):
        raise ConfigError(f"{name} must be a list of names, got {val!r}")
    return val


def _real(name: str, val) -> float:
    """``val`` as a float, or a :class:`ConfigError` naming ``name``."""
    try:
        return float(val)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, got {val!r}") from None


def _merge(name: str, current: dict, val, compartments) -> None:
    """Overwrite the entries of the per-compartment parameter ``current``
    that ``val`` names, entry by entry (``beta`` is a mapping of mappings)."""
    _check_keys(f"parameter {name}", val, compartments)
    for j, v in val.items():
        if isinstance(current[j], dict):
            _merge(f"{name}[{j}]", current[j], v, compartments)
        else:
            current[j] = _real(f"parameter {name}[{j}]", v)


#: the parameters a config may set (``compartments`` is a top-level key)
_PARAM_KEYS = tuple(f.name for f in fields(PhysicalParams) if f.name != "compartments")


def resolve_params(cfg: dict) -> PhysicalParams:
    compartments = tuple(_names("compartments", cfg.get("compartments", ["E"])))
    _check_keys("params", cfg.get("params", {}))
    pcfg = dict(cfg.get("params", {}))
    preset = pcfg.pop("preset", "unit")
    if preset == "unit":
        alpha = _real("parameter alpha", pcfg.pop("alpha", 0.5))
        params = PhysicalParams.unit(compartments, alpha=alpha)
    elif preset == "brain":
        params = PhysicalParams.brain(compartments)
    else:
        raise ConfigError(f"unknown params preset {preset!r}")
    for key, val in pcfg.items():
        if key not in _PARAM_KEYS:
            raise ConfigError(f"unknown parameter {key!r}")
        current = getattr(params, key)
        if isinstance(current, dict):
            _merge(key, current, val, compartments)
        else:
            setattr(params, key, _real(f"parameter {key}", val))
    params.validate()
    return params


def resolve_scheme(cfg: dict, default: dict | None = None,
                   extra=()) -> stepping.SchemeParams:
    """The time scheme of ``cfg["scheme"]`` (or ``default``); keys other than
    the :class:`~polympe.stepping.SchemeParams` fields and ``extra`` are
    input errors."""
    scfg = cfg.get("scheme", default or {})
    known = [f.name for f in fields(stepping.SchemeParams)]
    _check_keys("scheme", scfg, known + list(extra))
    if "dt" not in scfg:
        raise ConfigError("scheme needs 'dt'")
    return stepping.SchemeParams(**{k: _real(f"scheme {k}", v)
                                    for k, v in scfg.items() if k in known})


def resolve_dirichlet(cfg: dict, case: str) -> dict:
    if "dirichlet" in cfg:
        doc = cfg["dirichlet"]
        _check_keys("dirichlet", doc)
        return {lab: set(_names(f"dirichlet {lab!r}", vs)) for lab, vs in doc.items()}
    return dict(VERIFICATION_DIRICHLET) if case in ("steady", "unsteady") else dict(DEMO_DIRICHLET)


class DemoData(ZeroData):
    """Synthetic demo regime: a pulsatile volumetric source in the exchange
    compartment (one heartbeat per second), no other forcing, free outlet."""

    def __init__(self, amplitude=2e-3, compartment="E"):
        self.amplitude = amplitude
        self.compartment = compartment

    def exact(self, key: str, pts, t=0.0):
        if key == f"g:{self.compartment}":
            return np.full(len(pts), self.amplitude * np.pi * np.sin(2.0 * np.pi * t))
        return super().exact(key, pts, t)


def _rate_window(cfg: dict, tol_override):
    tol = cfg.get("convergence", {}).get("tol", {})
    if tol_override is not None:
        return float(tol_override), float(tol_override)
    return float(tol.get("below", 0.2)), float(tol.get("above", 0.3))


def cmd_convergence(cfg: dict, out: Path, tol_override=None) -> tuple[int, dict]:
    conv = cfg.get("convergence", {})
    _check_keys("convergence", conv, ("meshes", "m_values", "spectral", "n_steps", "tol"))
    _check_keys("convergence tol", conv.get("tol", {}), ("below", "above"))
    case_id = cfg.get("case", "steady")
    if case_id not in ("steady", "unsteady"):
        raise ConfigError("convergence needs case steady or unsteady")
    mesh_specs = conv.get("meshes")
    spectral = bool(conv.get("spectral", False))
    if not mesh_specs or (len(mesh_specs) < 3 and not spectral):
        raise ConfigError("convergence needs a mesh family with >= 3 refinements "
                          "(or a single mesh with 'spectral': true)")
    meshes = [resolve_mesh(s) for s in mesh_specs]
    m_values = conv.get("m_values", [1, 2, 3])
    scheme = None
    if case_id == "unsteady":
        scheme = resolve_scheme(cfg, default={"dt": 1e-3})
    rows = driver.convergence_table(case_id, meshes, m_values, scheme=scheme,
                                    n_steps=int(conv.get("n_steps", 5)))
    outputs.write_rate_table(rows, out / "rates.csv")

    failures = []
    if spectral:
        # fixed-mesh sweep over m: the error must decrease monotonically
        errs = [[r for r in rows if r["m"] == m][-1]["err_energy"] for m in m_values]
        for (m1, e1), (m2, e2) in zip(zip(m_values, errs), zip(m_values[1:], errs[1:])):
            if not e2 < e1:
                failures.append((m2, e2 / e1))
    else:
        below, above = _rate_window(cfg, tol_override)
        for m in m_values:
            finest = [r for r in rows if r["m"] == m][-1]
            rate = finest["rate_energy"]
            if not (m - below <= rate <= m + above):
                failures.append((m, rate))
    for m, r in failures:
        kind = "spectral trend" if spectral else "rate"
        print(f"{kind} check failed at m={m}: {r:.4g}", file=sys.stderr)
    print(f"wrote {out / 'rates.csv'}")
    return 1 if failures else 0, {
        "spectral": spectral,
        "observed_rates": {str(m): [r["rate_energy"] for r in rows if r["m"] == m][1:]
                           for m in m_values},
        "failures": [{"m": m, "value": r} for m, r in failures],
    }


def cmd_solve(cfg: dict, out: Path) -> tuple[int, dict]:
    case_id = cfg.get("case", "demo")
    if case_id not in _SOLVE_KEYS:
        raise ConfigError(f"unknown case {case_id!r}; expected one of {list(_SOLVE_KEYS)}")
    _check_keys(f"{case_id}-case solve", cfg, _SOLVE_KEYS[case_id])
    if case_id in ("steady", "unsteady"):
        data = steady_case() if case_id == "steady" else unsteady_case()
        params = data.params
    else:
        amplitude = _real("demo_amplitude", cfg.get("demo_amplitude", 2e-3))
        data = DemoData(amplitude) if case_id == "demo" else ZeroData()
        params = resolve_params(cfg)
    if case_id != "steady":
        scheme = resolve_scheme(cfg, extra=("n_steps",))
        n_steps = int(cfg["scheme"].get("n_steps", 100))
        stride = int(cfg.get("snapshot_stride", 1))
        stepping.check_step_counts(n_steps, stride)
    dirichlet = resolve_dirichlet(cfg, case_id)
    mesh = resolve_mesh(cfg.get("mesh", {"family": "cartesian", "ny": 4}))
    m = int(cfg.get("degree", 2))

    if case_id == "steady":
        state, art = driver.solve_steady(data, mesh, m, dirichlet)
        snaps, resolved_scheme = [(0, state)], None
    else:
        states, times, art = driver.solve_unsteady(data, params, mesh, m, scheme, n_steps,
                                                   dirichlet, stride=stride)
        # one snapshot per recorded step, named by step number; the initial
        # state is not written
        snaps = [(int(round(t / scheme.dt)), st) for st, t in zip(states[1:], times[1:])]
        resolved_scheme = dict(asdict(scheme), n_steps=n_steps)

    space = art.space
    geometry = outputs.vtk_geometry(mesh)
    for i, st in snaps:
        outputs.write_snapshot_csv(space, st, out / f"snapshot_{i:06d}.csv")
        outputs.write_snapshot_vtk(space, st, out / f"snapshot_{i:06d}.vtk", geometry)
    print(f"wrote {len(snaps)} snapshots to {out}")
    return 0, {"snapshots": len(snaps), "n_elements": mesh.n_elements, "n_dofs": space.n_dofs,
               "resolved_params": asdict(art.sys.params), "resolved_scheme": resolved_scheme}


def cmd_verify(cfg: dict, out: Path) -> tuple[int, dict]:
    vcfg = cfg.get("verify", {})
    _check_keys("verify", vcfg, ("n_points", "oracle_tol", "t"))
    n_points = int(vcfg.get("n_points", 100))
    tol = float(vcfg.get("oracle_tol", 1e-4))
    ok = True
    report_lines = []

    for case, t in ((steady_case(), 0.0), (unsteady_case(), float(vcfg.get("t", 0.37)))):
        rep = residual_oracle(case, n_points=n_points, t=t)
        report_lines.append(f"[{case.name}] max residual {rep.max_residual:.3e} (tol {tol:g})")
        report_lines.append(rep.summary())
        ok &= rep.max_residual < tol
        bad = residual_oracle(case.corrupted("f_f"), n_points=10, t=t)
        report_lines.append(f"[{case.name}] negative control residual {bad.max_residual:.3e}")
        ok &= bad.max_residual > 1e-1

    params = resolve_params(cfg)
    mesh = resolve_mesh(cfg.get("mesh", {"family": "cartesian", "ny": 4}))
    art = driver.setup(mesh, int(cfg.get("degree", 2)), params,
                       resolve_dirichlet(cfg, cfg.get("case", "steady")))
    srep = structural_checks(art.sys)
    report_lines.append(srep.summary())
    ok &= srep.passed

    text = "\n".join(report_lines)
    (out / "verify.txt").write_text(text + "\n")
    print(text)
    return 0 if ok else 1, {"passed": bool(ok)}


def cmd_agglomerate(cfg: dict, out: Path) -> tuple[int, dict]:
    acfg = cfg.get("agglomeration", {})
    _check_keys("agglomeration", acfg, ("fine", "targets", "seed", "output"))
    if "fine" not in acfg:
        raise ConfigError("agglomeration config needs a 'fine' mesh spec")
    fine_spec = acfg["fine"]
    _check_keys("agglomeration fine", fine_spec, _spec_keys(fine_spec, _FINE_KEYS))
    fine = load_mesh(fine_spec["path"]) if "path" in fine_spec else _fine_mesh(fine_spec)
    t_el, t_f = acfg.get("targets", (40, 40))
    agcfg = AgglomerationConfig(int(t_el), int(t_f), seed=int(acfg.get("seed", 0)))
    assignment = partition_assignment(fine, agcfg)
    prep = validate_partition(fine, assignment)
    coarse = agglomerate(fine, agcfg, assignment)
    qrep = quality_report(coarse)
    mesh_path = out / acfg.get("output", "coarse_mesh.json")
    save_mesh(coarse, mesh_path)
    (out / "quality.txt").write_text(qrep.summary() + "\n")
    print(f"wrote {mesh_path} ({coarse.n_elements} elements); "
          f"partition valid: {prep.valid}")
    return 0 if prep.valid else 1, {"coarse_elements": coarse.n_elements,
                                    "partition_valid": prep.valid,
                                    "area_error": prep.area_error}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="polympe",
        description="Polytopal DG solver for coupled poroelasticity-Stokes flow")
    parser.add_argument("command",
                        choices=["convergence", "solve", "verify", "agglomerate"])
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--tol", type=float, default=None,
                        help="symmetric rate tolerance for convergence checks")
    args = parser.parse_args(argv)
    command = {"convergence": lambda cfg, out: cmd_convergence(cfg, out, args.tol),
               "solve": cmd_solve, "verify": cmd_verify,
               "agglomerate": cmd_agglomerate}[args.command]

    t0 = time.perf_counter()
    try:
        cfg = _load_config(args.config)
        _check_keys("top-level", cfg, _TOP_KEYS[args.command])
        out = Path(args.out or cfg.get("output_dir", "out"))
        out.mkdir(parents=True, exist_ok=True)
        code, extra = command(cfg, out)
        outputs.write_manifest(out / "manifest.json", cfg, {
            "command": args.command, "version": __version__,
            "elapsed_s": time.perf_counter() - t0, **extra})
        return code
    except (ConfigError, MeshError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
