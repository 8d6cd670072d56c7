import csv
import json
import re
from pathlib import Path

import pytest

from polympe import cli, norms, stepping
from polympe.cli import main
from polympe.families import cartesian_two_domain
from polympe.manufactured import SOURCES
from polympe.mesh import load_mesh, save_mesh
from polympe.params import InputError, PhysicalParams
from polympe.solvers import NumericalError
from polympe.stepping import SchemeParams

from conftest import read_config, sha256_hex

ROOT = Path(__file__).resolve().parents[1]
#: the command that runs each shipped config
SHIPPED = {"agglomerate_brain_scale": "agglomerate", "demo": "solve", "spectral": "convergence",
           "verification_steady": "convergence", "verification_unsteady": "convergence",
           "verify": "verify"}


def shipped(name):
    return json.loads((ROOT / "configs" / f"{name}.json").read_text())


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_missing_config_is_input_error(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 2


def test_malformed_config_is_input_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{")
    assert main(["solve", "--config", str(path)]) == 2


@pytest.mark.parametrize("doc, message", [
    ([{"case": "zero"}], "the config must be a JSON object"),
    ({"case": "zero", "mesh": {"ny": 2}}, "mesh family is required"),
    ({"case": "zero", "mesh": {"family": "hexagonal", "ny": 2}},
     "unknown mesh family 'hexagonal'"),
    ({"case": "zero", "params": {"preset": "liver"}}, "unknown params preset 'liver'"),
], ids=["array", "no-family", "family", "preset"])
def test_config_input_error_names_its_key(tmp_path, capsys, doc, message):
    out = tmp_path / "o"
    assert main(["solve", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_solve_zero_case(tmp_path):
    cfg = write_config(tmp_path, {
        "case": "zero",
        "mesh": {"family": "cartesian", "ny": 2},
        "degree": 1,
        "scheme": {"dt": 0.01, "n_steps": 4},
        "snapshot_stride": 2,
    })
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    snaps = sorted(out.glob("snapshot_*.csv"))
    assert len(snaps) == 2  # steps 2 and 4; the initial state is not written
    with open(snaps[-1]) as fh:
        rows = list(csv.DictReader(fh))
    assert all(float(r["p_E"]) == 0.0 for r in rows)
    assert (out / "manifest.json").exists()


def test_solve_demo_writes_vtk(tmp_path):
    cfg = write_config(tmp_path, {
        "case": "demo",
        "mesh": {"family": "cartesian", "ny": 2},
        "degree": 1,
        "params": {"preset": "brain", "alpha_j": {"E": 0.49}, "beta_ext": {"E": 0.0}},
        "scheme": {"dt": 0.01, "n_steps": 5},
        "snapshot_stride": 5,
    })
    out = tmp_path / "demo"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    vtk = (out / "snapshot_000005.vtk").read_text()
    assert vtk.startswith("# vtk DataFile Version 3.0")
    assert "DATASET POLYDATA" in vtk and "CELL_DATA" in vtk and "VECTORS d" in vtk


#: sha256 of each snapshot file of a 4-step demo solve on the 20-polygon
#: agglomerate at m = 1, snapshot stride 2
DEMO_SNAPSHOT_SHA256 = {
    "snapshot_000002.csv": "aa2d4e9430a89ac66697162501d7f7c0472394cef56242538ff62f1745380482",
    "snapshot_000002.vtk": "9469eb5b03805b93f92da6572513ce8473d19c432c08ac4a6cc7bb7ac324874f",
    "snapshot_000004.csv": "48191d522c9c17fd29de49d533121161c2e0e9e3667d4bd2f325769276ca70d7",
    "snapshot_000004.vtk": "26a76c7982d44c0250c86e77b9bd5605ae2c8b439d16d9d807f2bf4cd415c058",
}


def test_demo_snapshot_bytes_pinned(tmp_path):
    cfg = write_config(tmp_path, {
        "case": "demo",
        "mesh": {"family": "agglomerated", "targets": [10, 10], "fine_ny": 12, "jitter": 0.25,
                 "seed": 0},
        "degree": 1,
        "compartments": ["E"],
        "params": {"preset": "brain", "alpha_j": {"E": 0.49}, "beta_ext": {"E": 0.0}},
        "scheme": {"dt": 0.01, "n_steps": 4},
        "snapshot_stride": 2,
        "demo_amplitude": 0.002,
    })
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert {p.name: sha256_hex(p.read_bytes())
            for p in out.glob("snapshot_*")} == DEMO_SNAPSHOT_SHA256


#: sha256 of each snapshot file of `polympe solve` for the steady, unsteady
#: and zero cases on ``cartesian_two_domain(2)`` at m = 1 (the unsteady and
#: zero cases: 4 steps of 0.01, snapshot stride 2). The steady and unsteady
#: entries were recorded again when the manufactured cases became closed
#: forms: per column, the cell means moved by at most 4.9e-16 * max|column|
#: (steady) and 4.6e-13 * max|column| (unsteady, in p at step 4; d, p:E and
#: u by at most 1.4e-14). The unsteady entries were recorded again when
#: l2_project became VolumeTable.integrate of the sampled field (one gemv per
#: element instead of a reduceat sum): the initial projections moved by at
#: most 4.6e-16 of their max, and the cell means by at most 1.1e-12 *
#: max|column| (in p at step 4, which the march amplifies; d, p:E and u by at
#: most 1.9e-14)
CASE_SNAPSHOT_SHA256 = {
    "steady": {
        "snapshot_000000.csv": "9dfe55ec627c86bc7f2045e34081731980951cbb09f2bff6a0ea740b138a82d1",
        "snapshot_000000.vtk": "65ac2db3914471e5be2b63ffd6ef8262b79f0a8bcf5144bddfc72e906398b8ba",
    },
    "unsteady": {
        "snapshot_000002.csv": "559f4613088015155af28625430da0cad2011a1995ca752cf98a0688c9c9a1e3",
        "snapshot_000002.vtk": "75ae93de691256cf5de55e319281267bf9dd3585a6e3493b4ac219146eb7cf6c",
        "snapshot_000004.csv": "9e871d9df8866a4577e85c13086ef7cd44e55a07dc13a4e2154bb08254a6c719",
        "snapshot_000004.vtk": "dc9cbb39064f2a977539a89cd0ff6ac2c6f66c1c97bdc04e047a012998cc398a",
    },
    "zero": {
        "snapshot_000002.csv": "31b007a35c3870af150f4fe4d970e53c14a21f84ad8ea777d989a9372d474053",
        "snapshot_000002.vtk": "c5686f99bedaae4a474cf0a2301f7bd82783ae0b6b2683c7c9457835a95174cf",
        "snapshot_000004.csv": "31b007a35c3870af150f4fe4d970e53c14a21f84ad8ea777d989a9372d474053",
        "snapshot_000004.vtk": "c5686f99bedaae4a474cf0a2301f7bd82783ae0b6b2683c7c9457835a95174cf",
    },
}


@pytest.mark.parametrize("case", sorted(CASE_SNAPSHOT_SHA256))
def test_case_snapshot_bytes_pinned(tmp_path, case):
    doc = {"case": case, "mesh": {"family": "cartesian", "ny": 2}, "degree": 1}
    if case != "steady":
        doc.update(scheme={"dt": 0.01, "n_steps": 4}, snapshot_stride=2)
    out = tmp_path / "out"
    assert main(["solve", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    assert {p.name: sha256_hex(p.read_bytes())
            for p in out.glob("snapshot_*")} == CASE_SNAPSHOT_SHA256[case]


def test_solve_manifest_records_the_case_params(tmp_path, capsys):
    # the steady case solves with its own parameters and reads no preset
    from polympe.manufactured import steady_case
    doc = {"case": "steady", "mesh": {"family": "cartesian", "ny": 2}, "degree": 1}
    cfg = write_config(tmp_path, dict(doc, params={"preset": "brain"}))
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert "'params'" in capsys.readouterr().err
    assert main(["solve", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["resolved_params"]["mu_el"] == steady_case().params.mu_el == 1.0
    assert "scheme" not in manifest["resolved_config"]


def test_solve_manifest_records_the_full_scheme(tmp_path):
    cfg = write_config(tmp_path, {"case": "zero", "mesh": {"family": "cartesian", "ny": 2},
                                  "degree": 1, "scheme": {"dt": 0.01, "n_steps": 2}})
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["resolved_config"]["scheme"] == {"dt": 0.01, "beta": 0.25, "gamma": 0.5,
                                                     "theta": 0.5, "n_steps": 2}


@pytest.mark.parametrize("command, doc", [
    ("solve", {"case": "zero", "mesh": {"family": "cartesian", "ny": 2}, "degree": 1,
               "scheme": {"dt": 0.01, "thetta": 0.5, "n_steps": 2}}),
    ("convergence", {"case": "unsteady", "scheme": {"dt": 1e-3, "thetta": 0.5},
                     "convergence": {"m_values": [1], "n_steps": 1,
                                     "meshes": [{"family": "cartesian", "ny": n}
                                                for n in (2, 4, 8)]}}),
])
def test_unknown_scheme_key_is_input_error(tmp_path, capsys, command, doc):
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "thetta" in err and "Traceback" not in err


@pytest.mark.parametrize("doc, key", [
    ({"case": "zero", "degre": 3, "mesh": {"family": "cartesian", "ny": 2},
      "scheme": {"dt": 0.01, "n_steps": 1}}, "degre"),
    ({"case": "zero", "mesh": {"family": "cartesian", "ny": 2, "nyy": 9},
      "scheme": {"dt": 0.01, "n_steps": 1}}, "nyy"),
    ({"case": "zero", "mesh": {"family": "agglomerated", "targets": [2, 2], "fine_ny": 4,
                               "jiter": 0.1}, "scheme": {"dt": 0.01, "n_steps": 1}}, "jiter"),
    # keys another case reads
    *[(dict({"case": case, "mesh": {"family": "cartesian", "ny": 2}}, **{key: val}), key)
      for case, key, val in [("steady", "demo_amplitude", 1e-3), ("steady", "scheme", {"dt": 0.01}),
                             ("steady", "compartments", ["A", "E"]), ("steady", "snapshot_stride", 2),
                             ("unsteady", "params", {"preset": "brain"}),
                             ("zero", "demo_amplitude", 1e-3)]],
])
def test_unknown_solve_key_is_input_error(tmp_path, capsys, doc, key):
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert repr(key) in err and "Traceback" not in err
    assert not list(out.glob("snapshot_*"))


_SMALL_MESHES = [{"family": "cartesian", "ny": n} for n in (2, 4, 8)]
_ZERO_SOLVE = {"case": "zero", "mesh": {"family": "cartesian", "ny": 2}, "degree": 1,
               "scheme": {"dt": 0.01, "n_steps": 2}}
_AGGLOMERATED = {"family": "agglomerated", "targets": [2, 2], "fine_ny": 4}
_SWEEP = {"case": "steady", "convergence": {"m_values": [1], "meshes": _SMALL_MESHES}}
_VERIFY = {"mesh": {"family": "cartesian", "ny": 2}, "degree": 1}


def _with(doc, section, **changes):
    """``doc`` with the entries ``changes`` set in its ``section`` (the
    top level when ``section`` is ``None``)."""
    doc = json.loads(json.dumps(doc))
    (doc if section is None else doc[section]).update(changes)
    return doc


@pytest.mark.parametrize("command, doc, key", [
    ("convergence", {"case": "steady", "convergence": {"m_values": [1], "meshes": [],
                                                        "n_step": 1}}, "n_step"),
    ("convergence", {"case": "steady", "mesh": {"family": "cartesian", "ny": 2},
                     "convergence": {"m_values": [1], "meshes": []}}, "mesh"),
    ("verify", {"mesh": {"family": "cartesian", "ny": 2}, "verify": {"npoints": 5}}, "npoints"),
    ("agglomerate", {"agglomeration": {"fine": {"fine_ny": 4}, "target": [2, 2]}}, "target"),
    ("agglomerate", {"agglomeration": {"fine": {"fine_ny": 4, "seeed": 1}}}, "seeed"),
    # a steady sweep reads no time scheme
    ("convergence", {"case": "steady", "scheme": {"dt": 1e-3},
                     "convergence": {"m_values": [1], "meshes": []}}, "scheme"),
    # a misspelt section is reported as unknown, not as a missing key of the
    # section it stands for
    ("solve", {"case": "zero", "shceme": {"dt": 0.01}}, "shceme"),
    ("convergence", {"convergance": {"meshes": [{"family": "cartesian", "ny": 2}]}},
     "convergance"),
    ("agglomerate", {"agglomeraton": {"fine": {"fine_ny": 4}}}, "agglomeraton"),
    # options removed in favour of constants (forms.PENALTY, norms.RATE_WINDOW,
    # the oracle bounds of manufactured) or of another key (params.alpha_j)
    *[("solve", _with(_ZERO_SOLVE, None, params={key: val}), key)
      for key, val in [("eta_bar", 10.0), ("gamma_v_bar", 10.0), ("gamma_p_bar", 10.0),
                       ("zeta_bar", {"E": 10.0}), ("alpha", 0.5)]],
    ("verify", dict(_VERIFY, params={"zeta_bar": {"E": 10.0}}), "zeta_bar"),
    ("convergence", _with(_SWEEP, "convergence", tol={"below": 0.2, "above": 0.3}), "tol"),
    ("verify", dict(_VERIFY, verify={"n_points": 5, "oracle_tol": 1e-4}), "oracle_tol"),
    ("verify", dict(_VERIFY, verify={"n_points": 5, "oracle_tol": False}), "oracle_tol"),
    ("verify", dict(_VERIFY, verify={"n_points": 5, "t": 0.37}), "t"),
    ("verify", dict(_VERIFY, case="steady"), "case"),
    ("verify", dict(_VERIFY, case="stedy"), "case"),
    ("verify", dict(_VERIFY, case=None), "case"),
])
def test_unknown_config_key_is_input_error(tmp_path, capsys, command, doc, key):
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert repr(key) in err and "Traceback" not in err
    assert not out.exists()


def test_shipped_configs_have_known_top_level_keys():
    # each config passes its command's parse step, which reads the whole
    # config before a mesh is built
    assert sorted(SHIPPED) == sorted(p.stem for p in (ROOT / "configs").glob("*.json"))
    for name, command in SHIPPED.items():
        read_config(command, shipped(name))


def test_demo_config_resolves_to_pinned_values():
    # every default the demo run takes; a default that moves fails here
    assert read_config("solve", shipped("demo")) == {
        "output_dir": "out_demo", "case": "demo",
        "mesh": {"family": "agglomerated", "targets": [40, 40], "fine_ny": 24,
                 "fine_nx_el": None, "fine_nx_f": None, "jitter": 0.25, "seed": 0},
        "degree": 2, "dirichlet": {"el": ["d"], "wall": ["u"], "out": []},
        "compartments": ["E"],
        "params": {"preset": "brain", "alpha_j": {"E": 0.49}, "beta_ext": {"E": 0.0}},
        "demo_amplitude": 0.002,
        "scheme": {"dt": 0.01, "beta": 0.25, "gamma": 0.5, "theta": 0.5, "n_steps": 100},
        "snapshot_stride": 10,
    }


def _leaf_paths(doc, prefix=""):
    """The key path of every value in ``doc``, a list of objects adding
    ``[]`` to its key."""
    if isinstance(doc, dict):
        return [p for k, v in doc.items() for p in _leaf_paths(v, f"{prefix}{k}.")]
    if isinstance(doc, list) and doc and all(isinstance(v, dict) for v in doc):
        return [p for v in doc for p in _leaf_paths(v, prefix[:-1] + "[].")]
    return [prefix[:-1]]


def _config_table_patterns():
    """The key paths of the README's config table as regular expressions,
    ``<j>`` and the like standing for any one key."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("| key | kind | default | read by |") + 2
    rows = lines[start:start + next(i for i, l in enumerate(lines[start:]) if not l.startswith("|"))]
    return [re.sub(r"<\w+>", r"[^.]+", re.escape(path))
            for row in rows for path in re.findall(r"`([^`]+)`", row.split("|")[1])]


def test_every_resolved_key_is_in_the_readme_table():
    docs = [(command, shipped(name)) for name, command in SHIPPED.items()]
    for case in ("steady", "unsteady", "zero", "demo"):
        doc = {"case": case}
        if case != "steady":
            doc["scheme"] = {"dt": 0.01}
        docs.append(("solve", doc))
    patterns = _config_table_patterns()
    for command, doc in docs:
        missing = [p for p in _leaf_paths(read_config(command, doc))
                   if not any(re.fullmatch(pat, p) for pat in patterns)]
        assert not missing, (command, doc, missing)


@pytest.mark.parametrize("doc, name", [
    ({"scheme": {"dt": "x", "n_steps": 2}}, "scheme dt"),
    ({"scheme": {"dt": 0.01, "theta": "a", "n_steps": 2}}, "scheme theta"),
    ({"params": {"mu_j": {"E": "abc"}}, "scheme": {"dt": 0.01, "n_steps": 2}}, "mu_j[E]"),
    ({"dirichlet": {"el": 5}, "scheme": {"dt": 0.01, "n_steps": 2}}, "dirichlet 'el'"),
])
def test_wrong_typed_config_value_is_input_error(tmp_path, capsys, doc, name):
    cfg = write_config(tmp_path, dict({"case": "zero", "mesh": {"family": "cartesian", "ny": 2},
                                       "degree": 1}, **doc))
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err
    assert not list(out.glob("*"))


@pytest.mark.parametrize("scheme", [{"dt": 1e-300}, {"dt": 1e-320}, {"beta": 1e-320},
                                    {"dt": 1e-160}], ids=["dt-1e-300", "dt-1e-320",
                                                          "beta-1e-320", "dt-1e-160"])
def test_newmark_coefficient_that_is_not_finite_is_input_error(tmp_path, capsys, scheme):
    # 1 / (beta dt^2) divides by zero or overflows: a config error, reported
    # before anything is built, not a traceback or a failed march
    doc = dict(shipped("demo"), mesh={"family": "cartesian", "ny": 2})
    doc["scheme"] = dict(doc["scheme"], n_steps=2, **scheme)
    out = tmp_path / "o"
    assert main(["solve", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    (key, value), = scheme.items()
    assert f"{key} = {value}" in err and "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command, doc, name", [
    ("solve", _with(_ZERO_SOLVE, None, degree=None), "degree"),
    ("solve", _with(_ZERO_SOLVE, None, degree=1.7), "degree"),
    ("solve", _with(_ZERO_SOLVE, "scheme", n_steps=[1]), "scheme n_steps"),
    ("solve", _with(_ZERO_SOLVE, None, snapshot_stride=True), "snapshot_stride"),
    ("solve", _with(_ZERO_SOLVE, "mesh", ny=None), "ny"),
    ("solve", _with(_ZERO_SOLVE, "mesh", nx="4"), "nx"),
    ("solve", _with(_ZERO_SOLVE, None, mesh=dict(_AGGLOMERATED, targets=5)), "targets"),
    ("solve", _with(_ZERO_SOLVE, None, mesh=dict(_AGGLOMERATED, targets=[2, 2, 2])),
     "targets"),
    ("solve", _with(_ZERO_SOLVE, None, mesh=dict(_AGGLOMERATED, seed=1.5)), "seed"),
    ("solve", _with(_ZERO_SOLVE, None, mesh=dict(_AGGLOMERATED, fine_ny=4.0)), "fine_ny"),
    ("solve", _with(_ZERO_SOLVE, None, mesh=dict(_AGGLOMERATED, fine_nx_f="4")), "fine_nx_f"),
    ("solve", _with(_ZERO_SOLVE, None, mesh=dict(_AGGLOMERATED, jitter="0.1")), "jitter"),
    ("solve", _with(_ZERO_SOLVE, None, case="demo", demo_amplitude=True), "demo_amplitude"),
    ("solve", _with(_ZERO_SOLVE, "scheme", dt="0.01"), "scheme dt"),
    ("convergence", _with(_SWEEP, "convergence", spectral="no",
                          meshes=_SMALL_MESHES[:1]), "spectral"),
    ("convergence", _with(_SWEEP, "convergence", meshes=5), "meshes"),
    ("convergence", _with(_SWEEP, "convergence", m_values=[]), "m_values"),
    ("convergence", _with(_SWEEP, "convergence", m_values=[True]), "m_values"),
    ("convergence", _with(_SWEEP, "convergence", n_steps=2.0), "n_steps"),
    ("convergence", _with(_SWEEP, "convergence", meshes=[dict(spec, ny=2.5) for spec in
                                                         _SMALL_MESHES]), "meshes[0] ny"),
    ("verify", dict(_VERIFY, verify={"n_points": "5"}), "n_points"),
    ("verify", dict(_VERIFY, verify={"n_points": 5.0}), "verify n_points"),
    ("agglomerate", {"agglomeration": {"fine": {"fine_ny": 4}, "targets": [2, 2.5]}},
     "targets"),
    ("convergence", _with(_with(_SWEEP, None, case="unsteady"), "convergence", n_steps=2.0),
     "convergence n_steps"),
])
def test_wrong_typed_number_or_flag_is_input_error(tmp_path, capsys, command, doc, name):
    # integers must be JSON integers, numbers JSON numbers and flags JSON
    # booleans: none of them is converted from another type
    out = tmp_path / "o"
    assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err
    assert not list(out.glob("*"))


@pytest.mark.parametrize("command, doc", [
    ("solve", _with(_ZERO_SOLVE, None, mesh=dict(_AGGLOMERATED, jitter=-0.25))),
    ("agglomerate", {"agglomeration": {"fine": {"fine_ny": 4, "jitter": -0.25},
                                       "targets": [2, 2]}}),
])
def test_negative_jitter_is_input_error(tmp_path, capsys, command, doc):
    # a negative jitter was once read as no jitter, while the manifest
    # recorded the negative value
    out = tmp_path / "o"
    assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "jitter must be >= 0, got -0.25" in err and "Traceback" not in err
    assert not list(out.glob("*"))


@pytest.mark.parametrize("command, doc, name", [
    ("solve", _with(_ZERO_SOLVE, None, case=["demo"]), "case"),
    ("solve", _with(_ZERO_SOLVE, "mesh", family=["cartesian"]), "mesh family"),
    ("solve", _with(_ZERO_SOLVE, None, mesh={"path": 7}), "mesh path"),
    ("solve", _with(_ZERO_SOLVE, None, output_dir=5), "output_dir"),
    ("solve", _with(_ZERO_SOLVE, None, params={"preset": ["brain"]}), "params preset"),
    ("convergence", _with(_SWEEP, None, case=1), "case"),
    ("verify", dict(_VERIFY, params={"preset": 1}), "params preset"),
    ("agglomerate", {"agglomeration": {"fine": {"fine_ny": 4}, "targets": [2, 2], "output": 3}},
     "agglomeration output"),
])
def test_wrong_typed_string_is_input_error(tmp_path, capsys, command, doc, name):
    out = tmp_path / "o"
    assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{name} must be a string" in err and "Traceback" not in err
    assert not list(out.glob("*"))


@pytest.mark.parametrize("command, doc", [
    ("solve", _with(_ZERO_SOLVE, None, case="stedy")),
    ("convergence", _with(_SWEEP, None, case="stedy")),
    ("convergence", _with(_SWEEP, None, case="zero")),
])
def test_unknown_case_is_input_error(tmp_path, capsys, command, doc):
    # a misspelt case must not fall back to another case's defaults
    out = tmp_path / "o"
    assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"unknown case {doc['case']!r}" in err and "Traceback" not in err
    assert not list(out.glob("*"))


@pytest.mark.parametrize("compartments", [[], ["A"]])
def test_compartments_need_the_exchange_compartment(tmp_path, capsys, compartments):
    # without E the fluid and the elastic parts decouple and the demo source
    # never enters
    doc = _with(_ZERO_SOLVE, None, case="demo", compartments=compartments,
                params={"preset": "brain"})
    out = tmp_path / "o"
    assert main(["solve", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "exchange compartment 'E'" in err and "Traceback" not in err
    assert not list(out.glob("*"))


@pytest.mark.parametrize("doc, match", [
    ({"params": {"mu_j": {"X": 2.0}}}, "'X'"),
    ({"compartments": ["A", "E"], "params": {"beta": {"E": {"X": 2.0}}}}, "'X'"),
    ({"compartments": "AE"}, "compartments must be a list"),
    ({"compartments": ["E", "E"]}, "compartments must be distinct"),
])
def test_bad_per_compartment_value_is_config_error(doc, match):
    with pytest.raises(InputError, match=match):
        cli.resolve_params(doc)


def test_beta_override_merges_entry_by_entry():
    params = cli.resolve_params({"compartments": ["A", "E"],
                                 "params": {"beta": {"E": {"A": 2.0}}}})
    assert params.beta == {"A": {"A": 1.0, "E": 1.0}, "E": {"A": 2.0, "E": 1.0}}


@pytest.mark.parametrize("command, doc, keys", [
    ("convergence", {"case": "steady", "convergence": {"m_values": [1], "meshes": _SMALL_MESHES}},
     {"spectral", "observed_rates", "failures"}),
    ("solve", {"case": "zero", "mesh": {"family": "cartesian", "ny": 2}, "degree": 1,
               "scheme": {"dt": 0.01, "n_steps": 2}},
     {"snapshots", "n_elements", "n_dofs", "resolved_params"}),
    ("verify", {"mesh": {"family": "cartesian", "ny": 2}, "degree": 1,
                "verify": {"n_points": 5}}, {"passed"}),
    ("agglomerate", {"agglomeration": {"fine": {"fine_ny": 4}, "targets": [2, 2]}},
     {"coarse_elements", "partition_valid", "area_error"}),
])
def test_manifest_fields(tmp_path, command, doc, keys):
    from polympe import __version__
    out = tmp_path / "o"
    main([command, "--config", write_config(tmp_path, doc), "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {"config", "command", "version", "elapsed_s", "resolved_config"} | keys
    assert manifest["command"] == command and manifest["version"] == __version__
    assert manifest["config"] == doc and manifest["elapsed_s"] > 0.0
    assert manifest["resolved_config"] == read_config(command, doc)


@pytest.mark.parametrize("doc, message", [
    ({"snapshot_stride": 0, "scheme": {"dt": 0.01, "n_steps": 2}},
     "snapshot_stride must be >= 1, got 0"),
    ({"scheme": {"dt": 0.01, "n_steps": -4}}, "scheme n_steps must be >= 0, got -4"),
], ids=["doc0", "doc1"])
def test_bad_step_counts_are_input_errors(tmp_path, capsys, monkeypatch, doc, message):
    cfg = write_config(tmp_path, dict({"case": "zero", "mesh": {"family": "cartesian", "ny": 2},
                                       "degree": 1}, **doc))
    out = tmp_path / "o"

    def no_mesh(spec):
        raise AssertionError("a bad step count must be reported before the mesh is built")

    monkeypatch.setattr(cli, "resolve_mesh", no_mesh)
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not list(out.glob("snapshot_*")) and not (out / "manifest.json").exists()


@pytest.mark.parametrize("command, doc, name", [
    ("solve", _with(_ZERO_SOLVE, None, case="demo", demo_amplitude=float("nan")),
     "demo_amplitude"),
    ("solve", _with(_ZERO_SOLVE, "scheme", dt=float("inf")), "scheme dt"),
    ("solve", _with(_ZERO_SOLVE, None, case="demo", params={"beta_ext": {"E": float("nan")}}),
     "params beta_ext[E]"),
    ("solve", _with(_ZERO_SOLVE, None, case="demo", params={"mu_el": 10 ** 400}),
     "params mu_el"),
], ids=["demo_amplitude-nan", "dt-inf", "beta_ext-nan", "mu_el-400-digits"])
def test_non_finite_config_number_is_input_error(tmp_path, capsys, command, doc, name):
    # json reads NaN, Infinity and integers of any size; none is a number here
    out = tmp_path / "o"
    assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{name} must be a finite number" in err and "Traceback" not in err
    assert not list(out.glob("*"))


@pytest.mark.parametrize("build, match", [
    (lambda: PhysicalParams(beta_ext={"E": float("nan")}), "beta_ext_E"),
    (lambda: PhysicalParams(beta={"E": {"E": float("nan")}}), r"beta\[E\]\[E\]"),
    (lambda: PhysicalParams(beta={"E": {"E": float("inf")}}), r"beta\[E\]\[E\]"),
    (lambda: PhysicalParams(mu_el=float("inf")), "mu_el"),
    (lambda: PhysicalParams(k_j={"E": float("inf")}), "k_E"),
    (lambda: SchemeParams(dt=float("inf")), "dt"),
], ids=["beta_ext-nan", "beta-nan", "beta-inf", "mu_el-inf", "k_j-inf", "dt-inf"])
def test_non_finite_coefficient_is_rejected(build, match):
    with pytest.raises(ValueError, match=match):
        build()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_non_finite_forcing_is_numerical_failure(tmp_path, capsys):
    # a finite amplitude whose forcing overflows
    cfg = write_config(tmp_path, {
        "case": "demo", "mesh": {"family": "cartesian", "ny": 2}, "degree": 1,
        "scheme": {"dt": 0.01, "n_steps": 3}, "demo_amplitude": 1e308,
    })
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "non-finite state at step 1" in err and "Traceback" not in err
    assert not list(out.glob("snapshot_*")) and not (out / "manifest.json").exists()


def test_pure_neumann_steady_is_numerical_failure(tmp_path, capsys):
    # no Dirichlet data anywhere: the steady operator is singular
    cfg = write_config(tmp_path, {"case": "steady", "mesh": {"family": "cartesian", "ny": 2},
                                  "degree": 1, "dirichlet": {}})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "residual" in err and "Traceback" not in err


#: the columns of a rate table for the single-compartment model (J = {E})
RATE_TABLE_COLUMNS = ["m", "h", "n_elements_el", "n_elements_f", "err_energy",
                      "err_d", "err_pE", "err_u", "err_p", "rate_energy"]
#: sha256 of the rates.csv of the sweep below, recorded when the columns
#: were a fixed list in the writer, and again when the manufactured cases
#: became closed forms: each error moved by at most 3.6e-14 of itself
#: (err_p; err_energy 1.7e-15) and the rates not at all; and again when a
#: row with no rate got an empty cell (the first row's "nan" went)
RATES_CSV_SHA256 = "0c9ec040a41b06c6ff5958873250d76467049157fc442a1438a60d6db3593565"


def test_convergence_command_and_determinism(tmp_path):
    doc = {
        "case": "steady",
        "convergence": {
            "m_values": [1],
            "meshes": [{"family": "cartesian", "ny": 2},
                       {"family": "cartesian", "ny": 4},
                       {"family": "cartesian", "ny": 8}],
        },
    }
    cfg = write_config(tmp_path, doc)
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    assert main(["convergence", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["convergence", "--config", cfg, "--out", str(out2)]) == 0
    b1 = (out1 / "rates.csv").read_bytes()
    assert b1 == (out2 / "rates.csv").read_bytes()
    assert sha256_hex(b1) == RATES_CSV_SHA256
    with open(out1 / "rates.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == RATE_TABLE_COLUMNS
    assert len(rows) == 3


def test_convergence_tolerance_failure(tmp_path, monkeypatch):
    # an impossibly tight window must fail with exit code 1
    monkeypatch.setattr(norms, "RATE_WINDOW", (0.0, 0.0))
    cfg = write_config(tmp_path, _SWEEP)
    assert main(["convergence", "--config", cfg, "--out", str(tmp_path / "cf")]) == 1


def test_convergence_needs_three_meshes(tmp_path):
    cfg = write_config(tmp_path, {
        "case": "steady",
        "convergence": {"m_values": [1], "meshes": [{"family": "cartesian", "ny": 2}]},
    })
    assert main(["convergence", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("n_steps", [0, -1])
def test_unsteady_sweep_without_steps_is_input_error(tmp_path, capsys, monkeypatch, n_steps):
    # a sweep that takes no step would measure the initial projection alone;
    # it is refused before any mesh is built
    def no_mesh(spec):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(cli, "resolve_mesh", no_mesh)
    doc = dict(_with(_SWEEP, "convergence", n_steps=n_steps), case="unsteady")
    out = tmp_path / "x"
    assert main(["convergence", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"convergence n_steps must be >= 1, got {n_steps}" in err and "Traceback" not in err
    assert not out.exists()


def test_meshes_that_do_not_refine_are_rejected_before_any_solve(tmp_path, capsys,
                                                                 monkeypatch):
    # the middle mesh is the coarsest: the sizes are known once the meshes
    # are built, so no solve runs
    from polympe import driver

    solves = []
    real = driver.solve_unsteady

    def counted(*args, **kwargs):
        solves.append(args[2].n_elements)
        return real(*args, **kwargs)

    monkeypatch.setattr(driver, "solve_unsteady", counted)
    meshes = [{"family": "cartesian", "ny": n} for n in (4, 2, 8)]
    doc = {"case": "unsteady", "scheme": {"dt": 0.01},
           "convergence": {"m_values": [1], "n_steps": 1, "meshes": meshes}}
    out = tmp_path / "x"
    assert main(["convergence", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "mesh sizes must be strictly decreasing" in err and "Traceback" not in err
    assert solves == [] and not list(out.glob("*"))


def test_no_rate_is_an_empty_cell_and_null(tmp_path, monkeypatch):
    # the coarsest mesh of a sweep has no rate
    out = tmp_path / "c"
    assert main(["convergence", "--config", write_config(tmp_path, _SWEEP),
                 "--out", str(out)]) == 0
    with open(out / "rates.csv") as fh:
        assert next(csv.DictReader(fh))["rate_energy"] == ""

    # with every pair saturated no mesh has a rate, and the rate check fails
    def no_constant(name):
        raise AssertionError(f"{name} is not JSON")

    monkeypatch.setattr(norms, "SATURATION_FLOOR", float("inf"))
    assert main(["convergence", "--config", write_config(tmp_path, _SWEEP),
                 "--out", str(out)]) == 1
    manifest = json.loads((out / "manifest.json").read_text(), parse_constant=no_constant)
    assert manifest["observed_rates"] == {"1": [None, None]}
    assert manifest["failures"] == [{"m": 1, "value": None}]


#: a fixed-mesh sweep over m = 1..3 on the 20-polygon agglomerate
_SPECTRAL = {"case": "steady", "convergence": {
    "spectral": True, "m_values": [1, 2, 3],
    "meshes": [{"family": "agglomerated", "targets": [10, 10], "fine_ny": 12, "seed": 0}]}}


def test_spectral_sweep_on_one_mesh(tmp_path):
    out = tmp_path / "s"
    assert main(["convergence", "--config", write_config(tmp_path, _SPECTRAL),
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["spectral"] is True and manifest["failures"] == []
    with open(out / "rates.csv") as fh:
        errs = [float(r["err_energy"]) for r in csv.DictReader(fh)]
    assert len(errs) == 3 and errs[0] > errs[1] > errs[2]


def test_spectral_trend_failure(tmp_path, capsys, monkeypatch):
    # errors that do not decrease with m fail the sweep with exit code 1
    from polympe import driver

    def flat(case_id, meshes, m_values, scheme=None, n_steps=5):
        return [{"m": m, "h": 0.5, "err_energy": 1.0, "rate_energy": float("nan")}
                for m in m_values]

    monkeypatch.setattr(driver, "convergence_table", flat)
    out = tmp_path / "s"
    assert main(["convergence", "--config", write_config(tmp_path, _SPECTRAL),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "spectral trend check failed at m=2" in err
    assert "spectral trend check failed at m=3" in err
    manifest = json.loads((out / "manifest.json").read_text())
    assert [f["m"] for f in manifest["failures"]] == [2, 3]


def test_verify_command(tmp_path):
    cfg = write_config(tmp_path, {
        "mesh": {"family": "cartesian", "ny": 2},
        "degree": 1,
        "verify": {"n_points": 15},
    })
    out = tmp_path / "v"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "verify.txt").read_text()
    assert "max residual" in text and "structural checks: PASS" in text
    # one negative control per source and case, and the outlet is checked
    for source in SOURCES:
        assert text.count(f"negative control {source} residual") == 2, source
    assert "outlet normal stress" in text
    # one symmetry line for the one compartment mass, none per compartment
    assert "symmetry M_comp:" in text and "symmetry M_E:" not in text


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("dirichlet, name, field", [
    ({"el": ["d", "pE"], "wal": ["u"], "out": []}, "dirichlet 'el'", "'pE'"),
    ({"el": ["d", "p:A"], "wall": ["u"], "out": []}, "dirichlet 'el'", "'p:A'"),
    ({"el": ["d"], "wall": ["u", "p"], "out": []}, "dirichlet 'wall'", "'p'"),
], ids=["misspelt", "other-compartment", "fluid-pressure"])
def test_unknown_dirichlet_field_is_input_error(tmp_path, capsys, monkeypatch, command,
                                                dirichlet, name, field):
    # a Dirichlet field is d, u or p:<j> of the run's compartments (here E)
    doc = {"mesh": {"family": "cartesian", "ny": 2}, "degree": 1, "dirichlet": dirichlet}
    if command == "solve":
        doc.update(case="zero", scheme={"dt": 0.01, "n_steps": 2})
    out = tmp_path / "o"

    def no_mesh(spec):
        raise AssertionError("an unknown Dirichlet field must be reported before the mesh is built")

    monkeypatch.setattr(cli, "resolve_mesh", no_mesh)
    assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert name in err and field in err and "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_dirichlet_label_on_no_edge_is_input_error(tmp_path, capsys, command):
    # "wal" names no boundary edge of the mesh; "out" lists no field and
    # may name any label
    doc = {"mesh": {"family": "cartesian", "ny": 2}, "degree": 1,
           "dirichlet": {"el": ["d", "p:E"], "wal": ["u"], "outlet": []}}
    if command == "solve":
        doc.update(case="zero", scheme={"dt": 0.01, "n_steps": 2})
    out = tmp_path / "o"
    assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "label(s) ['wal']" in err and "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


def test_dirichlet_reads_every_compartment_pressure():
    doc = {"case": "zero", "compartments": ["A", "E"], "scheme": {"dt": 0.01},
           "dirichlet": {"el": ["d", "p:A", "p:E"], "wall": ["u"], "out": []}}
    assert read_config("solve", doc)["dirichlet"] == doc["dirichlet"]


@pytest.mark.parametrize("n_points", [0, -3])
def test_verify_needs_an_interior_point(tmp_path, capsys, monkeypatch, n_points):
    cfg = write_config(tmp_path, {"mesh": {"family": "cartesian", "ny": 2}, "degree": 1,
                                  "verify": {"n_points": n_points}})
    out = tmp_path / "v"

    def no_mesh(spec):
        raise AssertionError("a bad n_points must be reported before the mesh is built")

    monkeypatch.setattr(cli, "resolve_mesh", no_mesh)
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "n_points" in err and "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("doc, message", [
    ({"dirichlet": {"el": ["d", "p:E"], "wal": ["u"], "outlet": []}}, "label(s) ['wal']"),
    ({"mesh": {"path": "no_such_mesh.json"}}, "no_such_mesh.json"),
], ids=["dirichlet_label", "mesh_file"])
def test_verify_reports_input_errors_before_the_oracle(tmp_path, capsys, monkeypatch, doc,
                                                       message):
    cfg = write_config(tmp_path, {"mesh": {"family": "cartesian", "ny": 2}, "degree": 1, **doc})
    out = tmp_path / "v"

    def no_oracle(*args, **kwargs):
        raise AssertionError("a mesh or Dirichlet error must be reported before the oracle runs")

    monkeypatch.setattr(cli, "residual_oracle", no_oracle)
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("mesh, name", [
    (dict(_AGGLOMERATED, fine_ny=0), "ny"),
    (dict(_AGGLOMERATED, fine_nx_el=0), "nx_el"),
    (dict(_AGGLOMERATED, fine_nx_f=0), "nx_f"),
    ({"family": "cartesian", "ny": 2, "nx": 0}, "nx"),
], ids=["fine_ny", "fine_nx_el", "fine_nx_f", "nx"])
def test_non_positive_mesh_size_is_input_error(tmp_path, capsys, mesh, name):
    cfg = write_config(tmp_path, dict(_ZERO_SOLVE, mesh=mesh))
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{name} must be" in err and "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


def test_mesh_file_with_a_label_on_an_interior_edge_is_input_error(tmp_path, capsys):
    # (1, 6) is an interior edge of the cart2 mesh
    path = tmp_path / "mesh.json"
    save_mesh(cartesian_two_domain(2), path)
    doc = json.loads(path.read_text())
    doc["boundary"].append({"edge": [1, 6], "label": "el"})
    path.write_text(json.dumps(doc))
    cfg = write_config(tmp_path, dict(_ZERO_SOLVE, mesh={"path": str(path)}))
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "boundary label on (1, 6), which is not a boundary edge" in err
    assert "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


def test_mesh_file_with_an_edge_labelled_twice_is_input_error(tmp_path, capsys):
    # the outlet edge listed again, reversed, as a wall: no run may silently
    # take either label
    path = tmp_path / "mesh.json"
    save_mesh(cartesian_two_domain(2), path)
    doc = json.loads(path.read_text())
    a, b = next(entry["edge"] for entry in doc["boundary"] if entry["label"] == "out")
    doc["boundary"].append({"edge": [b, a], "label": "wall"})
    path.write_text(json.dumps(doc))
    cfg = write_config(tmp_path, dict(_ZERO_SOLVE, mesh={"path": str(path)}))
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"boundary edge ({a}, {b}) is labelled twice, 'out' and 'wall'" in err
    assert "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("bad", [0, -1])
@pytest.mark.parametrize("command, doc, key", [
    ("solve", dict(_ZERO_SOLVE), "degree"),
    ("verify", dict(_VERIFY), "degree"),
    ("convergence", _with(_SWEEP, "convergence"), "convergence m_values"),
], ids=["solve", "verify", "convergence"])
def test_degree_below_one_is_input_error(tmp_path, capsys, monkeypatch, command, doc, key, bad):
    if command == "convergence":
        doc["convergence"]["m_values"] = [1, bad]
    else:
        doc["degree"] = bad
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "o"

    def no_mesh(spec):
        raise AssertionError("a degree below 1 must be reported before a mesh is built")

    monkeypatch.setattr(cli, "resolve_mesh", no_mesh)
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{key} must be >= 1" in err and "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command, doc, message", [
    ("solve", _with(_ZERO_SOLVE, "mesh", family="agglomerated", seed=-1),
     "mesh seed must be >= 0, got -1"),
    ("convergence", dict(_SWEEP, convergence={"meshes": [dict(_AGGLOMERATED, seed=-1)] * 3}),
     "convergence meshes[0] seed must be >= 0, got -1"),
    ("agglomerate", {"agglomeration": {"fine": {"fine_ny": 4, "seed": -2}, "targets": [2, 2]}},
     "agglomeration fine seed must be >= 0, got -2"),
    ("agglomerate", {"agglomeration": {"fine": {"fine_ny": 4}, "targets": [2, 2], "seed": -1}},
     "agglomeration seed must be >= 0, got -1"),
], ids=["solve-mesh", "convergence-mesh", "agglomerate-fine", "agglomerate"])
def test_negative_seed_is_input_error(tmp_path, capsys, command, doc, message):
    # named by its key before any mesh is drawn, not by the random generator
    out = tmp_path / "o"
    assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("doc, message", [
    (_with(_ZERO_SOLVE, None, case="stedy"),
     "unknown case 'stedy'; expected steady, unsteady, zero or demo"),
    (_with(_ZERO_SOLVE, "mesh", family="hexagonal"),
     "unknown mesh family 'hexagonal'; expected agglomerated or cartesian"),
    (_with(_ZERO_SOLVE, None, params={"preset": "liver"}),
     "unknown params preset 'liver'; expected unit or brain"),
], ids=["case", "family", "preset"])
def test_a_choice_error_lists_the_choices(tmp_path, capsys, doc, message):
    out = tmp_path / "o"
    assert main(["solve", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("error, code", [
    (InputError("bad input"), 2), (NumericalError("no solution"), 3),
    (ValueError("a fault of the program"), None), (KeyError("f_el"), None),
], ids=["InputError", "NumericalError", "ValueError", "KeyError"])
def test_exit_codes_follow_the_error_type(tmp_path, capsys, monkeypatch, error, code):
    # exit 2 names an input error alone: a builtin ValueError or KeyError
    # raised inside the march is a fault of the program, not of the config
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(stepping, "simulate", failing)
    argv = ["solve", "--config", write_config(tmp_path, _ZERO_SOLVE), "--out", str(tmp_path / "o")]
    if code is None:
        with pytest.raises(type(error)):
            main(argv)
    else:
        assert main(argv) == code
        assert "Traceback" not in capsys.readouterr().err


def test_a_config_that_is_not_text_is_input_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b"\xff\xfe{")
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"cannot parse {path}" in capsys.readouterr().err


def test_mesh_file_with_a_vertex_index_that_is_not_an_integer_is_input_error(tmp_path, capsys):
    path = tmp_path / "mesh.json"
    save_mesh(cartesian_two_domain(1), path)
    doc = json.loads(path.read_text())
    doc["elements"][0]["v"] = [0.3, 1.3, 4.3, 3.3]
    path.write_text(json.dumps(doc))
    cfg = write_config(tmp_path, dict(_ZERO_SOLVE, mesh={"path": str(path)}))
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "element 0 has a vertex index that is not an integer" in err
    assert "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


def test_tol_flag_is_gone(tmp_path):
    # the rate window is norms.RATE_WINDOW alone
    cfg = write_config(tmp_path, _SWEEP)
    with pytest.raises(SystemExit) as exc:
        main(["convergence", "--config", cfg, "--out", str(tmp_path / "o"), "--tol", "0.5"])
    assert exc.value.code == 2


def test_agglomerate_command(tmp_path):
    cfg = write_config(tmp_path, {
        "agglomeration": {
            "fine": {"fine_ny": 8, "jitter": 0.2, "seed": 0},
            "targets": [5, 5],
            "seed": 3,
            "output": "coarse.json",
        },
    })
    out = tmp_path / "agg"
    assert main(["agglomerate", "--config", cfg, "--out", str(out)]) == 0
    coarse = load_mesh(out / "coarse.json")
    assert coarse.n_elements == 10
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["partition_valid"] is True
    assert manifest["area_error"] < 1e-10
    assert (out / "quality.txt").exists()


def test_cell_means_of_projected_linear_field():
    import numpy as np
    from polympe.families import cartesian_two_domain, VERIFICATION_DIRICHLET
    from polympe.mesh import build_faces
    from polympe.outputs import cell_means
    from polympe.spaces import build_space, l2_project

    mesh = cartesian_two_domain(2)
    build_faces(mesh, VERIFICATION_DIRICHLET)
    space = build_space(mesh, 1)
    state = {f: np.zeros(space.sizes[f]) for f in space.fields}
    state["p:E"] = l2_project(space, "p:E", lambda p: p[:, 0] + 2 * p[:, 1])
    means = cell_means(space, state)
    for elem in space.el_ids:
        cx, cy = mesh.centroids[int(elem)]
        assert means["p:E"][int(elem), 0] == pytest.approx(cx + 2 * cy, rel=1e-12)
    for elem in space.f_ids:
        assert means["p:E"][int(elem), 0] == 0.0


def test_cell_means_match_exact_polygon_averages(mesh80):
    import numpy as np
    from polympe.outputs import cell_means
    from polympe.spaces import build_space, l2_project

    space = build_space(mesh80, 2)
    state = {f: np.zeros(space.sizes[f]) for f in space.fields}
    linear = lambda p: np.stack([1 + 2 * p[:, 0] - p[:, 1], 3 * p[:, 1] - 0.5], axis=1)
    state["d"] = l2_project(space, "d", linear)
    state["u"] = l2_project(space, "u", linear)
    state["p"] = l2_project(space, "p", lambda p: linear(p)[:, 0])
    means = cell_means(space, state)
    for k, elem in enumerate(mesh80.elements):
        # the average of a linear field is its value at the area centroid
        x, y = mesh80.vertices[elem].T
        cross = x * np.roll(y, -1) - np.roll(x, -1) * y
        area = 0.5 * cross.sum()
        centroid = np.array([((x + np.roll(x, -1)) * cross).sum(),
                             ((y + np.roll(y, -1)) * cross).sum()]) / (6 * area)
        exact = linear(centroid[None, :])[0]
        field = "d" if mesh80.element_domain[k] == "elastic" else "u"
        other = "u" if field == "d" else "d"
        assert np.abs(means[field][k] - exact).max() < 1e-12
        assert np.all(means[other][k] == 0.0)
        if field == "u":
            assert means["p"][k, 0] == pytest.approx(exact[0], rel=1e-12)
