import csv
import json
import re
from pathlib import Path

import pytest

from polympe import cli
from polympe.cli import main
from polympe.manufactured import SOURCES
from polympe.mesh import load_mesh
from polympe.params import PhysicalParams
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
])
def test_unknown_config_key_is_input_error(tmp_path, capsys, command, doc, key):
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert repr(key) in err and "Traceback" not in err


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


_SMALL_MESHES = [{"family": "cartesian", "ny": n} for n in (2, 4, 8)]
_ZERO_SOLVE = {"case": "zero", "mesh": {"family": "cartesian", "ny": 2}, "degree": 1,
               "scheme": {"dt": 0.01, "n_steps": 2}}
_AGGLOMERATED = {"family": "agglomerated", "targets": [2, 2], "fine_ny": 4}
_SWEEP = {"case": "steady", "convergence": {"m_values": [1], "meshes": _SMALL_MESHES}}


def _with(doc, section, **changes):
    """``doc`` with the entries ``changes`` set in its ``section`` (the
    top level when ``section`` is ``None``)."""
    doc = json.loads(json.dumps(doc))
    (doc if section is None else doc[section]).update(changes)
    return doc


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
    ("convergence", _with(_SWEEP, "convergence", tol={"below": True}), "tol below"),
    ("verify", {"mesh": {"family": "cartesian", "ny": 2}, "degree": 1,
                "verify": {"n_points": "5"}}, "n_points"),
    ("verify", {"mesh": {"family": "cartesian", "ny": 2}, "degree": 1,
                "verify": {"n_points": 5, "oracle_tol": False}}, "oracle_tol"),
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


@pytest.mark.parametrize("command, doc, name", [
    ("solve", _with(_ZERO_SOLVE, None, case=["demo"]), "case"),
    ("solve", _with(_ZERO_SOLVE, "mesh", family=["cartesian"]), "mesh family"),
    ("solve", _with(_ZERO_SOLVE, None, mesh={"path": 7}), "mesh path"),
    ("solve", _with(_ZERO_SOLVE, None, output_dir=5), "output_dir"),
    ("solve", _with(_ZERO_SOLVE, None, params={"preset": ["brain"]}), "params preset"),
    ("convergence", _with(_SWEEP, None, case=1), "case"),
    ("verify", {"case": None, "mesh": {"family": "cartesian", "ny": 2}, "degree": 1}, "case"),
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
    ("verify", {"case": "stedy", "mesh": {"family": "cartesian", "ny": 2}, "degree": 1}),
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
    with pytest.raises(cli.ConfigError, match=match):
        cli.resolve_params(doc)


def test_beta_override_merges_entry_by_entry():
    params = cli.resolve_params({"compartments": ["A", "E"],
                                 "params": {"beta": {"E": {"A": 2.0}}}})
    assert params.beta == {"A": {"A": 1.0, "E": 1.0}, "E": {"A": 2.0, "E": 1.0}}


@pytest.mark.parametrize("command, doc, keys", [
    ("convergence", {"case": "steady", "convergence": {"m_values": [1], "meshes": _SMALL_MESHES,
                                                       "tol": {"below": 0.5, "above": 0.5}}},
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


@pytest.mark.parametrize("doc", [{"snapshot_stride": 0, "scheme": {"dt": 0.01, "n_steps": 2}},
                                 {"scheme": {"dt": 0.01, "n_steps": -4}}])
def test_bad_step_counts_are_input_errors(tmp_path, capsys, monkeypatch, doc):
    cfg = write_config(tmp_path, dict({"case": "zero", "mesh": {"family": "cartesian", "ny": 2},
                                       "degree": 1}, **doc))
    out = tmp_path / "o"

    def no_mesh(spec):
        raise AssertionError("a bad step count must be reported before the mesh is built")

    monkeypatch.setattr(cli, "resolve_mesh", no_mesh)
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "n_steps >= 0 and stride >= 1" in err and "Traceback" not in err
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
#: (err_p; err_energy 1.7e-15) and the rates not at all
RATES_CSV_SHA256 = "ad3b4a43abf7551e56550b87e736274f6fdc7f86b699d1bd906043dd398a1b46"


def test_convergence_command_and_determinism(tmp_path):
    doc = {
        "case": "steady",
        "convergence": {
            "m_values": [1],
            "meshes": [{"family": "cartesian", "ny": 2},
                       {"family": "cartesian", "ny": 4},
                       {"family": "cartesian", "ny": 8}],
            "tol": {"below": 0.5, "above": 0.5},
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


def test_convergence_tolerance_failure(tmp_path):
    doc = {
        "case": "steady",
        "convergence": {
            "m_values": [1],
            "meshes": [{"family": "cartesian", "ny": 2},
                       {"family": "cartesian", "ny": 4},
                       {"family": "cartesian", "ny": 8}],
            # an impossibly tight window must fail with exit code 1
            "tol": {"below": 1e-9, "above": 1e-9},
        },
    }
    cfg = write_config(tmp_path, doc)
    assert main(["convergence", "--config", cfg, "--out", str(tmp_path / "cf")]) == 1


def test_convergence_needs_three_meshes(tmp_path):
    cfg = write_config(tmp_path, {
        "case": "steady",
        "convergence": {"m_values": [1], "meshes": [{"family": "cartesian", "ny": 2}]},
    })
    assert main(["convergence", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


def test_verify_command(tmp_path):
    cfg = write_config(tmp_path, {
        "mesh": {"family": "cartesian", "ny": 2},
        "degree": 1,
        "verify": {"n_points": 15, "t": 0.2},
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


def test_tol_flag_is_gone(tmp_path):
    # the rate window is the config's convergence.tol alone
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
