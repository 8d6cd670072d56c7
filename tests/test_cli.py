import csv
import json

import pytest

from polympe import cli
from polympe.cli import main
from polympe.mesh import load_mesh
from polympe.outputs import RATE_COLUMNS

from conftest import sha256_hex


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
#: zero cases: 4 steps of 0.01, snapshot stride 2)
CASE_SNAPSHOT_SHA256 = {
    "steady": {
        "snapshot_000000.csv": "1e615e3e675c96eb37c9a8b3ad7db04b539c301ebe252bdd64e591ac20ddf580",
        "snapshot_000000.vtk": "4caf8fa9813da3624f3ad6a3e7d26fc32c08e90cb15e2cb313e674f8fb1db89a",
    },
    "unsteady": {
        "snapshot_000002.csv": "4f8792898bdf795b6ac19e1d08523c252b233c5023ff4324d4f02a61b51bec9e",
        "snapshot_000002.vtk": "22e1fb97280343b95b8c576a87a00b369dd432ae70e3dff236093c053c0a9821",
        "snapshot_000004.csv": "4a8c14e8933c4fea1ec84cc12846900a1522682ad613df6901eeceec994ef6f5",
        "snapshot_000004.vtk": "6a5615d7ff6d65a89dcbc30881aae98f2d23c5854d445f6712df0374f1426b63",
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
    assert manifest["resolved_scheme"] is None


def test_solve_manifest_records_the_full_scheme(tmp_path):
    cfg = write_config(tmp_path, {"case": "zero", "mesh": {"family": "cartesian", "ny": 2},
                                  "degree": 1, "scheme": {"dt": 0.01, "n_steps": 2}})
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["resolved_scheme"] == {"dt": 0.01, "beta": 0.25, "gamma": 0.5,
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
])
def test_unknown_config_key_is_input_error(tmp_path, capsys, command, doc, key):
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert repr(key) in err and "Traceback" not in err


def test_shipped_configs_have_known_top_level_keys():
    # each config passes the checks its command makes before building a mesh
    from pathlib import Path
    from polympe.cli import _SOLVE_KEYS, _TOP_KEYS, _check_keys, resolve_params, resolve_scheme
    configs = Path(__file__).resolve().parents[1] / "configs"
    commands = {"agglomerate_brain_scale": "agglomerate", "demo": "solve", "spectral": "convergence",
                "verification_steady": "convergence", "verification_unsteady": "convergence",
                "verify": "verify"}
    assert sorted(commands) == sorted(p.stem for p in configs.glob("*.json"))
    for name, command in commands.items():
        cfg = json.loads((configs / f"{name}.json").read_text())
        _check_keys("top-level", cfg, _TOP_KEYS[command])
        if command == "solve":
            _check_keys("solve", cfg, _SOLVE_KEYS[cfg["case"]])
        if command in ("solve", "verify"):
            resolve_params(cfg)
        if "scheme" in cfg:
            resolve_scheme(cfg, extra=("n_steps",) if command == "solve" else ())


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


@pytest.mark.parametrize("doc, match", [
    ({"params": {"mu_j": {"X": 2.0}}}, "'X'"),
    ({"compartments": ["A", "E"], "params": {"beta": {"E": {"X": 2.0}}}}, "'X'"),
    ({"compartments": "AE"}, "compartments must be a list"),
])
def test_bad_per_compartment_value_is_config_error(doc, match):
    with pytest.raises(cli.ConfigError, match=match):
        cli.resolve_params(doc)


def test_beta_override_merges_entry_by_entry():
    params = cli.resolve_params({"compartments": ["A", "E"],
                                 "params": {"beta": {"E": {"A": 2.0}}}})
    assert params.beta == {"A": {"A": 1.0, "E": 1.0}, "E": {"A": 2.0, "E": 1.0}}


_SMALL_MESHES = [{"family": "cartesian", "ny": n} for n in (2, 4, 8)]


@pytest.mark.parametrize("command, doc, keys", [
    ("convergence", {"case": "steady", "convergence": {"m_values": [1], "meshes": _SMALL_MESHES}},
     {"spectral", "observed_rates", "failures"}),
    ("solve", {"case": "zero", "mesh": {"family": "cartesian", "ny": 2}, "degree": 1,
               "scheme": {"dt": 0.01, "n_steps": 2}},
     {"snapshots", "n_elements", "n_dofs", "resolved_params", "resolved_scheme"}),
    ("verify", {"mesh": {"family": "cartesian", "ny": 2}, "degree": 1,
                "verify": {"n_points": 5}}, {"passed"}),
    ("agglomerate", {"agglomeration": {"fine": {"fine_ny": 4}, "targets": [2, 2]}},
     {"coarse_elements", "partition_valid", "area_error"}),
])
def test_manifest_fields(tmp_path, command, doc, keys):
    from polympe import __version__
    out = tmp_path / "o"
    main([command, "--config", write_config(tmp_path, doc), "--out", str(out), "--tol", "0.5"])
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {"config", "command", "version", "elapsed_s"} | keys
    assert manifest["command"] == command and manifest["version"] == __version__
    assert manifest["config"] == doc and manifest["elapsed_s"] > 0.0


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


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_non_finite_forcing_is_numerical_failure(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "case": "demo", "mesh": {"family": "cartesian", "ny": 2}, "degree": 1,
        "scheme": {"dt": 0.01, "n_steps": 3}, "demo_amplitude": float("inf"),
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
    assert main(["convergence", "--config", cfg, "--out", str(out1), "--tol", "0.5"]) == 0
    assert main(["convergence", "--config", cfg, "--out", str(out2), "--tol", "0.5"]) == 0
    b1 = (out1 / "rates.csv").read_bytes()
    assert b1 == (out2 / "rates.csv").read_bytes()
    with open(out1 / "rates.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == RATE_COLUMNS
    assert len(rows) == 3


def test_convergence_tolerance_failure(tmp_path):
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
    # an impossibly tight window must fail with exit code 1
    assert main(["convergence", "--config", cfg, "--out",
                 str(tmp_path / "cf"), "--tol", "1e-9"]) == 1


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
    assert "negative control" in text


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
