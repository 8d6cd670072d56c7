"""One failure surface: single-key edits of every shipped config, each run
through its command, end in a documented exit code and never in a
traceback. An input error (exit 2) writes nothing, and a run that exits 0
writes finite numbers only.

The configs are shrunk to meshes of at most 80 elements and a few steps
first, so that a run that is not rejected costs a fraction of a second."""

import contextlib
import copy
import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from polympe.cli import main

from test_cli import SHIPPED, shipped

#: the edits that shrink each shipped config, by key path
SMALL = {
    "agglomerate_brain_scale": {("agglomeration", "fine", "fine_ny"): 4,
                                ("agglomeration", "fine", "fine_nx_el"): 4,
                                ("agglomeration", "fine", "fine_nx_f"): 2,
                                ("agglomeration", "targets"): [6, 3]},
    "demo": {("mesh", "targets"): [4, 4], ("mesh", "fine_ny"): 4, ("degree",): 1,
             ("scheme", "n_steps"): 3, ("snapshot_stride",): 1},
    "spectral": {("convergence", "m_values"): [1, 2],
                 ("convergence", "meshes", 0, "targets"): [4, 4],
                 ("convergence", "meshes", 0, "fine_ny"): 4},
    "verify": {("mesh", "targets"): [4, 4], ("mesh", "fine_ny"): 4, ("degree",): 1,
               ("verify", "n_points"): 2},
}
for _name in ("verification_steady", "verification_unsteady"):
    SMALL[_name] = {("convergence", "m_values"): [1], ("convergence", "meshes", 0, "fine_ny"): 4,
                    ("convergence", "meshes", 0, "targets"): [2, 2],
                    ("convergence", "meshes", 1, "fine_ny"): 6,
                    ("convergence", "meshes", 1, "targets"): [8, 8],
                    ("convergence", "meshes", 2, "fine_ny"): 8,
                    ("convergence", "meshes", 2, "targets"): [32, 32]}
SMALL["verification_unsteady"][("convergence", "n_steps")] = 2

#: the values an edit puts in place of a key: extreme and invalid numbers
#: and wrong kinds; MISSING deletes the key
MISSING = object()
VALUES = (0, 1e-320, 1e-300, 1e30, 1.7e308, -1, "x", True, None, [1], {}, MISSING)


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    if value is MISSING:
        del doc[path[-1]]
    else:
        doc[path[-1]] = copy.deepcopy(value)


def small(name):
    doc = shipped(name)
    for path, value in SMALL[name].items():
        _set(doc, path, value)
    return doc


def _paths(doc, prefix=()):
    """Every key path of ``doc``, into objects and lists of objects."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, val in items:
        if isinstance(doc, dict):
            yield prefix + (key,)
        if isinstance(val, dict) or (isinstance(val, list) and val
                                     and all(isinstance(v, dict) for v in val)):
            yield from _paths(val, prefix + (key,))


EDITS = [(name, path, value) for name in sorted(SHIPPED) for path in _paths(small(name))
         for value in VALUES]


def _numbers(path: Path):
    """The numbers written to ``path``, a CSV table or a JSON document."""
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                for cell in row.values():
                    try:
                        yield float(cell)
                    except ValueError:  # a name, such as the domain
                        pass
    elif path.suffix == ".json":
        stack = [json.loads(path.read_text())]
        while stack:
            val = stack.pop()
            if isinstance(val, dict):
                stack.extend(val.values())
            elif isinstance(val, list):
                stack.extend(val)
            elif isinstance(val, float):
                yield val


def run(command, doc, tmp: Path):
    """Run ``command`` on ``doc`` in-process; warnings are recorded, not
    raised, as the console script would print them and go on. Returns the
    exit code and stderr."""
    cfg, out = tmp / "config.json", tmp / "out"
    cfg.write_text(json.dumps(doc))
    err = io.StringIO()
    with warnings.catch_warnings(record=True), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main([command, "--config", str(cfg), "--out", str(out)])
    return code, err.getvalue()


def test_the_small_configs_run():
    for name, command in SHIPPED.items():
        with tempfile.TemporaryDirectory() as tmp:
            code, _ = run(command, small(name), Path(tmp))
            assert code in (0, 1), name


def check(edit):
    """Run one of :data:`EDITS` and assert what every edit must give: a
    documented exit code, no traceback, nothing written on exit 2 and finite
    numbers on exit 0. Returns the exit code and stderr."""
    name, path, value = edit
    doc = small(name)
    _set(doc, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code, err = run(SHIPPED[name], doc, Path(tmp))
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
        if code == 2:
            assert not out.exists() or not any(out.iterdir())
        if code == 0:
            for path in out.iterdir():
                assert all(math.isfinite(v) for v in _numbers(path)), path.name
    return code, err


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(edit=st.sampled_from(EDITS))
@example(edit=("demo", ("scheme", "dt"), 1e-300))
@example(edit=("demo", ("mesh", "jitter"), 1.7e308))
def test_single_key_edits_of_shipped_configs(edit):
    # tests/config_fuzz_sweep.py runs every edit
    check(edit)
