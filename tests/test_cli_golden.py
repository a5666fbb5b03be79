"""CLI outputs at fixed seeds against a golden record.

Each output is split into its floating-point numbers and a skeleton: the text
with every float replaced by its index among the output's distinct floats.
The skeleton (integers, combinatorics, verdicts, layout) must match exactly,
through its SHA-256, and the floats to 1e-12 relative.

To re-record after an intended change of outputs:

    PYTHONPATH=src python -m tests.test_cli_golden tests/data/cli_golden.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from hullmaps.cli import main
from hullmaps.geom_core import write_points_csv

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
FLOAT = re.compile(r"[-+]?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)")
RTOL = 1e-12

INPUTS = {
    "cube": [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)],
    "n20": np.random.default_rng(20).standard_normal((20, 3)),
}
OUTPUTS = ("approx", "approx_cap", "converge", "hull_stdout", "hull", "dual_stdout", "dual",
           "classify_stdout", "classify")
NAMES = [f"{i}/{o}" for i in INPUTS for o in OUTPUTS]


def _run(argv) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    assert code == 0, argv
    return stdout.getvalue()


def _outputs(workdir: Path) -> dict:
    """name -> text of every recorded output, for both inputs."""
    texts = {}
    for name, points in INPUTS.items():
        src = str(workdir / f"{name}.csv")
        write_points_csv(src, points)
        out = workdir / name
        _run(["approx", src, "--out", f"{out}_approx.csv", "--eps", "0.01", "--samples", "8",
              "--strategy", "gaussian_random", "--seed", "3"])
        texts[f"{name}/approx"] = Path(f"{out}_approx.csv").read_text()
        _run(["approx", src, "--out", f"{out}_cap.csv", "--eps", "0.01", "--samples", "8",
              "--cap-center", "0.2,0.3,1", "--cap-radius", "0.4"])
        texts[f"{name}/approx_cap"] = Path(f"{out}_cap.csv").read_text()
        _run(["converge", src, "--out", f"{out}_conv.csv", "--samples", "300",
              "--eps-list", "0.1,0.01", "--boundary-per-facet", "20", "--seed", "2"])
        rows = Path(f"{out}_conv.csv").read_text().splitlines()
        assert rows[0].endswith(",wall_ms")
        texts[f"{name}/converge"] = "\n".join(r.rsplit(",", 1)[0] for r in rows)
        texts[f"{name}/hull_stdout"] = _run(["hull", src, "--out", f"{out}_hull.txt"])
        texts[f"{name}/hull"] = Path(f"{out}_hull.txt").read_text()
        texts[f"{name}/dual_stdout"] = _run(["dual", src, "--out", f"{out}_dual.txt"])
        texts[f"{name}/dual"] = Path(f"{out}_dual.txt").read_text()
        texts[f"{name}/classify_stdout"] = _run(["classify", src, "--direction", "0.3,-0.2,1",
                                                 "--out", f"{out}_cls.txt"])
        texts[f"{name}/classify"] = Path(f"{out}_cls.txt").read_text()
    return texts


def _digest(text: str) -> dict:
    floats = {}

    def index(match):
        return f"~{floats.setdefault(match.group(0), len(floats))}"

    skeleton = FLOAT.sub(index, text)
    return {"skeleton_sha256": hashlib.sha256(skeleton.encode()).hexdigest(),
            "floats": [float(f) for f in floats]}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return _outputs(tmp_path_factory.mktemp("golden"))


def test_golden_covers_every_output(outputs):
    assert sorted(outputs) == sorted(json.loads(GOLDEN.read_text())) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_cli_output_matches_golden(outputs, name):
    want = json.loads(GOLDEN.read_text())[name]
    got = _digest(outputs[name])
    assert got["skeleton_sha256"] == want["skeleton_sha256"], outputs[name]
    assert len(got["floats"]) == len(want["floats"])
    np.testing.assert_allclose(got["floats"], want["floats"], rtol=RTOL, atol=0.0)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = {k: _digest(v) for k, v in sorted(_outputs(Path(tmp)).items())}
    with open(sys.argv[1], "w") as fh:
        fh.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                    for k, v in record.items()) + "\n}\n")
