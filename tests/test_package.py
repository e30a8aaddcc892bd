import os
import subprocess
import sys
from pathlib import Path

import pytest

import quonalg

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_lists_each_name_once_and_every_name_resolves():
    assert len(quonalg.__all__) == len(set(quonalg.__all__))
    for name in quonalg.__all__:
        assert hasattr(quonalg, name), name


@pytest.mark.parametrize("layer", ["group_algebra", "linalg", "gram", "quon_engine", "posdef"])
def test_layer_computes_without_quotients(layer):
    # RationalFunction belongs to the print and parse boundary only
    source = (Path(quonalg.__file__).resolve().parent / f"{layer}.py").read_text()
    assert "RationalFunction" not in source


def test_demos_are_present():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    src = str(Path(quonalg.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
