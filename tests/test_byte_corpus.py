"""A few fast runs of tools/byte_corpus.py against its committed digest.

The whole corpus takes minutes. These runs read no synth scene, only the inputs
that the tool writes itself, so a change that moves their bytes fails here within
seconds. The digest holds the bytes of one Python and numpy version; under any
other version the test skips.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import maskbench

_TOOLS = Path(__file__).resolve().parents[1] / "tools"
_RUNS = {
    "loss-eval-readme-csv",
    "eval-det-huge-boxes-csv",
    "report-video-nms0.4-huge-boxes-json",
    "report-video-not-utf8-after-error",
    "loss-eval-not-utf8",
    "gen-density-nul-image-id",
    "eval-ratio-above-range-box-annotations",
    "eval-count-line-feed-map-shape",
}


def _tool():
    spec = importlib.util.spec_from_file_location("byte_corpus", _TOOLS / "byte_corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fast_runs_match_the_committed_digest(tmp_path, monkeypatch):
    tool = _tool()
    want = (_TOOLS / "byte_corpus.sha256").read_text().splitlines()
    (tmp_path / "empty").mkdir()
    header = tool.digest(tmp_path / "empty")[0]
    if header != want[0]:
        pytest.skip(f"the digest holds the bytes of {want[0][2:]}, and this is {header[2:]}")
    names = {f"{k:03d}-{name}" for k, (name, _) in enumerate(tool.runs()) if name in _RUNS}
    assert len(names) == len(_RUNS)
    # the runs are fresh processes: they import the maskbench under test
    monkeypatch.setenv("PYTHONPATH", str(Path(maskbench.__file__).resolve().parents[1]))
    tool.build(tmp_path / "corpus", only=names)
    got = tool.digest(tmp_path / "corpus")[1:]
    assert names <= {line.split("  ", 1)[1] for line in got}
    # every unit written, the runs and the inputs they share, is as committed
    assert sorted(set(got) - set(want[1:])) == []


def test_a_build_that_cannot_import_maskbench_exits_2_and_makes_nothing(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    installed = subprocess.run([sys.executable, "-c", "import maskbench"], cwd=tmp_path,
                               env=env, capture_output=True)
    if installed.returncode == 0:
        pytest.skip("maskbench imports without PYTHONPATH: an installed copy would run")
    (tmp_path / "empty").mkdir()
    done = subprocess.run([sys.executable, str(_TOOLS / "byte_corpus.py"), "out"], cwd=tmp_path,
                          env={**env, "PYTHONPATH": "empty"}, capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stdout == (f"maskbench does not import with PYTHONPATH="
                           f"{str(tmp_path.resolve() / 'empty')!r}; nothing run\n")
    assert not (tmp_path / "out").exists()
