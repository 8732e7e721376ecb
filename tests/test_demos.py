"""Every demo script runs to completion against the public API."""

import contextlib
import io
import pathlib
import runpy
import tempfile

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, monkeypatch, tmp_path):
    # a scratch file, in the temporary directory or relative to the working one, lands
    # in tmp_path and must be gone when the demo ends
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue()
    assert not any(tmp_path.iterdir())
