"""Every example script runs to completion (each one asserts its own claims)."""

import importlib.util
import pathlib
import sys
import tempfile

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(path.stem for path in EXAMPLES_DIR.glob("*.py"))


def test_every_example_is_collected():
    assert len(EXAMPLES) == 6


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_main_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [f"{name}.py"])
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    spec = importlib.util.spec_from_file_location(f"example_{name}", EXAMPLES_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    assert capsys.readouterr().out
