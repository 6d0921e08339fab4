"""The documented API: README examples run, and every exported name exists."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import lidarcorrupt
from conftest import write_dataset

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)


def test_readme_python_blocks_run(tmp_path):
    root = write_dataset(tmp_path / "08", "semantickitti", n_frames=2)
    blocks = python_blocks(README.read_text())
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:  # later blocks use names the earlier ones define
        exec(block.replace("/data/sequences/08", str(root)), namespace)
    assert namespace["frame"].cloud.frame_id == "000000"
    assert len(namespace["outs"]) == 24
    assert namespace["cloud"].frame_id == "000001"
    assert not namespace["snowed"].cloud.equals(namespace["frame"].cloud)
    assert 0 < len(namespace["thinned"].cloud) < len(namespace["frame"].cloud)


@pytest.mark.parametrize("name", [m.name for m in pkgutil.iter_modules(lidarcorrupt.__path__)])
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"lidarcorrupt.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
