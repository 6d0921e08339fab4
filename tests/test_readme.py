"""The documented API: README examples run, and every exported name exists."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
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


MODULES = [m.name for m in pkgutil.iter_modules(lidarcorrupt.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"lidarcorrupt.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_exports_what_its_modules_declare():
    declared = set()
    for name in MODULES:
        if name == "cli":  # kept out of the package import: it loads click and scipy
            continue
        module = importlib.import_module(f"lidarcorrupt.{name}")
        assert hasattr(module, "__all__"), name
        declared.update(module.__all__)
        stale = [n for n in module.__all__ if getattr(lidarcorrupt, n, None) is not getattr(module, n)]
        assert stale == [], name
    # A fresh interpreter, so no other test has imported `cli` or its dependencies.
    probe = ("import sys, lidarcorrupt\n"
             "print(sorted(n for n in vars(lidarcorrupt) if not n.startswith('_')))\n"
             "print(sorted(m for m in ('click', 'scipy', 'lidarcorrupt.cli') if m in sys.modules))\n"
             "print(lidarcorrupt.__version__)")
    path = [str(Path(lidarcorrupt.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            timeout=120, check=True,
                            env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))))
    public, loaded, version = result.stdout.splitlines()
    assert ast.literal_eval(public) == sorted(declared | (set(MODULES) - {"cli"}))
    assert loaded == "[]"
    assert version == lidarcorrupt.__version__
