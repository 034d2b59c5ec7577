"""Package-level contract: numpy is the only third-party dependency."""

import subprocess
import sys
from pathlib import Path

import prosynth

MODULES = {"align", "autodiff", "dsp", "errors", "fileio", "prosody", "seq2seq", "synthdata"}

# imports every prosynth module with scipy blocked, then lists the modules
SCRIPT = """
import importlib, pkgutil, sys
sys.path.insert(0, sys.argv[1])
sys.modules["scipy"] = None
import prosynth
names = sorted(m.name for m in pkgutil.iter_modules(prosynth.__path__))
for name in names:
    importlib.import_module("prosynth." + name)
print(",".join(names))
"""


def test_every_module_imports_without_scipy():
    root = str(Path(prosynth.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", SCRIPT, root], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert MODULES <= set(done.stdout.strip().split(","))
