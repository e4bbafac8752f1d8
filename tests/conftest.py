"""Child processes started by the tests import the same mecheff as the tests,
so a bare `pytest` works from a source checkout without an install."""

import os
from pathlib import Path

import mecheff

_SRC = str(Path(mecheff.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
