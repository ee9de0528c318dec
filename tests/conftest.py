"""Child processes started by tests import the package from where this process did.

pytest's ``pythonpath`` setting reaches only this process, so it is passed on
through ``PYTHONPATH``; a plain ``python3 -m pytest`` from a checkout then runs
the tests that launch ``python -m specluster.cli``.
"""

import os
from pathlib import Path

import specluster

_src = str(Path(specluster.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_src, os.environ.get("PYTHONPATH")]))
