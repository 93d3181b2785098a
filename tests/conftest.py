"""Let a plain `python -m pytest` from a checkout run the whole suite.

`pythonpath = ["src"]` in pyproject.toml puts the package on this
process's path; the CLI tests also start fresh interpreters, which find
it through PYTHONPATH.
"""

import os

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
