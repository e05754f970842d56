"""Run the suite from a fresh checkout: the package is imported from src/.

src/ goes on sys.path for this process and on PYTHONPATH for the fresh
interpreters that the subprocess tests start.
"""
import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *_paths])
