import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


@pytest.fixture(autouse=True)
def private_tempdir(tmp_path, monkeypatch):
    """Sessions and traces of a test stay in its own directory."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
