"""The README's code runs as written."""

from __future__ import annotations

import os
import re
import subprocess
import sys

from conftest import PACKAGE_ROOT, README


def test_library_use_snippet():
    (snippet,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                            re.MULTILINE | re.DOTALL)
    done = subprocess.run(
        [sys.executable, "-c", snippet],
        env={**os.environ, "PYTHONPATH": str(PACKAGE_ROOT)},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "TraffickingEvent(report_id='demo-2021-01', year=2021, month=1, country='gabon',"
        " species='elephant', product='tusk', quantity=2, weight_kg=None, arrest_count=3,"
        " sentence_index=0)"
    ]
