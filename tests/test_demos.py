"""Every demo runs and prints exactly what it printed when its digest was
recorded; a changed digest is a behaviour change in the code it shows."""

import hashlib
import os
import subprocess
import sys

import pytest

from conftest import ROOT

DEMO_DIGESTS = {
    "01_queries.py": "f4ffce8cea8618bec5950ef10ad8fcc2ae30e78db63f83b0f40a2b9a1b509eda",
    "02_dedup.py": "79bbe05711f59446f2fbb121cb2bde6d48b28adacd3c93c796f2b3e568cc238d",
    "03_validation.py": "2abade2b5a442ea00325da7ab00bc6fa9fd327d950424122344d447af81dab23",
    "04_enrichment.py": "d560bfdfa1568620e0f9e3809f6d3b03c8e88ba2107cd633561b0f52b0007a83",
    "05_analytics.py": "0b815b1d587759c856166edf73f3f83ee5fd74490924cce984ea7b3420024a20",
    "06_evaluation.py": "e7b99fbcb0621bf050e3c7de2a8a852060799f1cb40c0dfc4f8e7165416182e9",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_output(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT, env=env, capture_output=True, check=True,
    )
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_DIGESTS[name]
