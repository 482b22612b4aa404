"""What ``import sclab`` loads, and the names it serves on first use.

Each check runs in a fresh interpreter: this pytest process has already
loaded every module the checks look for.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
Q_NAMES = ("QRing", "q_integer", "q_pochhammer", "verify_q_conjecture")


def _cold(code: str, *flags: str):
    """Run ``code`` in a new interpreter with ``src`` first on the path and
    return what it prints as JSON.  The prelude imports only sys, so the
    code imports json itself, after it has looked at sys.modules."""
    prelude = f"import sys\nsys.path.insert(0, {SRC!r})\n"
    proc = subprocess.run(
        [sys.executable, *flags, "-c", prelude + code],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(proc.stdout)


@pytest.mark.parametrize("flags", [(), ("-S",)])
def test_cold_start_loads_neither_the_pool_nor_the_q_ring(flags):
    unwanted = [
        "concurrent.futures", "multiprocessing", "sclab.qring", "typing",
        "dataclasses", "inspect", "json", "csv", "random",
    ]
    found = _cold(
        "before = set(sys.modules)\n"
        "import sclab, sclab.cli\n"
        "sclab.cli.build_parser()\n"
        f"unwanted = {unwanted!r}\n"
        "loaded = [m for m in unwanted if m in sys.modules]\n"
        "by_site = [m for m in unwanted if m in before]\n"
        "import json\n"
        "print(json.dumps({'loaded': loaded, 'by_site': by_site}))\n",
        *flags,
    )
    if flags:
        assert found == {"loaded": [], "by_site": []}
    else:
        # site's .pth files may load some of these on their own
        assert set(found["loaded"]) <= set(found["by_site"])


def test_q_names_load_on_first_use():
    found = _cold(
        "import json\n"
        "import sclab\n"
        "before = 'sclab.qring' in sys.modules\n"
        f"names = {Q_NAMES!r}\n"
        "got = [getattr(sclab, name) for name in names]\n"
        "from sclab import qring\n"
        "star = {}\n"
        "exec('from sclab import *', star)\n"
        "try:\n"
        "    sclab.no_such_name\n"
        "    missing = None\n"
        "except AttributeError as exc:\n"
        "    missing = str(exc)\n"
        "print(json.dumps({\n"
        "    'before': before,\n"
        "    'same': [a is getattr(qring, n) for a, n in zip(got, names)],\n"
        "    'unbound': [n for n in sclab.__all__ if n not in star],\n"
        "    'undirected': sorted(set(sclab.__all__) - set(dir(sclab))),\n"
        "    'missing': missing,\n"
        "}))\n"
    )
    assert found["before"] is False
    assert found["same"] == [True] * len(Q_NAMES)
    assert found["unbound"] == []
    assert found["undirected"] == []
    assert found["missing"] is not None and "no_such_name" in found["missing"]
