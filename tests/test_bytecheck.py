"""The byte check (``tools/bytecheck.py``) on the benchmark's tiny
instances, so that it cannot rot."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "bytecheck.py"
RUNS = ("evolve", "equivalence", "verify", "sample", "sample-from", "tvd",
        "rejection", "torus-dp", "torus-dp-matrices")


def bytecheck(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


#: An extra config for ``--config``: a real start of three components on
#: a ring, which ``torus-dp`` takes too.
RING = {"graph": {"type": "torus", "dims": [5]}, "coin": {"type": "grover"},
        "shift": {"type": "moving"}, "horizon": 3, "ensemble_size": 40,
        "seed": 3, "initial_state": [
            {"vertex": 0, "port": 0, "re": 0.3},
            {"vertex": 2, "port": 1, "re": -0.7},
            {"vertex": 4, "port": 0, "re": 0.6}]}


def test_a_checkout_matches_itself_and_a_changed_byte_shows(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps(RING))
    for path in paths:
        proc = bytecheck("record", str(path), "--smoke", "--seeds", "1",
                         "--config", str(ring))
        assert proc.returncode == 0, proc.stderr
    records = json.loads(paths[0].read_text())
    assert {key.split("/")[3] for key in records} == set(RUNS)
    # every run on the extra config succeeds and writes files, under its
    # file name
    extra = [key for key in records if key.startswith("config/ring.json/")]
    assert len(extra) == len(RUNS) * 2 * 2
    assert all(records[k]["exit"] == 0 and records[k]["files"]
               for k in extra)
    # every run of the torus workload succeeds, twice, and writes files
    torus = [key for key in records if key.startswith("torus-grover/")]
    assert len(torus) == len(RUNS) * 2 * 2
    assert all(records[k]["exit"] == 0 and records[k]["files"]
               for k in torus)
    assert "<work>/" in records[torus[0]]["stdout"]
    proc = bytecheck("diff", *map(str, paths))
    assert (proc.returncode, proc.stdout) == (0, "no difference\n")

    key = "torus-grover/seed1/json/sample/1"
    changed = json.loads(paths[1].read_text())
    name = sorted(changed[key]["files"])[0]
    changed[key]["files"][name] = "0" * 64
    changed[key]["exit"] = 1
    del changed["two-walker/seed1/csv/tvd/0"]
    paths[1].write_text(json.dumps(changed))
    proc = bytecheck("diff", *map(str, paths))
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == [
        f"{key}: exit 0 -> 1", f"{key}: file {name} differs",
        "two-walker/seed1/csv/tvd/0: only in parent"]
