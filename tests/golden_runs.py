"""The golden-output run set: fixed in-process CLI runs, and the sha256 of
every file they write, committed in ``tests/golden/manifest.json``.

    python tests/golden_runs.py        # rerun the set, rewrite the manifest

``tests/test_golden.py`` reruns the set and compares its digests with the
manifest's, so a change that alters any output byte fails it.  A change
that alters bytes on purpose regenerates the manifest with this script;
the manifest's diff then names the files whose bytes changed.

The set covers every subcommand, ``bounds`` at N = 10^4 as JSON, and every
egraph mode, exact and sampled, as CSV and JSON, on one 8-point cloud (the
multi mode on 8 points of dimension 2 is a 15-qubit state).  Sampled
outputs follow numpy's Generator algorithms, which numpy does not freeze
across versions, so the manifest records the numpy version it was made
with.  The file's name keeps it out of the pytest collection.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

MANIFEST = Path(__file__).resolve().parent / "golden" / "manifest.json"

# 8 points of dimension 2 at several radii: pairs on both sides of EPS
CLOUD = [
    (1.0, 0.0), (0.7, 0.6), (-0.2, 0.9), (-0.8, 0.5),
    (-1.1, -0.3), (-0.4, -0.9), (0.3, -0.8), (0.9, -0.5),
]
EPS = "0.9"

# name -> CLI arguments; "{out}" is the run's output path, "{dir}" the
# directory that holds the cloud
RUNS = {
    "swap-test-bloch.csv": ["swap-test", "--theta1", "0.3", "--phi1", "1.1",
                            "--theta2", "2.0", "--phi2", "-0.4"],
    "swap-test-vec-sampled.json": ["swap-test", "--vec1", "-1,0.5,2",
                                   "--vec2", "0.3,-2,1", "--shots", "1000",
                                   "--seed", "3"],
    "pair-map.csv": ["pair-map", "--n", "8", "--w", "2",
                     "--dump-circuit", "{out}.circuit.json"],
    "eq1-audit.csv": ["eq1-audit", "--n", "8", "--trials", "2", "--seed", "11"],
    "eq1-audit.json": ["eq1-audit", "--n", "4", "--trials", "3", "--seed", "5"],
    "bounds.csv": ["bounds", "--n-list", "1..12,30,200"],
    "bounds-1e4.json": ["bounds", "--n-list", "10000"],
    "lemma1.json": ["lemma1"],
    "scaling.csv": ["scaling", "--n-list", "4,8,16,32", "--gamma", "0.05"],
    "gatecount.json": ["gatecount", "--n-list", "4,8,16", "--w", "2"],
}
for _mode in ("brute", "kdtree", "quantum-standard", "quantum-naive", "quantum-multi"):
    for _shots in ("inf", "500") if _mode.startswith("quantum") else ("inf",):
        for _fmt in ("csv", "json"):
            RUNS[f"egraph-{_mode}-{_shots}-{_fmt}"] = [
                "egraph", "--points", "{dir}/cloud.csv", "--eps", EPS,
                "--mode", _mode, "--shots", _shots, "--seed", "7",
            ]


def run_all(workdir: Path) -> dict[str, str]:
    """Run the set in ``workdir`` and return the sha256 of every output
    file, keyed by its path under ``workdir/out``, in sorted order."""
    from swaplab.cli import main

    workdir.joinpath("cloud.csv").write_text(
        "".join(f"{x!r},{y!r}\n" for x, y in CLOUD)
    )
    out = workdir / "out"
    out.mkdir()
    for name, args in RUNS.items():
        path = out / name
        args = [a.format(out=path, dir=workdir) for a in args]
        fmt = ["--format", "json" if name.endswith("json") else "csv"]
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(args + fmt + ["--out", str(path)])
        if code != 0:
            raise RuntimeError(f"golden run {name} exited {code}: {args}")
    files = sorted(p for p in out.rglob("*") if p.is_file())
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in files
    }


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="swaplab-golden-") as tmp:
        digests = run_all(Path(tmp))
    MANIFEST.parent.mkdir(exist_ok=True)
    manifest = {"numpy": np.__version__, "files": digests}
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {len(digests)} digests to {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main())
