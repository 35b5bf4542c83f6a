"""Byte identity as a test: the golden run set (``tests/golden_runs.py``)
writes the bytes whose sha256 digests ``tests/golden/manifest.json`` holds."""

import json

import numpy as np
import pytest

import golden_runs


def test_outputs_match_manifest(tmp_path):
    manifest = json.loads(golden_runs.MANIFEST.read_text())
    if manifest["numpy"] != np.__version__:
        # sampled outputs follow numpy's Generator algorithms, and numpy
        # freezes neither them nor its math kernels' last bits across versions
        pytest.skip(f"manifest made with numpy {manifest['numpy']}, "
                    f"running {np.__version__}")
    want = manifest["files"]
    got = golden_runs.run_all(tmp_path)
    changed = sorted(name for name in want.keys() | got.keys()
                     if want.get(name) != got.get(name))
    assert not changed, (
        f"output bytes differ from the manifest in {changed}; a change that "
        f"means to alter them reruns `python tests/golden_runs.py`"
    )


def test_classical_runs_have_equal_edge_list_digests():
    # a brute or kd-tree run finds the reference's edges, so its estimate
    # list is the reference list's bytes
    files = json.loads(golden_runs.MANIFEST.read_text())["files"]
    runs = [name for name, args in golden_runs.RUNS.items()
            if args[0] == "egraph" and args[args.index("--mode") + 1] in ("brute", "kdtree")]
    assert len(runs) == 4
    for run in runs:
        assert files[f"{run}/estimate_edges.csv"] == files[f"{run}/reference_edges.csv"], run
