"""Self-tests of the benchmark: determinism, metric names, missing sources.

Everything swdual computes is exact, so two runs with one seed must give
byte-identical outputs and identical counts; another seed changes the
inputs but not the operations run, nor any per-layer count except those in
SEED_DEPENDENT_COUNTS.  Each run is a short traced run
(``--seconds 1``: one untraced and one traced pass).  Takes a few minutes:

    python3 -m pytest perfbench/test_determinism.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# counts that follow the values the seed picks: the sizes of the JSON files,
# and one phi per nonzero coefficient when express_in_permutation_span checks
# its reconstruction (with the spans that these calls open)
SEED_DEPENDENT_COUNTS = ("cli.json_bytes_in", "cli.json_bytes_out",
                         "tensor.phi.calls", "trace.spans")


def run(workload, seed, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def counts(result):
    return {name: metric["value"] for name, metric in result["metrics"].items()
            if metric["unit"] == "count"}


@pytest.mark.parametrize("workload", ["duality", "roundtrip", "cli"])
def test_seed_fixes_outputs_and_counts(workload):
    first_detail, first = run(workload, 11, 1)
    again_detail, again = run(workload, 11, 1)
    other_detail, other = run(workload, 12, 1)
    for result in (first, again, other):
        assert result["correct"] and result["failed"] == 0
    assert first_detail["inputs_digest"] == again_detail["inputs_digest"]
    assert first_detail["outputs_digest"] == again_detail["outputs_digest"]
    assert counts(first) == counts(again)
    assert first_detail["defect_probe"] == again_detail["defect_probe"]

    assert other_detail["inputs_digest"] != first_detail["inputs_digest"]
    assert other_detail["ops_per_pass"] == first_detail["ops_per_pass"]
    first_counts, other_counts = counts(first), counts(other)
    for name in SEED_DEPENDENT_COUNTS:
        del first_counts[name], other_counts[name]
    assert first_counts == other_counts


def test_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        _, result = run("cli", 1, trace)
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec[key]}
        if key == "end_to_end":
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_sources():
    """In a directory holding only BENCHMARK.json and perfbench/ the command
    exits nonzero and prints no result."""
    scratch = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "duality", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        assert done.returncode != 0
        assert done.stdout == ""
    finally:
        shutil.rmtree(bare)
