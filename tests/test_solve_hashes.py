"""tools/solve_hashes.py backs every claim that a change leaves solves bit
for bit as they were, so a change that breaks its output format or its
--compare mode fails here. It runs at tiny sizes: three targets, the four
population solvers and no tree fit, or dtnr alone on a 300-row set."""
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import arm7ik
from arm7ik import KinematicModel
from arm7ik.ml import generate_dataset

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(arm7ik.__file__).resolve().parents[1])
ALGOS = ("pso", "qpso", "ga", "de")


def start_tool(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "solve_hashes.py"), *args],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC})


def run_tool(*args):
    proc = start_tool(*args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_fingerprint_lines_and_compare_of_two_runs(tmp_path):
    dumps = [tmp_path / "old.jsonl", tmp_path / "new.jsonl"]
    runs = [run_tool("3", "300", "--algos", ",".join(ALGOS), "--dump",
                     str(dump)) for dump in dumps]
    assert runs[0] == runs[1]
    lines = runs[0]
    assert re.fullmatch(r"numpy \S+ simd_found=\S* libc=\S+ "
                        r"fma3=(True|False) avx2=(True|False)", lines[0])
    sampler_lines = [line for line in lines if line.startswith("sampler[")]
    assert [line.split(" ", 1)[0] for line in sampler_lines] == [
        "sampler[ball]", "sampler[paper]"]
    for line in sampler_lines:
        assert re.fullmatch(r"\S+ [0-9a-f]{64}", line), line
    solver_lines = [line for line in lines
                    if line.split(" ", 1)[0] in ALGOS]
    assert [line.split(" ", 1)[0] for line in solver_lines] == list(ALGOS)
    for line in solver_lines:
        assert re.fullmatch(r"\w+ [0-9a-f]{64} success=\d+/3 "
                            r"mean_iterations=\d+\.\d\d "
                            r"median_fitness_mm=\S+", line), line
    assert re.fullmatch(r"all [0-9a-f]{64}", lines[-1])

    compared = run_tool("--compare", *map(str, dumps))
    assert [line.split(" ", 1)[0] for line in compared] == list(ALGOS)
    for line in compared:
        fields = dict(f.split("=") for f in line.split()[1:])
        assert fields["solves"] == "3"
        for name in ("iterations", "converged", "fitness", "joints"):
            assert fields[f"{name}_changed"] == "0", line


@pytest.mark.parametrize("args, name", [
    (("0",), "n_targets"), (("-2",), "n_targets"),
    (("3", "0"), "dataset_rows")])
def test_a_size_below_one_is_a_usage_error(args, name):
    proc = start_tool(*args, "--algos", "ga")
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"{name} must be >= 1" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_dataset_lines_pin_the_generated_bytes():
    lines = run_tool("3", "300", "--algos", "dtnr")
    datasets = [line for line in lines if line.startswith("dataset[")]
    expected = []
    for rows in (300, 25_000):
        ds = generate_dataset(KinematicModel(), rows, 0.1, seed=42)
        digest = hashlib.sha256(ds.joints.tobytes() + ds.positions.tobytes())
        expected.append(f"dataset[{rows}] {digest.hexdigest()}")
    assert datasets == expected
    assert lines.index(datasets[-1]) + 1 == lines.index(
        next(line for line in lines if line.startswith("tree[")))
