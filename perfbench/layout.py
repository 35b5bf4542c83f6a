"""Where the benchmark reads and writes, relative to the checkout root."""

import os

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def work_dir(workload: str) -> str:
    """Inputs, outputs and the result of one workload's run."""
    return os.path.join(ROOT, ".bench_work", workload)


def result_path(workload: str) -> str:
    return os.path.join(work_dir(workload), "result.json")
