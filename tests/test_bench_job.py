"""bench/job.py's contract with the library, on a run that is not traced.

A job gates a run on its manifest keys and output files, then scores it
with `evaluate_run`. A change to either that breaks the job would
otherwise show only in a benchmark run.
"""

import importlib.util
import math
from pathlib import Path

from rgbxalign.synthbench import SceneConfig, gen_sequence, save_bundle

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_untraced_job_passes_the_gate_and_scores(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # job.py imports tracer.py
    spec = importlib.util.spec_from_file_location("bench_job", BENCH / "job.py")
    job = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(job)
    bundle = tmp_path / "bundle"
    save_bundle(gen_sequence(SceneConfig(seed=1, size=64, frames=3, modality="nir-like")), bundle)
    result = job.main({"bundle": str(bundle), "out": str(tmp_path / "run"), "trace": False,
                       "pipeline": {"backend": "oracle", "oracle_sigma": 0.5,
                                    "oracle_outliers": 0.3, "oracle_rho": 0.8}})
    gate = result["gate"]
    assert gate["problems"] == {}
    assert gate["ok"] == gate["frames"] == 3
    assert math.isfinite(result["psnr_db"])
