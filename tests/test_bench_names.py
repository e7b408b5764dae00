"""The names bench/ looks up in rgbxalign still exist.

bench/tracer.py wraps functions by name and its counter hooks read
arguments by parameter name; bench/job.py's PER_LAYER names the functions
whose spans become per-layer metrics. A renamed function or parameter
would not fail there: the metric would silently read 0. This pins them.
"""

import ast
import importlib
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPAN_STATS = ("busy_s", "self_s", "calls")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _per_layer_names() -> list[str]:
    """The literal keys of job.py's PER_LAYER dict, read without importing job.py."""
    tree = ast.parse((BENCH / "job.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "PER_LAYER" for t in node.targets
        ):
            return [k.value for k in node.value.keys if isinstance(k, ast.Constant)]
    raise AssertionError("bench/job.py defines no PER_LAYER dict")


TRACER = _load_tracer()


def _resolve(name: str):
    """The function or method a dotted span name refers to, as the tracer wraps it."""
    layer, *rest = name.split(".")
    assert layer in TRACER.LAYERS, f"{name}: {layer} is not a traced layer"
    module = importlib.import_module(f"rgbxalign.{layer}")
    if len(rest) == 1:
        fn = getattr(module, rest[0], None)
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, (
            f"{name}: no public function rgbxalign.{layer}.{rest[0]}"
        )
        return fn
    assert tuple([layer, *rest]) in TRACER.METHODS, f"{name}: not a traced method"
    cls = getattr(module, rest[0])
    return cls.__dict__[rest[1]]


@pytest.mark.parametrize("name", sorted(TRACER._HOOKS))
def test_hooked_function_takes_the_bound_parameters(name):
    fn = _resolve(name)
    source = inspect.getsource(TRACER._HOOKS[name])
    bound = set(re.findall(r'arguments(?:\["(\w+)"\]|\.get\("(\w+)"\))', source))
    bound = {a or b for a, b in bound}
    if "arguments" in source:
        assert bound, f"{name}: hook reads arguments this test cannot parse"
    missing = bound - set(inspect.signature(fn).parameters)
    assert not missing, f"{name} no longer takes {sorted(missing)}"


def test_per_layer_functions_exist():
    names = _per_layer_names()
    assert names
    for metric in names:
        head, _, stat = metric.rpartition(".")
        if stat in SPAN_STATS and head not in TRACER.LAYERS:
            _resolve(head)


def test_bench_setup_builds_every_workload(monkeypatch):
    """bench/run.py builds each workload's bundle with synthbench's
    SceneConfig, gen_sequence and save_bundle, and bench/job.py runs it with
    a PipelineConfig of the workload's fields; a rename there fails every
    bench run."""
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports job.py, which imports tracer.py
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    from rgbxalign import synthbench
    from rgbxalign.pipeline import PipelineConfig

    for name in ("SceneConfig", "gen_sequence", "save_bundle"):
        assert callable(getattr(synthbench, name, None)), f"synthbench has no {name}"
    assert run.WORKLOADS
    for wl in run.WORKLOADS.values():
        synthbench.SceneConfig(seed=0, **wl["scene"])
        PipelineConfig(**wl["pipeline"])


def test_traced_run_fills_every_hook(tmp_path):
    """A traced run calls every hooked function, and the hooks read what they
    read off live arguments and results: a hook that reads a deleted
    attribute, or unpacks a result of another shape, fails only a traced
    bench run otherwise."""
    from rgbxalign import pipeline
    from rgbxalign.synthbench import SceneConfig, gen_sequence, save_bundle

    bundle = tmp_path / "bundle"
    save_bundle(gen_sequence(SceneConfig(seed=1, size=64, frames=3, modality="nir-like")), bundle)
    cfg = pipeline.PipelineConfig(input_dir=str(bundle), output_dir=str(tmp_path / "run"),
                                  backend="oracle", oracle_sigma=0.5, oracle_outliers=0.3,
                                  oracle_rho=0.8)
    tracer = TRACER.Tracer()
    tracer.install()
    try:
        manifest = pipeline.run_pipeline(cfg)
    finally:
        tracer.uninstall()
    assert [f.status for f in manifest.frames] == ["ok"] * 3
    spans = {s.name for s in tracer.spans}
    assert not set(TRACER._HOOKS) - spans, sorted(set(TRACER._HOOKS) - spans)
    assert tracer.counters["densify.propagate.iterations"] > 0
    assert tracer.counters["densify.propagate.converged"] == 0
