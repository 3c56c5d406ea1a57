"""Every name the benchmark's span tracer wraps must exist in the package,
and the spans must see the trials.

`perfbench/spans.py` replaces functions by (module, attribute) name; a
rename in `src/`, or a runner that goes round the wrapped names, would
only show when the benchmark runs.  The file is run from source, so
nothing is written next to it.
"""

import importlib
import pathlib
import runpy

import pytest

from airelm.config import DatasetConfig, ExperimentConfig
from airelm.experiments import run

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
SPANS_MODULE = runpy.run_path(str(SPANS))
TRACE_POINTS, Tracer = SPANS_MODULE["TRACE_POINTS"], SPANS_MODULE["Tracer"]


@pytest.mark.parametrize("module, attribute",
                         [point[:2] for point in TRACE_POINTS],
                         ids=[f"{m}.{a}" for m, a, *_ in TRACE_POINTS])
def test_trace_point_resolves(module, attribute):
    target = importlib.import_module(module)
    for part in attribute.split("."):
        target = getattr(target, part)
    assert callable(target)


@pytest.mark.parametrize("kind, extra", [
    ("single", {"snr_db": 10.0}),
    ("sweep_snr", {"grid": (0.0, 10.0)}),       # plus its noiseless point
    ("sweep_nr", {"grid": (16, 32), "snr_db": 10.0, "baseline": True}),
    ("online", {"snr_db": 10.0, "steps": 2, "iters_per_step": 3,
                "batch_size": 8}),
])
def test_trace_points_see_every_trial(kind, extra):
    """The benchmark's elm.fit and elm.predict spans see every trial: one
    each per mimo and digital trial of a grid; online, one fit for H(0)
    and one per step, and no prediction, since a step scores all its
    models on one test block.  Every G is an elm.hidden_matrix span: the
    test blocks and mini-batches of online too."""
    cfg = ExperimentConfig(kind=kind, seeds=2, n_r=16, **extra,
                           dataset=DatasetConfig(name="synthetic",
                                                 synth_size=60))
    tracer = Tracer()
    tracer.install()
    try:
        rows = run(cfg)
    finally:
        tracer.uninstall()
    layers = [span[1] for span in tracer.spans()]
    fits, predicts, hidden = map(layers.count, ("elm.fit", "elm.predict",
                                                "elm.hidden_matrix"))
    if kind == "online":
        steps = cfg.seeds * cfg.steps
        assert (fits, predicts) == (cfg.seeds + steps, 0)
        assert hidden == fits + steps + steps * cfg.iters_per_step
    else:
        assert fits == predicts == len(rows)
        assert hidden == fits + predicts
