"""Every name the benchmark's span tracer wraps must exist in the package.

`perfbench/spans.py` replaces functions by (module, attribute) name; a
rename in `src/` that misses it would only show when the benchmark runs.
The file is run from source, so nothing is written next to it.
"""

import importlib
import pathlib
import runpy

import pytest

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
TRACE_POINTS = runpy.run_path(str(SPANS))["TRACE_POINTS"]


@pytest.mark.parametrize("module, attribute",
                         [point[:2] for point in TRACE_POINTS],
                         ids=[f"{m}.{a}" for m, a, *_ in TRACE_POINTS])
def test_trace_point_resolves(module, attribute):
    target = importlib.import_module(module)
    for part in attribute.split("."):
        target = getattr(target, part)
    assert callable(target)
