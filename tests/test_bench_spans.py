"""The benchmark's spans still wrap the library's layer boundaries.

``bench/spans.py`` times a layer by swapping a wrapper into the module
attribute its callers resolve at call time.  A refactor that renames or
stops calling through one of those attributes leaves its per-layer figures
at zero without failing anything, so this test installs every patch, runs
a small solve and a descriptor match, and checks that the spans appear.
"""

import importlib
import sys
from pathlib import Path

import pytest

import multimatch
from multimatch import SolverConfig, generate
from conftest import descriptor_instance

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import spans  # noqa: E402

MODULES = {mod: importlib.import_module(f"multimatch.{mod}") for mod in {mod for mod, _, _, _ in spans.PATCHES}}


@pytest.fixture
def tracer():
    originals = [(MODULES[mod], attr, getattr(MODULES[mod], attr)) for mod, attr, _, _ in spans.PATCHES]
    tracer = spans.Tracer()
    spans.install(tracer, MODULES)
    try:
        yield tracer
    finally:
        for module, attr, original in originals:
            setattr(module, attr, original)
    assert all(getattr(module, attr) is original for module, attr, original in originals)


def test_spans_cover_the_assignment_projection_and_frontend_layers(tracer):
    planted = generate(6, 4, outliers_per_image=2, coord_noise_sigma=0.01, seed=3)
    multimatch.solver.solve(planted.instance, SolverConfig(k=4, seed=0))
    instance, _ = descriptor_instance(5)
    multimatch.frontend.scores_from_descriptors(instance.features)

    names = [s.name for s in tracer.spans]
    for name in ("assignment.update_X", "assignment.discretize", "frontend.lap", "projection.project"):
        assert name in names
    # the solve builds W through the module binding the benchmark wraps, once
    assert names.count("model.assemble") == names.count("solver.solve") == 1
    # equal block heights: one assignment stack per X update and one for the start
    assert names.count("assignment.update_X") == names.count("solver.update_X")
    assert names.count("assignment.discretize") == 1
    # all 190 pairs of the twenty 13-candidate images share one shape
    (scores,) = [s for s in tracer.spans if s.name == "frontend.scores"]
    assert [s.name for s in tracer.spans if s.parent == scores.sid] == ["frontend.lap"]
