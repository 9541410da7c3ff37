"""Smoke test of the benchmark harness in perfbench/.

Each workload builds its set-up, passes its own set-up check, runs its
warm-up input once under the tracer and checks the output.  The harness
reads the package from outside, by name (the active backend, the traced
methods, the keyword arguments of the routes), so a change that drops
one of those names fails here and not only in a benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ["trace-space-m3", "roundtrip-m4", "q-lane-m3", "lti-m3"]
# run.py pins these thread pools when it is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for var in THREAD_VARS:
        monkeypatch.setenv(var, "1")
    return {name: importlib.import_module(name) for name in ("run", "tracing", "workloads")}


def test_the_environment_record_names_the_backend(harness):
    env = harness["run"].environment()
    assert env["active_backend"] == "numpy"


@pytest.mark.parametrize("name", WORKLOADS)
def test_a_workload_runs_traced_and_passes_its_checks(harness, name):
    wl = harness["workloads"].WORKLOADS[name](1)
    state = wl.setup()
    assert wl.check_setup(state) == []
    inp = wl.warmup_input()
    tracer = harness["tracing"].Tracer()
    tracer.install()
    try:
        out = wl.run(state, inp)
    finally:
        tracer.uninstall()
    assert wl.check(state, inp, out) is None
    assert tracer.spans and tracer.metrics()
