"""The benchmark in ``wscbench/`` still runs against the package's current API.

``wscbench`` calls into ``wscluster`` by name (CLI flags, pipeline keywords,
the functions its tracer wraps and the arguments its hooks read), but its
own tests sit outside ``testpaths``. These run tiny versions of its
workloads so that a signature change that breaks the benchmark fails here.
"""

import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
if str(REPO) not in sys.path:
    sys.path.insert(0, str(REPO))

from wscbench import run  # noqa: E402
from wscbench.spans import Tracer  # noqa: E402
from wscbench.tracing import Instrumentation  # noqa: E402
from wscbench.workloads import CliWorkload, SelectKWorkload  # noqa: E402


def test_environment_reads_the_cli_thread_default(monkeypatch):
    # environment() may set WSC_THREADS; monkeypatch restores it afterwards
    monkeypatch.setenv("WSC_THREADS", "1")
    info = run.environment()
    assert info["threads_default"] == 1


def test_select_k_session(tmp_path):
    w = SelectKWorkload(example=2, sizes=(40, 40, 40), beta=50)
    w.setup(1, tmp_path, {})
    assert w.setup_error(1) is None
    job = w.run_in_process(1, tmp_path / "job", {})
    assert job.error is None


@pytest.mark.parametrize("method", ["wsc", "subwsc"])
def test_traced_cli_job(tmp_path, method):
    w = CliWorkload(example=1, sizes=(20, 20, 20), beta=30, method=method)
    w.setup(1, tmp_path, {})
    tracer = Tracer()
    with Instrumentation(tracer):
        tracer.activate("job")
        try:
            job = w.run_in_process(1, tmp_path / "job", {})
        finally:
            tracer.deactivate()
    assert job.error is None
    names = {span.name for span in tracer.spans}
    assert {"cli.main", "similarity.pairwise_distances", "kmeans.kmeans"} <= names
