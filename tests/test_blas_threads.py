"""The package's OpenBLAS idle-spin setting, each check in a fresh interpreter.

numpy and scipy each bundle an OpenBLAS, and each copy reads
``OPENBLAS_THREAD_TIMEOUT`` once, as it loads. Importing ``wscluster``
sets it unless the user did, so the checks must run in a process that has
not loaded numpy yet.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wscluster

SRC = Path(__file__).resolve().parents[1] / "src"

# process CPU that idle BLAS threads may burn during a 0.3 s sleep; OpenBLAS's
# own default of 2^28 cycles spent about 0.13 s of it on a 2-core host
IDLE_CPU_S = 0.03

# one BLAS call on 600x600 operands, then 0.3 s asleep; prints the CPU of that sleep
IDLE_AFTER = """
import time
{imports}
a = np.random.default_rng(0).random((600, 600))
{call}
t0 = time.process_time()
time.sleep(0.3)
print(time.process_time() - t0)
"""


def run_fresh(code, **env):
    """stdout of ``code`` in a new interpreter, without the caller's OPENBLAS_THREAD_TIMEOUT."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(base, PYTHONPATH=str(SRC), **env),
                         capture_output=True, text=True, timeout=60, check=True)
    return out.stdout.split()


needs_two_cpus = pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2,
    reason="idle threads only spin beside a busy one on 2 or more CPUs")


@needs_two_cpus
def test_idle_threads_sleep_after_a_call():
    code = IDLE_AFTER.format(imports="import wscluster\nimport numpy as np", call="a @ a")
    idle = float(run_fresh(code)[0])
    assert idle < IDLE_CPU_S


@needs_two_cpus
def test_scipys_copy_reads_the_setting_when_numpy_loaded_first():
    # numpy's own copy already read the variable, so give its load-time spin time to end
    imports = ("import numpy as np\nimport wscluster\ntime.sleep(0.3)\n"
               "from scipy.linalg.blas import dgemm")
    idle = float(run_fresh(IDLE_AFTER.format(imports=imports, call="dgemm(1.0, a, a)"))[0])
    assert idle < IDLE_CPU_S


@pytest.mark.parametrize("env, expected", [
    ({}, str(wscluster.BLAS_THREAD_TIMEOUT)),
    ({"OPENBLAS_THREAD_TIMEOUT": "28"}, "28"),
], ids=["default", "user-set"])
def test_the_setting_in_effect_is_recorded(env, expected):
    code = ("import os, wscluster; "
            "print(os.environ['OPENBLAS_THREAD_TIMEOUT'], wscluster._blas_thread_timeout)")
    assert run_fresh(code, **env) == [expected, expected]


def test_numpy_loaded_first_records_none_and_leaves_scipy_unloaded():
    code = ("import sys, os, numpy, wscluster; "
            "print(os.environ['OPENBLAS_THREAD_TIMEOUT'], wscluster._blas_thread_timeout, "
            "'scipy' in sys.modules)")
    assert run_fresh(code) == [str(wscluster.BLAS_THREAD_TIMEOUT), "None", "False"]
