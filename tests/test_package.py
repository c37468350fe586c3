"""The package namespace and the command's BLAS thread default, each in a
fresh interpreter: what a process has imported, and how many threads it
runs, depends on everything it did before."""

import importlib
import os
import subprocess
import sys

import pytest

import mhdes

LAYERS = ("baseflow", "cli", "critical", "errors", "orr_evp", "spectral",
          "verify")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
THREADS = ("print(next(line.split()[1] for line in open('/proc/self/status')"
           " if line.startswith('Threads:')))")


def run_fresh(code, **env):
    """Run code in a new interpreter that imports this mhdes, with no
    thread variable set but those given."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mhdes.__file__)))
    child_env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    child_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    child_env.update(env)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return proc.stdout.split()


def test_import_loads_no_numpy():
    assert run_fresh("import sys, mhdes; print('numpy' in sys.modules)") \
        == ["False"]


def test_neutral_loads_no_verify():
    code = ("import os, sys\n"
            "from mhdes import cli\n"
            "assert cli.main(['neutral', '--ha', '1', '--n', '20', '--out', "
            "os.devnull]) == 0\n"
            "print('mhdes.verify' in sys.modules)")
    assert run_fresh(code) == ["False"]


def test_names_and_layers_resolve_on_first_use():
    # a fresh process, so that no layer was imported before
    code = ("import importlib, mhdes\n"
            f"for layer in {LAYERS!r}:\n"
            "    assert getattr(mhdes, layer) is "
            "importlib.import_module('mhdes.' + layer), layer\n"
            "print('ok')")
    assert run_fresh(code) == ["ok"]


def test_every_exported_name_is_its_layers_object():
    star = {}
    exec("from mhdes import *", star)
    assert set(star) - {"__builtins__"} == set(mhdes.__all__)
    for name in mhdes.__all__:
        value = getattr(mhdes, name)
        home = "mhdes.baseflow" if name == "HA_FLOOR" else value.__module__
        assert value is getattr(importlib.import_module(home), name), name
        assert star[name] is value, name
    assert mhdes.__version__ == "0.1.0"


def test_dir_lists_the_exports_and_layers():
    assert set(mhdes.__all__) | set(LAYERS) <= set(dir(mhdes))


def test_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        mhdes.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from mhdes import no_such_name", {})


def _numpy_threads(**env):
    return int(run_fresh("import numpy\n" + THREADS, **env)[0])


needs_blas_worker = pytest.mark.skipif(
    not os.path.exists("/proc/self/status") or (os.cpu_count() or 1) < 2,
    reason="needs Linux's /proc/self/status and two cores")


@needs_blas_worker
def test_command_runs_blas_on_one_thread():
    assert run_fresh("from mhdes import cli\n" + THREADS) == ["1"]


@needs_blas_worker
def test_explicit_thread_setting_wins():
    if _numpy_threads(OPENBLAS_NUM_THREADS="2") < 2:
        pytest.skip("NumPy's BLAS starts no worker thread here")
    assert run_fresh("from mhdes import cli\n" + THREADS,
                     OPENBLAS_NUM_THREADS="2") == ["2"]


@needs_blas_worker
def test_process_that_loaded_numpy_first_is_untouched():
    code = ("import os\n"
            "import numpy\n"
            "from mhdes import cli\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n" + THREADS)
    assert run_fresh(code) == ["None", str(_numpy_threads())]
