"""``tools/fingerprint.py``: the bit-identity digest of seeded training."""

import importlib.util
import os
import subprocess
import sys

import pytest

from conftest import config_path
from sparseagg import tensor as T
from sparseagg.architecture import load_spec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "fingerprint.py")


def load_tool():
    spec = importlib.util.spec_from_file_location("fingerprint", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fingerprint_is_deterministic_and_follows_the_seed(capsys, monkeypatch):
    # stderr names the BLAS thread count and the environment's
    tool = load_tool()
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert tool.main(["sparse_bc_tiny_cifar", "--batch-size", "2"]) == 0
    out, err = capsys.readouterr()
    assert err.rstrip().endswith("OPENBLAS_NUM_THREADS=unset")
    name, batch, digest = out.split()
    assert (name, batch, len(digest)) == ("sparse_bc_tiny_cifar", "b2", 64)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # read, not applied, once numpy is loaded
    assert tool.main(["sparse_bc_tiny_cifar", "--batch-size", "2"]) == 0
    out, err = capsys.readouterr()
    assert err.rstrip().endswith("OPENBLAS_NUM_THREADS=1")
    spec = load_spec(config_path("sparse_bc_tiny_cifar.json"))
    assert tool.fingerprint(spec, 2) == digest
    assert tool.fingerprint(spec, 2, seed=1) != digest


@pytest.mark.skipif(T._blas_threads() is None, reason="numpy bundles no OpenBLAS to hold at one thread")
def test_digests_do_not_depend_on_openblas_num_threads():
    # Before sparseagg.tensor held numpy's OpenBLAS at one thread, these
    # differed: 7f89ac... at 1 thread, 60b024... at 2.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    digests = []
    for threads in ("1", "2"):
        done = subprocess.run([sys.executable, TOOL, "sparse_bc_tiny_cifar", "--batch-size", "2"],
                              env=dict(env, OPENBLAS_NUM_THREADS=threads), capture_output=True,
                              text=True, timeout=300, check=True)
        assert done.stderr.rstrip().endswith(f"BLAS threads 1, OPENBLAS_NUM_THREADS={threads}")
        digests.append(done.stdout.split()[-1])
    assert digests[0] == digests[1]
