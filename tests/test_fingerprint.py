"""``tools/fingerprint.py``: the bit-identity digest of seeded training."""

import importlib.util
import os

from conftest import config_path
from sparseagg.architecture import load_spec

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools",
                    "fingerprint.py")


def load_tool():
    spec = importlib.util.spec_from_file_location("fingerprint", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fingerprint_is_deterministic_and_follows_the_seed(capsys, monkeypatch):
    # stderr names the BLAS thread count, which the digests depend on
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
