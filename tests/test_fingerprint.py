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


def test_fingerprint_is_deterministic_and_follows_the_seed(capsys):
    tool = load_tool()
    assert tool.main(["sparse_bc_tiny_cifar", "--batch-size", "2"]) == 0
    name, batch, digest = capsys.readouterr().out.split()
    assert (name, batch, len(digest)) == ("sparse_bc_tiny_cifar", "b2", 64)
    spec = load_spec(config_path("sparse_bc_tiny_cifar.json"))
    assert tool.fingerprint(spec, 2) == digest
    assert tool.fingerprint(spec, 2, seed=1) != digest
