"""Bit-identity fingerprint of seeded training, one SHA-256 digest per config.

    PYTHONPATH=src python tools/fingerprint.py [--batch-size 64] [config ...]

For each config (default: the four north-star configs), compiles the
network at seed 0 and runs two SGD steps on one seeded random batch.  The
digest covers each step's loss, every parameter gradient of each step,
every batch-norm site's running statistics after the steps, and the eval
logits of the batch after the steps.  Two source trees that print the same
digests computed the same bits.

To check that a change keeps the bits of its parent commit, check the
parent out beside the working tree and point ``PYTHONPATH`` at each
package in turn, with this same script:

    git worktree add ../parent HEAD~1
    PYTHONPATH=../parent/src python tools/fingerprint.py > parent.txt
    PYTHONPATH=src python tools/fingerprint.py > change.txt
    diff parent.txt change.txt && git worktree remove ../parent

The package each run imported, the thread count that numpy's OpenBLAS
reports and the ``OPENBLAS_NUM_THREADS`` the run was started with (or
``unset``) are printed on stderr.  ``sparseagg.tensor`` sets that OpenBLAS
to one thread when it is imported, so the digests do not depend on
``OPENBLAS_NUM_THREADS`` (measured on OpenBLAS's SkylakeX kernel; the
conv forward's GEMM cut relies on it, see ``tensor._WHOLE_GEMM``); a tree
from before that change gives these bits
only at ``OPENBLAS_NUM_THREADS=1``.  A numpy without a bundled OpenBLAS
reports ``None`` threads and is not pinned.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

import numpy as np

from sparseagg import tensor as T
from sparseagg.architecture import load_spec
from sparseagg.model import compile_network
from sparseagg.train import SGD

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NORTH_STAR = ("sparse_bc_tiny_cifar", "sparse40_k12_cifar", "dense40_k12_cifar",
              "sum_plain_d12_cifar")
STEPS = 2


def fingerprint(spec, batch_size: int, seed: int = 0) -> str:
    """SHA-256 of ``STEPS`` seeded training steps of ``spec`` and its eval logits after them."""
    net = compile_network(spec, seed=seed)
    sgd = SGD(net.params, lr=0.1)
    rng = np.random.default_rng(seed)
    inp = spec.input
    x = rng.standard_normal((batch_size, inp.channels, inp.height, inp.width)).astype(net.dtype)
    labels = rng.integers(0, spec.num_classes, size=batch_size)
    digest = hashlib.sha256()

    def add(name: str, arr) -> None:
        arr = np.ascontiguousarray(arr)
        digest.update(f"{name} {arr.dtype} {arr.shape}".encode())
        digest.update(arr.tobytes())

    for step in range(STEPS):
        net.zero_grad()
        loss = T.softmax_cross_entropy(net.forward(x, training=True), labels)
        add(f"loss{step}", loss.data)
        loss.backward()
        for name, p in sorted(net.params.items()):
            add(f"grad{step} {name}", p.grad)
        sgd.step()
    for name, state in sorted(net.bn_states.items()):
        add(f"mean {name}", state.running_mean)
        add(f"var {name}", state.running_var)
    with T.no_grad():
        add("logits", net.forward(x, training=False).data)
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("configs", nargs="*", default=NORTH_STAR,
                        help="config names under configs/, without .json")
    parser.add_argument("--batch-size", type=int, default=64)
    args = parser.parse_args(argv)
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    print(f"sparseagg from {os.path.dirname(T.__file__)}, BLAS threads {T._blas_threads()}, "
          f"OPENBLAS_NUM_THREADS={threads}", file=sys.stderr)
    for name in args.configs:
        spec = load_spec(os.path.join(ROOT, "configs", f"{name}.json"))
        print(f"{name} b{args.batch_size} {fingerprint(spec, args.batch_size)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
