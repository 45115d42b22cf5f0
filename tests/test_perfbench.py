"""The contract between perfbench's tracer and the package it probes.

perfbench replaces package functions by name (``T.conv2d``, ``K.im2col``,
``train._forward_loss``, ...), so a rename or a deleted call path in the
package would silently empty its trace.  This test runs the tracer on one
training step and checks that it still sees the work.
"""

import importlib
import os
import sys

import numpy as np

from conftest import config_path
from sparseagg import train
from sparseagg.architecture import analyze, load_spec
from sparseagg.model import compile_network

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_tracer_records_every_op_of_a_training_step_under_its_row(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    instrument = importlib.import_module("instrument")
    spec = load_spec(config_path("sparse_bc_tiny_cifar.json"))
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
    tracer = instrument.Tracer(instrument.StepClock())
    with tracer.installed(), instrument.planner_timed({}) as totals:
        net = compile_network(spec, seed=0)
        _, loss = train._forward_loss(net, x, np.array([1, 7]), True)
        loss.backward()
    assert totals["architecture.plan_s"] > 0
    assert {"conv2d", "batch_norm"} <= {rec.op for rec in tracer.records}
    # every record carries a CostReport row, and every row has a record
    assert {rec.row for rec in tracer.records} == {row.layer for row in analyze(spec).rows}
    assert tracer.totals["kernels.im2col_s"] > 0
    # Bench.per_layer reads this total unconditionally: a step whose conv
    # backward never called K.col2im would make every traced run raise.
    assert tracer.totals["kernels.col2im_s"] > 0
    # Trace 1's own output checks, held here too: a change that hid T.conv2d
    # from the tracer, or ran batch norm's backward where it is not timed,
    # would fail this test and not only a traced benchmark run.
    conv_flops = sum(row.flops for row in analyze(spec).rows if row.layer != "classifier")
    assert sum(rec.flops for rec in tracer.records) == conv_flops * 2 == 67_436_544
    bn = [rec for rec in tracer.records if rec.op == "batch_norm"]
    assert len(bn) == 27 and all(rec.bwd_s > 0 for rec in bn)
