"""Timing and memory probes around sparseagg's public functions.

Nothing here edits the package.  Each probe replaces a module attribute
(``sparseagg.tensor.conv2d``, ``sparseagg._kernels.im2col``,
``sparseagg.train.SGD``, ...) for the length of a ``with`` block and puts
the original back afterwards.  ``model.py``, ``tensor.py`` and ``train.py``
look these names up at call time (``T.conv2d``, ``K.im2col``, ``SGD(...)``),
so a replacement sees every call the trainer makes.

``StepClock`` is the only probe active in the timing passes that feed the
end-to-end metrics: one clock read per optimizer step and per ``evaluate``
call, plus a copy of each loss.  ``Tracer`` adds per-op spans on top of it
and is used only in the traced run.
"""

from __future__ import annotations

import re
import tracemalloc
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from time import perf_counter
from unittest import mock

from sparseagg import _kernels as K
from sparseagg import architecture, model, train
from sparseagg import tensor as T
from sparseagg.model import ForwardStats, Network
from sparseagg.tensor import Tensor

# Op name -> the group its times are reported under.
OP_GROUPS = {
    "conv2d": "conv2d",
    "batch_norm": "batch_norm",
    "relu": "relu",
    "aggregate": "aggregate",
    "avg_pool2d": "other",
    "max_pool2d": "other",
    "global_avg_pool": "other",
    "linear": "other",
    "softmax_cross_entropy": "other",
}
# Position of the parameter that names an op's CostReport row.
WEIGHT_ARG = {"conv2d": 1, "batch_norm": 1, "linear": 1}

_LAYER_PARAM = re.compile(r"block(\d+)\.layer(\d+)\.")


def row_of_param(name: str) -> str:
    """CostReport row that owns a parameter: 'block2.layer5.conv1' -> '2.5'."""
    m = _LAYER_PARAM.match(name)
    if m:
        return f"{m.group(1)}.{m.group(2)}"
    return name.split(".", 1)[0]  # stem, transitionN, classifier


class StepClock:
    """Optimizer-step, evaluate and loss bookkeeping for ``train_model``.

    A step's wall time runs from the end of the previous step (or from
    ``mark()``, called at the start of each epoch) to the end of
    ``SGD.step``, so it includes batch preparation but not ``evaluate``.
    """

    def __init__(self):
        self.steps: list[float] = []
        self.train_images = 0
        self.eval_s: list[float] = []
        self.eval_images = 0
        self.losses: list[float] = []
        self.eval_losses: list[float] = []
        self.in_eval = False
        self.on_eval_start = None
        self._mark = 0.0

    def mark(self) -> None:
        self._mark = perf_counter()

    @contextmanager
    def installed(self):
        clock = self
        base_sgd = train.SGD
        base_evaluate = train.evaluate
        base_forward_loss = train._forward_loss

        class TimedSGD(base_sgd):
            def step(self):
                super().step()
                now = perf_counter()
                clock.steps.append(now - clock._mark)
                clock._mark = now

        def evaluate(net, images, labels, mean, std, batch_size=200):
            if clock.on_eval_start is not None:
                clock.on_eval_start()
            clock.in_eval = True
            t0 = perf_counter()
            try:
                loss, err = base_evaluate(net, images, labels, mean, std, batch_size)
            finally:
                clock.in_eval = False
            clock.eval_s.append(perf_counter() - t0)
            clock.eval_images += len(labels)
            clock.eval_losses.append(loss)
            return loss, err

        def forward_loss(net, x, y, training):
            logits, loss = base_forward_loss(net, x, y, training)
            if training:
                clock.losses.append(float(loss.data))
                clock.train_images += len(y)
            return logits, loss

        with ExitStack() as stack:
            stack.enter_context(mock.patch.object(train, "SGD", TimedSGD))
            stack.enter_context(mock.patch.object(train, "evaluate", evaluate))
            stack.enter_context(mock.patch.object(train, "_forward_loss", forward_loss))
            yield self


@dataclass
class OpRecord:
    op: str
    row: str | None
    fwd_s: float
    bwd_s: float = 0.0
    retained_bytes: int = 0
    out_bytes: int = 0
    flops: int = 0


class Tracer:
    """Per-op forward/backward spans for the training steps of one pass.

    Ops run inside ``evaluate`` are passed through unrecorded.  Each op is
    assigned the CostReport row of the parameter it reads (conv kernel,
    batch-norm gamma, linear weight).  A weightless op takes the row of
    the op that produced its input; an ``aggregate`` belongs to the layer
    that consumes it, i.e. the next op that reads a parameter.

    With ``memory=True`` (run under tracemalloc) each op also records the
    traced bytes still live when it returns, and ``retained_bytes`` holds,
    per step, what the graph keeps alive between forward and backward.
    """

    def __init__(self, clock: StepClock, memory: bool = False):
        self.clock = clock
        self.memory = memory
        self.records: list[OpRecord] = []
        self.totals: dict[str, float] = {}
        self.peak_cached = 0
        self.retained_bytes: list[int] = []
        self._bwd_total = 0.0
        self._param_rows: dict[int, str] = {}
        self._rows_net = None
        self._producers: dict[int, OpRecord] = {}
        self._pending: list[OpRecord] = []
        self._forward_entry = 0

    def add(self, name: str, value: float) -> None:
        self.totals[name] = self.totals.get(name, 0.0) + value

    def _live(self) -> int:
        return tracemalloc.get_traced_memory()[0] if self.memory else 0

    # -- wrappers -------------------------------------------------------------

    def _wrap_op(self, op: str, fn):
        tracer = self
        weight_arg = WEIGHT_ARG.get(op)

        def wrapper(*args, **kwargs):
            if tracer.clock.in_eval:
                return fn(*args, **kwargs)
            before = tracer._live()
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            rec = OpRecord(op, None, perf_counter() - t0)
            rec.retained_bytes = tracer._live() - before
            rec.out_bytes = out.data.nbytes
            if op == "conv2d":
                x, w = args[0], args[1]
                n = x.data.shape[0]
                o, c, kh, kw = w.data.shape
                oh, ow = out.data.shape[2:]
                rec.flops = 2 * n * o * c * kh * kw * oh * ow
            if weight_arg is not None:
                rec.row = tracer._param_rows.get(id(args[weight_arg]))
                for pending in tracer._pending:
                    pending.row = rec.row
                tracer._pending.clear()
            elif op != "aggregate":
                source = tracer._producers.get(id(args[0]))
                rec.row = source.row if source is not None else None
            if rec.row is None:
                tracer._pending.append(rec)
            tracer._producers[id(out)] = rec
            tracer.records.append(rec)
            if out._backward is not None:
                out._backward = tracer._timed_backward(out._backward, rec)
            return out

        return wrapper

    def _timed_backward(self, backward, rec: OpRecord):
        def timed(g):
            t0 = perf_counter()
            backward(g)
            dt = perf_counter() - t0
            rec.bwd_s += dt
            self._bwd_total += dt

        return timed

    def _wrap_timed(self, name: str, fn, bytes_name: str | None = None):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.clock.in_eval:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            tracer.add(name, perf_counter() - t0)
            if bytes_name is not None:
                tracer.add(bytes_name, out.nbytes)
            return out

        return wrapper

    def _wrap_forward(self, fn):
        tracer = self

        def forward(net, x, training=False, stats=None):
            if stats is None:
                stats = ForwardStats()
            if tracer._rows_net is not net:
                tracer._param_rows = {id(p): row_of_param(name) for name, p in net.params.items()}
                tracer._rows_net = net
            tracer._producers.clear()
            tracer._pending.clear()
            tracer._forward_entry = tracer._live()
            t0 = perf_counter()
            out = fn(net, x, training, stats)
            if not tracer.clock.in_eval:
                tracer.add("model.forward_s", perf_counter() - t0)
            tracer.peak_cached = max(tracer.peak_cached, stats.peak_cached)
            return out

        return forward

    def _wrap_backward(self, fn):
        tracer = self

        def backward(tensor, grad=None, free_graph=True):
            if tracer.memory:
                tracer.retained_bytes.append(tracer._live() - tracer._forward_entry)
            before = tracer._bwd_total
            t0 = perf_counter()
            fn(tensor, grad, free_graph)
            wall = perf_counter() - t0
            tracer.add("tensor.backward.sweep_s", wall - (tracer._bwd_total - before))

        return backward

    def _wrap_sgd_step(self, sgd_class):
        tracer = self

        class TracedSGD(sgd_class):
            def step(self):
                t0 = perf_counter()
                super().step()
                tracer.add("train.sgd_step_s", perf_counter() - t0)

        return TracedSGD

    @contextmanager
    def installed(self):
        """Install the clock's probes and the per-op ones."""
        with ExitStack() as stack:
            stack.enter_context(self.clock.installed())
            for op in OP_GROUPS:
                stack.enter_context(mock.patch.object(T, op, self._wrap_op(op, getattr(T, op))))
            stack.enter_context(mock.patch.object(
                K, "im2col", self._wrap_timed("kernels.im2col_s", K.im2col, "kernels.patch_bytes")))
            stack.enter_context(mock.patch.object(
                K, "col2im", self._wrap_timed("kernels.col2im_s", K.col2im)))
            stack.enter_context(mock.patch.object(
                train, "normalize_images",
                self._wrap_timed("train.normalize_s", train.normalize_images)))
            stack.enter_context(mock.patch.object(
                train, "augment_batch", self._wrap_timed("train.augment_s", train.augment_batch)))
            stack.enter_context(mock.patch.object(train, "SGD", self._wrap_sgd_step(train.SGD)))
            stack.enter_context(mock.patch.object(
                Network, "forward", self._wrap_forward(Network.forward)))
            stack.enter_context(mock.patch.object(
                Tensor, "backward", self._wrap_backward(Tensor.backward)))
            yield self


@contextmanager
def planner_timed(totals: dict[str, float]):
    """Add the wall time of every ``plan_network`` call to ``totals["architecture.plan_s"]``.

    ``model.compile_network`` imported the function by name, so both
    bindings are replaced.
    """
    plan = architecture.plan_network

    def timed(*args, **kwargs):
        t0 = perf_counter()
        try:
            return plan(*args, **kwargs)
        finally:
            totals["architecture.plan_s"] = totals.get("architecture.plan_s", 0.0) + perf_counter() - t0

    with mock.patch.object(architecture, "plan_network", timed), \
            mock.patch.object(model, "plan_network", timed):
        yield totals
