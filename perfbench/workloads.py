"""The two training workloads: set-up, timing, memory and traced passes.

Both drive ``train_model`` in a closed loop in one process (augmentation
on, a per-epoch ``evaluate`` on a stratified test subset), and run the
graph-analysis task set of ``analysis.py``.  The untraced run repeats
[analysis task set, set-up, timed epochs, analysis task set] three times,
so that every timing is sampled at points spread over the run and
reported as a median; the host's speed drifts by tens of percent over
seconds.
"""

from __future__ import annotations

import os
import statistics
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from analysis import PROBE_NOMINAL_S, AnalysisRun, host_probe_s
from instrument import OP_GROUPS, StepClock, Tracer, planner_timed
from sparseagg import (
    TrainConfig,
    analyze,
    compile_network,
    load_checkpoint,
    load_cifar10,
    load_spec,
    save_checkpoint,
    train_model,
)
from sparseagg.synth import write_synthetic_cifar10

REPEATS = 3
ANALYSIS_REPEATS = 2  # per repetition
PROBES_PER_GAP = 2  # host probes before, between and after those runs
# Long enough that the step-schedule drops (at half the epochs) never occur.
TIMING_EPOCHS = 1000


@dataclass(frozen=True)
class Workload:
    config: str
    batch: int
    train_images: int  # per epoch: two whole batches
    test_images: int   # per-epoch evaluate; a multiple of 10 (stratified subset)


WORKLOADS = {
    # Headline config: 3x3 convs and BN/ReLU dominate; concat is cheap.
    "train-sparse40": Workload("sparse40_k12_cifar.json", 64, 128, 60),
    # Every layer reads every earlier one: concat copies and retained
    # activations grow quadratically.  Batch 16 keeps the tracemalloc peak
    # near 1.8 GB; batch 64 would need about 7 GB.
    "train-dense40-b16": Workload("dense40_k12_cifar.json", 16, 32, 30),
}


@dataclass
class SetUp:
    net: object
    data: object
    seconds: float
    load_s: float
    compile_s: float
    losses: list[float]


class _Deadline(Exception):
    """Raised from train_model's on_epoch hook once the timing budget is spent."""


def _finite(values) -> bool:
    return bool(values) and bool(np.all(np.isfinite(values)))


class Bench:
    """One benchmark run of one workload; ``checks`` collects every output check."""

    def __init__(self, workload: str, seed: int, seconds: float, root: str, workdir: str):
        self.work = WORKLOADS[workload]
        self.seed = seed
        self.budget = seconds / REPEATS  # training seconds per repetition
        self.configs = os.path.join(root, "configs")
        self.spec = load_spec(os.path.join(self.configs, self.work.config))
        self.workdir = workdir
        self.data_dir = os.path.join(workdir, "cifar10")
        self.checks: list[tuple[str, bool, str]] = []
        self.steps_attempted = 0
        self.supporting: dict = {}
        self.rows: list[dict] = []

    def check(self, name: str, ok, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def _config(self, epochs: int) -> TrainConfig:
        return TrainConfig(epochs=epochs, batch_size=self.work.batch, seed=self.seed)

    def _load(self):
        """Stratified subsets; the train split is then cut to whole batches."""
        n = self.work.train_images
        data = load_cifar10(self.data_dir, train_subset=-(-n // 10) * 10,
                            test_subset=self.work.test_images)
        return replace(data, train_images=data.train_images[:n], train_labels=data.train_labels[:n])

    # -- passes -------------------------------------------------------------------

    def write_inputs(self) -> None:
        write_synthetic_cifar10(self.data_dir, seed=self.seed)

    def _warm_up(self, net, data, clock: StepClock, tracer: Tracer | None = None,
                 eval_images: int = 1) -> list[float]:
        """One optimizer step through train_model; its closing evaluate sees ``eval_images``."""
        b = self.work.batch
        first = replace(data, train_images=data.train_images[:b], train_labels=data.train_labels[:b],
                        test_images=data.test_images[:eval_images],
                        test_labels=data.test_labels[:eval_images])
        self.steps_attempted += 1
        with (tracer or clock).installed():
            train_model(net, first, self._config(1))
        return clock.losses

    def set_up(self) -> SetUp:
        t0 = perf_counter()
        data = self._load()
        t1 = perf_counter()
        net = compile_network(self.spec, seed=self.seed)
        t2 = perf_counter()
        losses = self._warm_up(net, data, StepClock())
        self.check("warm-up losses finite", _finite(losses), str(losses))
        return SetUp(net, data, perf_counter() - t0, t1 - t0, t2 - t1, losses)

    def _train(self, net, data, clock: StepClock, tracer: Tracer | None = None) -> float:
        """Train whole epochs until ``self.budget`` is spent; returns the wall time."""
        start = perf_counter()

        def on_epoch(epoch, row):
            elapsed = perf_counter() - start
            # Stop when the next epoch would overrun by more than half its length.
            if elapsed * (1 + 0.5 / epoch) >= self.budget:
                raise _Deadline
            clock.mark()

        with (tracer or clock).installed():
            clock.mark()
            try:
                train_model(net, data, self._config(TIMING_EPOCHS), on_epoch=on_epoch)
            except _Deadline:
                pass
        wall = perf_counter() - start
        self.steps_attempted += len(clock.steps)
        self.check("timing-pass losses finite", _finite(clock.losses + clock.eval_losses),
                   f"{len(clock.losses)} steps")
        return wall

    def _memory(self, expected_losses: list[float], traced: bool = False):
        """Repeat the warm-up from a fresh compile under tracemalloc, with a full evaluate batch.

        Returns (train peak, eval peak, tracer).  The train peak covers the
        optimizer step (batch preparation included); the eval peak is over
        the evaluate batch, above what was live when evaluate began.
        Data and parameters exist before tracing starts and are not counted.
        """
        data = self._load()
        net = compile_network(self.spec, seed=self.seed)
        clock = StepClock()
        marks = {}

        def on_eval_start():
            current, marks["train"] = tracemalloc.get_traced_memory()
            marks["eval_base"] = current
            tracemalloc.reset_peak()

        clock.on_eval_start = on_eval_start
        tracer = Tracer(clock, memory=True) if traced else None
        tracemalloc.start()
        try:
            losses = self._warm_up(net, data, clock, tracer, eval_images=self.work.batch)
            peak_eval = tracemalloc.get_traced_memory()[1] - marks["eval_base"]
        finally:
            tracemalloc.stop()
        self.check("memory pass repeats the warm-up loss bit for bit",
                   losses == expected_losses, f"{losses} vs {expected_losses}")
        return marks["train"], peak_eval, tracer

    def _analysis(self, plan_totals: dict[str, float] | None = None) -> AnalysisRun:
        run = AnalysisRun(self.configs, self.seed)
        with planner_timed(plan_totals) if plan_totals is not None else nullcontext():
            run.run()
        for name, ok, detail in run.checks():
            self.check(name, ok, detail)
        return run

    # -- metrics --------------------------------------------------------------------

    def _analysis_slot(self, walls: list[float], scaled: list[float]) -> None:
        """Run the task set ANALYSIS_REPEATS times between groups of host probes.

        Each run's wall time is divided by the mean of the probes just before
        and just after it and multiplied by PROBE_NOMINAL_S, which cancels
        the host's speed drift.
        """
        before = [host_probe_s() for _ in range(PROBES_PER_GAP)]
        for _ in range(ANALYSIS_REPEATS):
            wall = self._analysis().wall_s
            after = [host_probe_s() for _ in range(PROBES_PER_GAP)]
            walls.append(wall)
            scaled.append(wall * PROBE_NOMINAL_S / statistics.mean(before + after))
            before = after

    def end_to_end(self) -> dict[str, float]:
        setup_s, losses, clocks, walls, analysis_wall, analysis_s = [], [], [], [], [], []
        for _ in range(REPEATS):
            # The analysis set runs before and after each repetition's training,
            # to sample the host's speed at more points in time.
            self._analysis_slot(analysis_wall, analysis_s)
            setup = self.set_up()
            clock = StepClock()
            walls.append(self._train(setup.net, setup.data, clock))
            setup_s.append(setup.seconds)
            losses.append(setup.losses + clock.losses)
            clocks.append(clock)
            self._analysis_slot(analysis_wall, analysis_s)
        warm = losses[0][:1]
        n = min(map(len, losses))
        self.check("loss sequence bit-identical across repetitions",
                   n > 1 and all(seq[:n] == losses[0][:n] for seq in losses), f"{n} losses compared")
        peak_train, peak_eval, _ = self._memory(warm)

        steps = [s for c in clocks for s in c.steps]
        eval_s = sum(sum(c.eval_s) for c in clocks)
        self.supporting.update(setup_s=setup_s, step_s=steps, analysis_wall_s=analysis_wall,
                               analysis_s=analysis_s,
                               eval_s=[c.eval_s for c in clocks])
        return {
            "train_img_per_s": sum(c.train_images for c in clocks) / (sum(walls) - eval_s),
            "step_s.p50": statistics.median(steps),
            "eval_img_per_s": sum(c.eval_images for c in clocks) / eval_s,
            "peak_train_bytes": peak_train,
            "peak_eval_bytes": peak_eval,
            "setup_s": statistics.median(setup_s),
            "analysis_s": statistics.median(analysis_s),
        }

    def per_layer(self) -> dict[str, float]:
        setup = self.set_up()
        ckpt = os.path.join(self.workdir, "checkpoint")
        t0 = perf_counter()
        save_checkpoint(setup.net, ckpt)
        save_s = perf_counter() - t0

        untraced = StepClock()
        self._train(setup.net, setup.data, untraced)

        t0 = perf_counter()
        net, _ = load_checkpoint(ckpt, expect_spec=self.spec)
        load_s = perf_counter() - t0
        clock = StepClock()
        tracer = Tracer(clock)
        self._train(net, setup.data, clock, tracer)
        n = min(len(clock.losses), len(untraced.losses))
        self.check("traced pass repeats untraced losses bit for bit",
                   n > 0 and clock.losses[:n] == untraced.losses[:n], f"{n} steps compared")

        _, _, mem = self._memory(setup.losses, traced=True)
        plan_totals: dict[str, float] = {}
        runs = [self._analysis(plan_totals) for _ in range(ANALYSIS_REPEATS)]

        steps = len(clock.steps)
        step_total = sum(clock.steps)
        metrics = {}
        for group in sorted(set(OP_GROUPS.values())):
            recs = [r for r in tracer.records if OP_GROUPS[r.op] == group]
            metrics[f"tensor.{group}.fwd_s"] = sum(r.fwd_s for r in recs) / steps
            metrics[f"tensor.{group}.bwd_s"] = sum(r.bwd_s for r in recs) / steps
        metrics["tensor.aggregate.bytes"] = sum(
            r.out_bytes for r in tracer.records if r.op == "aggregate") / steps
        metrics["tensor.backward.sweep_s"] = tracer.totals["tensor.backward.sweep_s"] / steps
        metrics["tensor.graph_nodes"] = len(tracer.records) / steps

        report = analyze(self.spec)
        conv_flops = (report.total_flops - report.rows[-1].flops) * self.work.batch
        traced_flops = sum(r.flops for r in tracer.records)
        self.check("analyzer conv FLOPs match the traced conv shapes",
                   traced_flops == conv_flops * steps, f"{traced_flops} vs {conv_flops} x {steps}")
        metrics["tensor.conv2d.gflops"] = conv_flops / metrics["tensor.conv2d.fwd_s"] / 1e9
        for name in ("kernels.im2col_s", "kernels.col2im_s", "kernels.patch_bytes"):
            metrics[name] = tracer.totals[name] / steps

        metrics.update(self._rows(report, tracer, mem, steps))
        metrics["model.forward_s"] = tracer.totals["model.forward_s"] / steps
        metrics["model.retained_bytes"] = mem.retained_bytes[0]
        metrics["model.peak_cached"] = tracer.peak_cached
        metrics["model.compile_s"] = setup.compile_s
        metrics["model.checkpoint_save_s"] = save_s
        metrics["model.checkpoint_load_s"] = load_s

        metrics["train.load_s"] = setup.load_s
        metrics["train.normalize_s"] = tracer.totals["train.normalize_s"] / steps
        metrics["train.augment_s"] = tracer.totals["train.augment_s"] / steps
        metrics["train.data_wait_share"] = (
            tracer.totals["train.normalize_s"] + tracer.totals["train.augment_s"]) / step_total
        metrics["train.sgd_step_s"] = tracer.totals["train.sgd_step_s"] / steps
        metrics["train.evaluate_s"] = statistics.mean(clock.eval_s)

        metrics["architecture.plan_s"] = plan_totals["architecture.plan_s"] / ANALYSIS_REPEATS
        for name in runs[0].times:
            metrics[name] = statistics.median(run.times[name] for run in runs)
        metrics["topology.edges"] = runs[0].edges

        metrics["trace.overhead_s"] = statistics.median(clock.steps) - statistics.median(untraced.steps)
        self.supporting.update(traced_step_s=clock.steps, untraced_step_s=untraced.steps)
        return metrics

    def _rows(self, report, tracer: Tracer, mem: Tracer, steps: int) -> dict[str, float]:
        """Fill ``self.rows`` (one entry per CostReport row); return the block sums."""
        names = [row.layer for row in report.rows]
        unassigned = [r.op for r in tracer.records + mem.records if r.row not in names]
        self.check("every traced op maps to a CostReport row", not unassigned,
                   f"unmapped: {sorted(set(unassigned))}")
        fwd = dict.fromkeys(names, 0.0)
        bwd = dict.fromkeys(names, 0.0)
        retained = dict.fromkeys(names, 0)
        for r in tracer.records:
            if r.row in fwd:
                fwd[r.row] += r.fwd_s / steps
                bwd[r.row] += r.bwd_s / steps
        for r in mem.records:
            if r.row in retained:
                retained[r.row] += r.retained_bytes
        sums: dict[str, float] = {}
        for row in report.rows:
            flops = row.flops * self.work.batch
            self.rows.append({
                "row": row.layer, "fwd_s": fwd[row.layer], "bwd_s": bwd[row.layer],
                "retained_bytes": retained[row.layer], "flops": flops,
                "gflops": flops / fwd[row.layer] / 1e9 if fwd[row.layer] else 0.0,
            })
            if row.layer.startswith("transition"):
                group = "model.transition"
            elif row.layer[0].isdigit():
                group = f"model.block{row.block}"
            else:
                continue
            sums[f"{group}.fwd_s"] = sums.get(f"{group}.fwd_s", 0.0) + fwd[row.layer]
            sums[f"{group}.bwd_s"] = sums.get(f"{group}.bwd_s", 0.0) + bwd[row.layer]
        return sums
