"""``train``: the ``repro train-cnn`` path.

``fit_regressor`` on a seeded :class:`~repro.core.flux_cnn.BandwiseCNN`
with ``TrainConfig(batch_size=64)`` and ``make_pair_augmenter(60)``,
over the stamp/magnitude pairs of a seeded archive (``load_dataset``,
then ``flux_pairs``).  Training runs in rounds of a fixed number of
epochs on the same model until ``--seconds`` have gone; throughput is
pairs trained on per second.  It is the only workload that runs the
autograd and Adam layers, and it uses the same conv kernels, im2col and
workspace cache as inference, but with gradients.
"""

from __future__ import annotations

import math
import os
import time
import types

import numpy as np

import common
import inputs
from spans import SpanLog, covered_s, median, percentile

BATCH_SIZE = 64
EPOCHS_PER_ROUND = 2
#: Archive samples; 5 visits each, so 320 pairs = 5 steps per epoch.
TRAIN_SAMPLES = 64
MIN_FLUX = 2.0
#: Set-up (dataset load, model init, first finite training step) is
#: repeated this many times per run and its median reported.
SETUP_REPEATS = 5


def run(name: str, seed: int, seconds: float, trace: bool, work: str) -> common.Outcome:
    from repro.core.augment import make_pair_augmenter
    from repro.core.flux_cnn import BandwiseCNN
    from repro.core.training import TrainConfig, fit_regressor
    from repro.datasets import load_dataset

    out = common.Outcome()
    common.run_in_child(inputs.prepare, name, work, seed, TRAIN_SAMPLES)
    archive = os.path.join(work, inputs.ARCHIVE)
    augment = make_pair_augmenter(inputs.MODEL["input_size"])

    setups, loads = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        dataset, load_s = common.timed(load_dataset, archive)
        x, y, mask = dataset.flux_pairs(min_flux=MIN_FLUX)
        x, y = x[mask], y[mask]
        cnn = BandwiseCNN(input_size=inputs.MODEL["input_size"],
                          rng=np.random.default_rng(seed))
        first = fit_regressor(cnn, x[:2 * BATCH_SIZE], y[:2 * BATCH_SIZE],
                              TrainConfig(epochs=1, batch_size=BATCH_SIZE, seed=seed),
                              augment_fn=augment)
        setups.append(time.perf_counter() - start)
        loads.append(load_s)
        out.attempted += 1
        out.fail(not math.isfinite(first.train_loss[0]), "set-up step loss is not finite")

    # The augmenter is the benchmark's own argument to fit_regressor and
    # runs once per step: its call times mark the step boundaries.
    step_starts: list[float] = []

    def augment_step(batch, rng):
        step_starts.append(time.monotonic())
        return augment(batch, rng)

    log = None
    if trace:
        from repro import nn
        from repro.nn.tensor import Tensor

        log = SpanLog()
        log.wrap(cnn, "forward", "train.forward")
        log.wrap(Tensor, "backward", "train.backward")
        log.wrap(nn.Adam, "step", "train.optim")
        holder = types.SimpleNamespace(call=augment_step)
        log.wrap(holder, "call", "train.augment")
        augment_step = holder.call
    losses: list[float] = []
    start = time.monotonic()
    deadline = start + seconds
    rounds = 0
    try:
        while time.monotonic() < deadline:
            history = fit_regressor(
                cnn, x, y,
                TrainConfig(epochs=EPOCHS_PER_ROUND, batch_size=BATCH_SIZE, seed=seed + rounds),
                augment_fn=augment_step,
            )
            losses.extend(history.train_loss)
            rounds += 1
    finally:
        if log is not None:
            log.restore()
    end = time.monotonic()
    wall = end - start

    out.attempted += len(losses)
    bad = [loss for loss in losses if not math.isfinite(loss)]
    out.fail(len(bad), f"{len(bad)} epochs with a non-finite loss")
    if not bad and not losses[-1] < losses[0]:
        # The whole run trained nothing: every epoch counts as failed.
        out.fail(len(losses), f"training loss did not fall ({losses[0]:.4f} -> {losses[-1]:.4f})")
    out.notes.append(f"{rounds} rounds, {len(losses)} epochs; "
                     f"loss {losses[0]:.4f} -> {losses[-1]:.4f}")
    pairs = len(losses) * len(x)
    steps_ms = np.diff(step_starts + [end]) * 1e3
    out.e2e = {
        "samples_per_s": pairs / wall,
        "p50_ms": percentile(steps_ms, 50),
        "p90_ms": percentile(steps_ms, 90),
        "setup_s": median(setups),
        "peak_rss_mb": common.self_peak_rss_mb(),
    }
    if log is not None:
        steps = len(log.named("train.optim"))
        layers = ("train.forward", "train.backward", "train.optim", "train.augment")
        out.layers = {f"{n}.ms_per_step": log.total(n) / steps * 1e3 for n in layers}
        covered = covered_s([(s[1], s[2]) for s in log.spans], start, end)
        out.layers.update({
            "setup.dataset_load_s": median(loads),
            "trace.overhead_frac": log.overhead_s() / wall,
            "unattributed_frac": 1.0 - covered / wall,
        })
    return out

