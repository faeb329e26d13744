"""Seeded inputs for the benchmark workloads, and their expected outputs.

Every array here is a pure function of the workload seed, so two runs
with the same ``--seed`` feed the program byte-identical archives and
request bodies.  The program under test only ever sees these arrays (as
``.npz`` archives written with its own ``save_dataset`` or as JSON
``/classify`` bodies); nothing in it is told which workload is running.
:func:`prepare` writes a workload's model, inputs and reference results
into its work directory.  The workloads run it in a spawned process, so
neither the generation temporaries nor the reference scoring count
towards the measured process's memory.

A sample is the paper's single-epoch unit of work: 5 bands x
(reference, observation) 65x65 stamp pairs and their 5 visit dates.
Stamps are sky noise plus an extended host; the observation adds a
PSF-shaped transient at the stamp centre whose magnitude (zero point
27, the repo's flux convention) is the regression target of ``train``.
"""

from __future__ import annotations

import os

import numpy as np

STAMP = 65
N_BANDS = 5
ZERO_POINT = 27.0
SKY_SIGMA = 6.0
#: Per-band PSF sigma in pixels (g..y), a 0.7-0.9 arcsec seeing ladder.
PSF_SIGMA = (1.9, 1.8, 1.7, 1.65, 1.6)

#: Seed-stream tags, so each workload draws from its own stream.
_STREAMS = {"alerts": 0, "season": 1, "season_degraded": 2, "train": 3, "corrupt": 4}

#: Every workload scores with this model: the paper's configuration
#: (60 px CNN input, 100 classifier units, one epoch), seeded weights.
MODEL = {"input_size": 60, "units": 100, "epochs_used": 1}

#: File names inside a workload's work directory.
MODEL_DIR = "model"
ARCHIVE = "archive.npz"
ALERT_SAMPLES = "alerts.npz"
REFERENCE = "reference.npz"
MASKED_BAND = "masked_band.npy"

#: The injected corruptions of ``season_degraded``, in equal shares.
#: Each is repairable except ``DropBand``, whose band must be masked.
CORRUPTIONS = ("NaNPixels", "SaturateRegion", "DropBand", "TruncateCutout")


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(_STREAMS[stream],))
    )


def make_samples(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``n`` single-epoch samples: pairs ``(n, 5, 2, S, S)`` float32,
    dates ``(n, 5)`` and the transient magnitude of every visit ``(n, 5)``."""
    yy, xx = np.mgrid[:STAMP, :STAMP].astype(np.float32) - (STAMP - 1) / 2.0
    pairs = rng.normal(0.0, SKY_SIGMA, size=(n, N_BANDS, 2, STAMP, STAMP)).astype(np.float32)
    # Host: an elliptical exponential disc a few pixels off centre,
    # identical in reference and observation.
    host_dx = rng.uniform(-6, 6, size=(n, 1, 1))
    host_dy = rng.uniform(-6, 6, size=(n, 1, 1))
    host_scale = rng.uniform(2.0, 6.0, size=(n, 1, 1))
    host_peak = rng.uniform(20.0, 400.0, size=(n, 1, 1))
    radius = np.hypot(xx - host_dx, 0.7 * (yy - host_dy))
    host = (host_peak * np.exp(-radius / host_scale)).astype(np.float32)
    pairs += host[:, None, None]
    # Transient: a Gaussian PSF at the centre of every observation stamp.
    mags = rng.uniform(19.0, 25.0, size=(n, N_BANDS))
    flux = 10.0 ** (-0.4 * (mags - ZERO_POINT))
    r2 = xx**2 + yy**2
    for b, sigma in enumerate(PSF_SIGMA):
        psf = np.exp(-r2 / (2.0 * sigma**2)) / (2.0 * np.pi * sigma**2)
        pairs[:, b, 1] += (flux[:, b, None, None] * psf).astype(np.float32)
    mjd = 59000.0 + rng.uniform(0, 120, size=(n, 1)) + 0.01 * np.arange(N_BANDS)
    return pairs, mjd, mags


def make_dataset(n: int, rng: np.random.Generator):
    """``n`` samples in the program's ``SupernovaDataset`` container."""
    from repro.datasets import SupernovaDataset

    pairs, mjd, mags = make_samples(n, rng)
    return SupernovaDataset(
        pairs=pairs,
        visit_mjd=mjd,
        visit_band=np.tile(np.arange(N_BANDS), (n, 1)),
        true_flux=10.0 ** (-0.4 * (mags - ZERO_POINT)),
        labels=rng.integers(0, 2, size=n),
        sn_types=np.where(rng.integers(0, 2, size=n) == 1, "Ia", "IIP").astype("<U4"),
        redshifts=rng.uniform(0.1, 1.2, size=n),
        host_mag=rng.uniform(20.0, 25.0, size=n),
        sn_offset=rng.normal(0.0, 0.5, size=(n, 2)),
        peak_mjd=mjd[:, 0] + rng.uniform(-20, 20, size=n),
    )


def _corruptor(kind: str, band: int, seed: int):
    from repro.runtime import faults

    if kind == "NaNPixels":
        return faults.NaNPixels(0.005, seed=seed)
    if kind == "SaturateRegion":
        return faults.SaturateRegion(5, seed=seed)
    if kind == "DropBand":
        return faults.DropBand(band)
    return faults.TruncateCutout(0.02)


def corrupt(dataset, seed: int, block: int) -> np.ndarray:
    """Give every sample one injected corruption, in place.

    Every run of ``block`` consecutive samples (one scoring batch) holds
    each corruption equally often, in a seeded order, so every batch
    costs about the same whatever the seed.  Returns the band each
    sample must come back with masked (-1: none, the damage is
    repairable).
    """
    n = len(dataset)
    rng = _rng(seed, "corrupt")
    kinds = np.resize(np.arange(len(CORRUPTIONS)), n)
    for start in range(0, n, block):
        rng.shuffle(kinds[start : start + block])
    drop = kinds == CORRUPTIONS.index("DropBand")
    bands = np.where(drop, rng.integers(N_BANDS, size=n), -1)
    # One corruptor call per (kind, band) group: the corruptors seed
    # each sample's damage by its position in the call.
    for k, kind in enumerate(CORRUPTIONS):
        for band in np.unique(bands[kinds == k]):
            idx = np.flatnonzero((kinds == k) & (bands == band))
            dataset.pairs[idx] = _corruptor(kind, max(int(band), 0), seed)(dataset.pairs[idx])
    return bands


def save_model(directory: str, seed: int) -> None:
    """Persist the seeded default pipeline as a model directory."""
    from repro.core.pipeline import SupernovaPipeline
    from repro.serve.engine import FluxPrior, InferenceEngine

    pipeline = SupernovaPipeline(seed=seed, **MODEL)
    InferenceEngine(pipeline, prior=FluxPrior.neutral()).save(directory)


def _reference(work: str, pairs: np.ndarray, mjd: np.ndarray, batch: int) -> None:
    """Score samples in process, ``batch`` at a time, and keep what the
    checks compare.  Scores depend on the batch shape in their last
    float32 bit, so the batch matches how the workload scores them."""
    from repro.serve.engine import InferenceEngine

    engine = InferenceEngine.from_directory(os.path.join(work, MODEL_DIR))
    results = [
        r for start in range(0, len(pairs), batch)
        for r in engine.classify_arrays(pairs[start : start + batch], mjd[start : start + batch])
    ]
    np.savez(
        os.path.join(work, REFERENCE),
        probability=np.array([r.probability for r in results]),
        degraded=np.array([r.degraded for r in results]),
        bands=np.array(["".join(r.usable_bands) for r in results]),
    )


def prepare(name: str, work: str, seed: int, n: int, batch: int = 1) -> None:
    """Write the model and the ``n``-sample inputs of workload ``name``.

    ``alerts`` gets sample arrays (the client encodes the bodies) and
    the reference result of each, scored alone; ``season`` an archive
    and the reference results of every ``batch``-sample shard, scored as
    the pool's workers score them; ``season_degraded`` an archive of
    corrupted samples (see :func:`corrupt`) and the band each must have
    masked; ``train`` an archive.
    """
    from repro.datasets import save_dataset

    save_model(os.path.join(work, MODEL_DIR), seed)
    rng = _rng(seed, name)
    if name == "alerts":
        pairs, mjd, _ = make_samples(n, rng)
        np.savez(os.path.join(work, ALERT_SAMPLES), pairs=pairs, mjd=mjd)
        _reference(work, pairs, mjd, 1)
        return
    dataset = make_dataset(n, rng)
    if name == "season":
        _reference(work, dataset.pairs, dataset.visit_mjd, batch)
    elif name == "season_degraded":
        np.save(os.path.join(work, MASKED_BAND), corrupt(dataset, seed, batch))
    save_dataset(dataset, os.path.join(work, ARCHIVE))
