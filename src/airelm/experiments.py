"""Config-driven experiment harness.

Four experiment families (antenna sweep, SNR sweep, Ricean-factor sweep,
online re-training) plus a single-point run, each averaging over a seed
sweep.  Every per-trial random quantity derives from the master seed through
the documented substream registry in `rng`, so any trial can be re-run in
isolation and repeated runs are byte-identical.

Trial wall-times are measured and reported in the run manifest and the
stdout summary, but deliberately kept out of the results CSV so that a
repeated run with the same master seed produces byte-identical CSV bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from functools import partial

import numpy as np

from . import __version__
from .activation import RappParams
from .channel import (ArConfig, NoiseModel, NOISELESS, RiceanConfig,
                      sample_ricean, evolve_ar, sigma2_for_snr)
from .config import ExperimentConfig
from .data import (Dataset, load_csv, load_idx, load_secom, load_wbcd,
                   mnist_binarize, secom_prepare, split_standardize,
                   synth_two_gaussians)
from .elm import (HiddenLayer, classify, digital_elm_hidden, fit,
                  online_update, predict)
from .errors import OutputError
from .numkernel import blas_thread_control, one_blas_thread
from .rng import (RngStream, SUB_SPLIT, SUB_CHANNEL, SUB_TRAIN_NOISE,
                  SUB_TEST_NOISE, SUB_DIGITAL, SUB_MINIBATCH, SUB_AR,
                  SUB_SYNTH, SUB_FEATSEL)

SUMMARY_COLUMNS = ("model", "n_r", "snr_db", "kappa", "eta", "step",
                   "iteration", "n_trials", "mean_accuracy", "std_accuracy",
                   "min_accuracy", "max_accuracy", "mean_normalized_accuracy",
                   "mean_receive_power", "mean_wall_ms")


@dataclass(slots=True)
class TrialResult:
    """One per-seed outcome row (or one online trace point)."""

    experiment: str
    dataset: str
    seed: int
    model: str                      # "mimo" | "digital"
    n_r: int
    snr_db: float
    kappa: float
    eta: float = None               # online runs only
    step: int = None                # online: channel step index (1-based)
    iteration: int = None           # online: 0 = pre-update state
    accuracy: float = None
    normalized_accuracy: float = None
    train_residual: float = None
    receive_power: float = None
    wall_ms: float = None           # manifest/summary only, never in CSV


# Fixed CSV schema, shared by all experiment kinds (union schema; cells that
# do not apply stay empty).  Wall-times are excluded on purpose.
TRIAL_COLUMNS = tuple(f.name for f in fields(TrialResult)
                      if f.name != "wall_ms")


# ---------------------------------------------------------------------------
# dataset plumbing

def _load_base_table(cfg: ExperimentConfig):
    """Load the seed-independent part of the dataset (None for synthetic)."""
    ds = cfg.dataset
    if ds.name == "synthetic":
        return None
    if ds.name == "wbcd":
        return load_wbcd(ds.path)
    if ds.name == "csv":
        return load_csv(ds.path, ds.label_column, delimiter=ds.delimiter,
                        missing_token=ds.missing_token,
                        has_header=ds.has_header, label_map=ds.label_map)
    if ds.name == "mnist":
        return load_idx(ds.images, ds.labels)
    return load_secom(ds.path, ds.labels)     # `resolved` admits no other name


def _trial_dataset(cfg: ExperimentConfig, base_table, trial: RngStream) -> Dataset:
    """Per-seed dataset: selection/generation + subsample + split/standardize."""
    ds = cfg.dataset
    if ds.name == "synthetic":
        table = synth_two_gaussians(trial.split(SUB_SYNTH), ds.synth_size,
                                    ds.synth_d, ds.synth_separation)
    elif ds.name == "mnist":
        table = mnist_binarize(base_table, ds.mnist_pixels,
                               trial.split(SUB_FEATSEL))
    elif ds.name == "secom":
        table = secom_prepare(base_table, ds.secom_features,
                              trial.split(SUB_FEATSEL))
    else:
        table = base_table
    if ds.subsample is not None and ds.subsample < table.n_rows:
        keep = np.sort(trial.split(SUB_FEATSEL, 1).choice(
            table.n_rows, ds.subsample, replace=False))
        table = replace(table, features=table.features[keep],
                        labels=table.labels[keep])
    return split_standardize(table, ds.train_ratio, trial.split(SUB_SPLIT))


# ---------------------------------------------------------------------------
# single-trial cores

def _draw_channel(cfg, dataset, trial, n_r: int, kappa: float):
    """The trial's channel realization at (n_r, kappa)."""
    return sample_ricean(
        RiceanConfig(n_r=n_r, n_t=dataset.d + 1, kappa=kappa,
                     pathloss=cfg.pathloss, los_angle_rx=cfg.los_angle_rx,
                     los_angle_tx=cfg.los_angle_tx),
        trial.split(SUB_CHANNEL))


def _signal_power(dataset, h_real) -> float:
    """P_sig of the training set under h_real, the calibration every SNR
    point of the channel shares: `sigma2_for_snr` at 0 dB returns it."""
    x_tilde = np.hstack([dataset.x_train,
                         np.ones((dataset.x_train.shape[0], 1))])
    return sigma2_for_snr(h_real, x_tilde, 0.0)


def _channel_layer(cfg, h_real, p_sig: float, snr_db: float) -> HiddenLayer:
    """The hidden layer a channel realizes at snr_db.

    The noise power p_sig / 10^(snr_db/10) puts the training set, whose
    signal power under h_real is p_sig, at snr_db at the receiver;
    snr_db = +inf is noiseless and leaves p_sig unused.
    """
    noise = NOISELESS
    if snr_db != math.inf:
        noise = NoiseModel(p_sig / 10.0 ** (snr_db / 10.0))
    return HiddenLayer(h_real=h_real, noise=noise,
                       rapp=RappParams(y_sat=cfg.y_sat, alpha=cfg.alpha))


class _NoiseReplay:
    """A noise substream's first draw, replayed at any noise level.

    numpy's normal(mean, std, size) is mean + std * z element by element,
    z its standard-normal draw, so `normal` returns bit for bit what the
    stream itself returns as its first draw of that size.  z is drawn on
    the first call and kept for later ones of the same size; set `last`
    before the final call, which scales z in place and lets it go.
    """

    def __init__(self, stream: RngStream):
        self._stream, self._z, self.last = stream, None, False

    def normal(self, mean, std, size):
        if self._z is None:
            self._z, self._stream = self._stream.normal(0.0, 1.0, size), None
        if self.last:
            out, self._z = self._z, None
            out *= std
        else:
            out = std * self._z
        out += mean
        return out


def _accuracy(model, dataset: Dataset, rng) -> float:
    t_hat = predict(model, dataset.x_test, rng)
    return float(np.mean(classify(t_hat) == dataset.t_test))


def _digital_trial(cfg, dataset, trial, n_hidden: int):
    """Digital-ELM baseline: random uniform weights, sigmoid, no channel."""
    layer = digital_elm_hidden(trial.split(SUB_DIGITAL), n_hidden, dataset.d,
                               low=cfg.digital_low, high=cfg.digital_high)
    model = fit(layer, dataset.x_train, dataset.t_train)
    acc = _accuracy(model, dataset, None)
    return acc, model.train_residual, model.receive_power


# ---------------------------------------------------------------------------
# experiment runners

def _per_seed(cfg: ExperimentConfig, body):
    """body(seed, trial, dataset) for every seed, on cfg.threads workers.

    The base table is loaded once; each seed's trial stream is
    RngStream(master_seed).split(seed) and its dataset is built from that
    stream.  cfg.threads is the only parallelism: BLAS is held at one thread
    per worker for the whole map, so workers do not oversubscribe the cores
    and LAPACK results, hence the CSV bytes, do not depend on the core
    count.  Results come back in seed order whatever the thread count.
    """
    base_table = _load_base_table(cfg)
    if base_table is not None:
        cfg.check_batch_size(base_table.n_rows)

    def one(seed):
        trial = RngStream(cfg.master_seed).split(seed)
        return body(seed, trial, _trial_dataset(cfg, base_table, trial))

    with one_blas_thread():
        if cfg.threads > 1:
            with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
                return list(pool.map(one, range(cfg.seeds)))
        # not a one-worker pool: its thread's own malloc arena raised peak
        # RSS 57.9 -> 61.2 MB (sweep_nr_wbcd), 39.6 -> 40.7 MB
        # (snr_sweep_narrow) on a 2-vCPU VM
        return [one(seed) for seed in range(cfg.seeds)]


def _run_grid(cfg: ExperimentConfig, experiment: str, points):
    """Shared sweep driver.

    points is a list of (n_r, kappa, snr_db, with_baseline) tuples; for every
    point x seed, one mimo trial (plus optionally one digital trial) runs.
    Every point of a seed splits the same trial stream, so a seed's dataset,
    its channel at each (n_r, kappa) and its standard-normal noise blocks at
    each n_r are the same at every point; only the noise level changes.  One
    task per seed therefore builds the dataset once, draws a channel when
    (n_r, kappa) changes from the previous point, measures that channel's
    signal power once for all its finite-SNR points, and keeps each noise
    block only while a later finite-SNR point needs it.  Results are
    ordered by (point, seed, model) regardless of thread count.
    """
    finite = [snr_db != math.inf for _, _, snr_db, _ in points]
    # whether a later finite-SNR point needs point i's noise blocks again
    reused = [any(f and q[0] == p[0]
                  for q, f in zip(points[i + 1:], finite[i + 1:]))
              for i, p in enumerate(points)]

    def one(seed, trial, dataset):
        row = partial(TrialResult, experiment=experiment,
                      dataset=cfg.dataset.name, seed=seed)
        chan_key = h = None
        held = {}           # n_r -> (train, test) noise replays
        by_point = []
        for i, (n_r, kappa, snr_db, with_baseline) in enumerate(points):
            t0 = time.perf_counter()
            if (n_r, kappa) != chan_key:
                chan_key, p_sig = (n_r, kappa), None
                h = _draw_channel(cfg, dataset, trial, n_r, kappa)
            if finite[i] and p_sig is None:
                p_sig = _signal_power(dataset, h.real)
            layer = _channel_layer(cfg, h.real, p_sig, snr_db)
            train_noise = test_noise = None
            if finite[i]:
                train_noise, test_noise = held.pop(n_r, None) or (
                    _NoiseReplay(trial.split(SUB_TRAIN_NOISE)),
                    _NoiseReplay(trial.split(SUB_TEST_NOISE)))
                if reused[i]:
                    held[n_r] = (train_noise, test_noise)
                train_noise.last = test_noise.last = not reused[i]
            model = fit(layer, dataset.x_train, dataset.t_train, train_noise)
            acc = _accuracy(model, dataset, test_noise)
            rows = [row(model="mimo", n_r=n_r, snr_db=snr_db, kappa=kappa,
                        accuracy=acc, train_residual=model.train_residual,
                        receive_power=model.receive_power,
                        wall_ms=(time.perf_counter() - t0) * 1e3)]
            if with_baseline:
                t0 = time.perf_counter()
                acc, resid, power = _digital_trial(cfg, dataset, trial, n_r)
                rows.append(row(model="digital", n_r=n_r, snr_db=math.inf,
                                kappa=kappa, accuracy=acc,
                                train_residual=resid, receive_power=power,
                                wall_ms=(time.perf_counter() - t0) * 1e3))
            by_point.append(rows)
        return by_point

    per_seed = _per_seed(cfg, one)
    return [r for point in zip(*per_seed) for rows in point for r in rows]


def run_sweep_nr(cfg: ExperimentConfig):
    """Accuracy versus antenna count N_r (Fig.-2-style experiment)."""
    cfg = cfg.resolved()
    points = [(int(g), cfg.kappa, cfg.snr_db, cfg.baseline) for g in cfg.grid]
    return _run_grid(cfg, "sweep_nr", points)


def run_sweep_snr(cfg: ExperimentConfig):
    """Accuracy versus receive SNR, plus a noise-free reference column."""
    cfg = cfg.resolved()
    points = [(cfg.n_r, cfg.kappa, float(g), False) for g in cfg.grid]
    points.append((cfg.n_r, cfg.kappa, float("inf"), False))  # reference
    return _run_grid(cfg, "sweep_snr", points)


def run_sweep_kappa(cfg: ExperimentConfig):
    """Accuracy versus Ricean factor kappa (LoS dominance)."""
    cfg = cfg.resolved()
    points = [(cfg.n_r, float(g), cfg.snr_db, False) for g in cfg.grid]
    return _run_grid(cfg, "sweep_kappa", points)


def run_single(cfg: ExperimentConfig):
    """One grid point (n_r, kappa, snr) over the seed sweep."""
    cfg = cfg.resolved()
    points = [(cfg.n_r, cfg.kappa, cfg.snr_db, cfg.baseline)]
    return _run_grid(cfg, "single", points)


def run_online(cfg: ExperimentConfig):
    """Online re-training under an AR(1) aging channel.

    Per seed: fit the closed form on H(0); then for each channel step,
    evolve H, record the pre-update normalized accuracy (iteration 0) and
    the trace of the mini-batch rule (iterations 1..n), where the
    normalizer is the full-data LS solution recomputed under the stepped
    channel.  Each step's measured wall time goes on its iteration-0 row;
    the other rows carry none, and the H(0) fit belongs to no step.
    """
    cfg = cfg.resolved()
    ar = ArConfig(eta=cfg.eta)

    def one(seed, trial, dataset):
        row = partial(TrialResult, experiment="online",
                      dataset=cfg.dataset.name, seed=seed, model="mimo",
                      n_r=cfg.n_r, snr_db=cfg.snr_db, kappa=cfg.kappa,
                      eta=cfg.eta)
        h = _draw_channel(cfg, dataset, trial, cfg.n_r, cfg.kappa)
        p_sig = (_signal_power(dataset, h.real)
                 if cfg.snr_db != math.inf else None)
        layer = _channel_layer(cfg, h.real, p_sig, cfg.snr_db)
        train_noise = trial.split(SUB_TRAIN_NOISE)
        test_noise = trial.split(SUB_TEST_NOISE)
        ar_rng = trial.split(SUB_AR)
        batch_rng = trial.split(SUB_MINIBATCH)

        model = fit(layer, dataset.x_train, dataset.t_train, train_noise)
        rows = []
        for step in range(1, cfg.steps + 1):
            t0 = time.perf_counter()
            h = evolve_ar(h, ar, ar_rng)
            layer_k = replace(layer, h_real=h.real)
            # normalizer: closed-form refit on the full data under H(k)
            full = fit(layer_k, dataset.x_train, dataset.t_train, train_noise)
            acc_full = _accuracy(full, dataset, test_noise)
            # iteration 0 is the stale combiner under H(k)
            trace = [replace(model, hidden=layer_k)]
            model = online_update(model, h.real, dataset, cfg.gamma,
                                  cfg.batch_size, cfg.iters_per_step,
                                  batch_rng, noise_rng=train_noise,
                                  callback=lambda i, m: trace.append(m))
            for i, m in enumerate(trace):
                acc = _accuracy(m, dataset, test_noise)
                rows.append(row(step=step, iteration=i, accuracy=acc,
                                receive_power=m.receive_power,
                                normalized_accuracy=(acc / acc_full
                                                     if acc_full > 0
                                                     else math.nan)))
            rows[-len(trace)].wall_ms = (time.perf_counter() - t0) * 1e3
        return rows

    return [r for rows in _per_seed(cfg, one) for r in rows]


RUNNERS = {
    "sweep_nr": run_sweep_nr,
    "sweep_snr": run_sweep_snr,
    "sweep_kappa": run_sweep_kappa,
    "online": run_online,
    "single": run_single,
}


# ---------------------------------------------------------------------------
# aggregation and emission

def summarize(results):
    """Per-grid-point aggregate: mean/std/min/max accuracy, mean ||w||^2,
    mean wall time.  std is the population standard deviation."""
    if not results:
        raise ValueError("summarize: empty result list")
    groups = {}
    for r in results:
        key = (r.model, r.n_r, r.snr_db, r.kappa, r.eta, r.step, r.iteration)
        groups.setdefault(key, []).append(r)
    table = []
    for key in groups:
        rows = groups[key]
        accs = np.array([r.accuracy for r in rows], dtype=float)
        naccs = [r.normalized_accuracy for r in rows
                 if r.normalized_accuracy is not None]
        powers = [r.receive_power for r in rows if r.receive_power is not None]
        walls = [r.wall_ms for r in rows if r.wall_ms is not None]
        table.append({
            "model": key[0], "n_r": key[1], "snr_db": key[2], "kappa": key[3],
            "eta": key[4], "step": key[5], "iteration": key[6],
            "n_trials": len(rows),
            "mean_accuracy": float(accs.mean()),
            "std_accuracy": float(accs.std()),
            "min_accuracy": float(accs.min()),
            "max_accuracy": float(accs.max()),
            "mean_normalized_accuracy":
                float(np.mean(naccs)) if naccs else None,
            "mean_receive_power": float(np.mean(powers)) if powers else None,
            "mean_wall_ms": float(np.mean(walls)) if walls else None,
        })
    table.sort(key=lambda row: tuple(
        (v is None, v) for v in (row["model"], row["n_r"], row["snr_db"],
                                 row["kappa"], row["eta"], row["step"],
                                 row["iteration"])))
    return table


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return str(float(value))
    return str(value)


def emit_csv(table, path) -> None:
    """Write a TrialResult list as RFC-4180-style CSV."""
    import csv as _csv
    try:
        fh = open(path, "w", newline="")
    except OSError as exc:
        raise OutputError(f"cannot write CSV to {path}: {exc}") from None
    with fh:
        writer = _csv.writer(fh)
        writer.writerow(TRIAL_COLUMNS)
        for row in table:
            writer.writerow([_fmt(getattr(row, c)) for c in TRIAL_COLUMNS])


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _environment(cfg: ExperimentConfig) -> dict:
    """numpy and BLAS build, and the thread settings the timings ran under."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}           # numpy before 1.26 only prints its config
    env = {"numpy": np.__version__, "blas": blas.get("name"),
           "blas_version": blas.get("version"), "threads": cfg.threads,
           # every trial runs inside `one_blas_thread`
           "blas_threads": 1 if blas_thread_control() else None}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if var in os.environ:
            env[var] = os.environ[var]
    return env


def write_manifest(cfg: ExperimentConfig, results, csv_path,
                   elapsed_ms: float = None) -> str:
    """Sidecar JSON recording config, seed, version, dataset checksums, the
    environment and timing (timing lives here, not in the CSV, to keep CSV
    bytes stable).

    total_wall_ms sums the per-trial times, so it exceeds the wall time when
    trials overlap on several threads; elapsed_ms is the runner's own wall
    time, given by `run`, and null when the caller did not time the run.
    """
    checksums = {}
    ds = cfg.dataset
    for p in (ds.path, ds.images, ds.labels):
        if p is not None:
            checksums[p] = sha256_file(p)
    if ds.name == "synthetic":
        checksums["synthetic"] = (
            f"size={ds.synth_size},d={ds.synth_d},sep={ds.synth_separation}")
    walls = [r.wall_ms for r in results if r.wall_ms is not None]
    manifest = {
        # JSON has no inf; the grid tuples are written as lists
        "config": {key: "inf" if value == math.inf else value
                   for key, value in asdict(cfg).items()},
        "master_seed": cfg.master_seed,
        "library_version": __version__,
        "dataset_checksums": checksums,
        "n_result_rows": len(results),
        "total_wall_ms": float(np.sum(walls)) if walls else 0.0,
        "elapsed_ms": elapsed_ms,
        "environment": _environment(cfg),
        "mean_trial_wall_ms": float(np.mean(walls)) if walls else 0.0,
        "created_unix": int(time.time()),
    }
    path = str(csv_path) + ".manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def run(cfg: ExperimentConfig):
    """Dispatch on cfg.kind; emit CSV + manifest when an output path is set."""
    cfg = cfg.resolved()
    t0 = time.perf_counter()
    results = RUNNERS[cfg.kind](cfg)
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    if cfg.out is not None:
        emit_csv(results, cfg.out)
        write_manifest(cfg, results, cfg.out, elapsed_ms)
    return results
