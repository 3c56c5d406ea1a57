"""Config-driven experiment harness.

Four experiment families (antenna sweep, SNR sweep, Ricean-factor sweep,
online re-training) plus a single-point run, each averaging over a seed
sweep.  Every per-trial random quantity derives from the master seed through
the documented substream registry in `rng`, so any trial can be re-run in
isolation and repeated runs are byte-identical.

The run's wall time goes in the manifest, never in the results CSV, so that
a repeated run with the same master seed produces byte-identical CSV bytes.
"""

from __future__ import annotations

import csv
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
from .channel import (ArConfig, RiceanConfig, noise_for_snr, receive,
                      sample_ricean, evolve_ar, signal_power)
# not called here since the receive block gives P_sig; perfbench/spans.py
# looks sigma2_for_snr up on this module
from .channel import sigma2_for_snr  # noqa: F401
from .config import KIND_TABLE, ExperimentConfig, manifest_path
from .data import (Dataset, load_csv, load_wbcd, split_standardize,
                   synth_two_gaussians)
from .elm import (HiddenLayer, augment, classify, digital_elm_hidden, fit,
                  online_update, predict)
from .errors import OutputError
from . import numkernel
from .numkernel import (blas_core, blas_thread_control, lapack_cholesky,
                        one_blas_thread)
from .rng import (RngStream, SUB_SPLIT, SUB_CHANNEL, SUB_TRAIN_NOISE,
                  SUB_TEST_NOISE, SUB_DIGITAL, SUB_MINIBATCH, SUB_AR,
                  SUB_SYNTH)

SUMMARY_COLUMNS = ("model", "n_r", "snr_db", "kappa", "eta", "step",
                   "iteration", "n_trials", "mean_accuracy", "std_accuracy",
                   "mean_normalized_accuracy")


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


# Fixed CSV schema, shared by all experiment kinds (union schema; cells that
# do not apply stay empty).
TRIAL_COLUMNS = tuple(f.name for f in fields(TrialResult))


# ---------------------------------------------------------------------------
# dataset plumbing

def _load_base_table(cfg: ExperimentConfig):
    """Load the seed-independent part of the dataset (None for synthetic)."""
    ds = cfg.dataset
    if ds.name == "synthetic":
        return None
    if ds.name == "wbcd":
        return load_wbcd(ds.path)
    # csv, the one other name `resolved` admits
    return load_csv(ds.path, ds.label_column, delimiter=ds.delimiter,
                    has_header=ds.has_header, label_map=ds.label_map)


def _trial_dataset(cfg: ExperimentConfig, base_table, trial: RngStream) -> Dataset:
    """Per-seed dataset: the loaded table, or the seed's synthetic one, split
    and standardized."""
    ds = cfg.dataset
    table = base_table
    if ds.name == "synthetic":
        table = synth_two_gaussians(trial.split(SUB_SYNTH), ds.synth_size,
                                    ds.synth_d, ds.synth_separation)
    return split_standardize(table, ds.train_ratio, rng=trial.split(SUB_SPLIT))


# ---------------------------------------------------------------------------
# single-trial cores

def _draw_channel(cfg, dataset, trial, n_r: int, kappa: float):
    """The trial's channel realization H at (n_r, kappa), and P_sig, the
    signal power of the training receive block under its real part."""
    h = sample_ricean(
        RiceanConfig(n_r=n_r, n_t=dataset.d + 1, kappa=kappa,
                     los_angle_rx=cfg.los_angle_rx,
                     los_angle_tx=cfg.los_angle_tx),
        trial.split(SUB_CHANNEL))
    return h, signal_power(receive(h.real, augment(dataset.x_train)))


class _NoiseReplay:
    """A noise substream's first `size` draws, replayed from its start at
    any noise level and length up to `size`.

    numpy's normal(mean, std, size) is mean + std * z element by element,
    z its standard-normal draw, and split calls continue the stream bit for
    bit.  So after `rewind`, successive `normal` calls return what a fresh
    stream's successive calls would.  z is drawn in one call when the
    replay is built; the last pass lets it go once it has served its draws.
    """

    def __init__(self, stream: RngStream, size: int):
        self._z = stream.normal(0.0, 1.0, size)
        self._pos, self._end = 0, -1    # next draw; the last pass's end

    def rewind(self, size: int, last: bool = False):
        """Serve the stream from its first draw again, for a pass of `size`
        draws."""
        if self._z is None:
            raise ValueError("_NoiseReplay: rewind after the last pass")
        self._pos, self._end = 0, size if last else -1
        return self

    def normal(self, mean, std, shape):
        start, self._pos = self._pos, self._pos + math.prod(shape)
        out = std * self._z[start:self._pos]
        out += mean
        if self._pos == self._end:
            self._z = None
        return out.reshape(shape)


def _accuracy(model, dataset: Dataset, rng=None) -> float:
    """Share of test points whose class the model predicts right, its test
    noise drawn from rng."""
    t_hat = predict(model, dataset.x_test, rng)
    return (np.count_nonzero(classify(t_hat) == dataset.t_test)
            / dataset.t_test.size)


def _fit_and_score(cfg, dataset, layer, noise=(None, None)) -> dict:
    """One trial's result cells: fit through layer, training noise from
    noise[0], then test, test noise from noise[1]."""
    model = fit(layer, dataset.x_train, dataset.t_train, noise[0],
                combiner=cfg.combiner)
    return {"accuracy": _accuracy(model, dataset, noise[1]),
            "train_residual": model.train_residual,
            "receive_power": model.receive_power}


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
    The allocator policy (`numkernel.set_malloc_policy`) is set first, so
    every runner's trials run under it, whoever calls the runner.
    """
    numkernel.set_malloc_policy()
    base_table = _load_base_table(cfg)
    if base_table is not None:
        cfg.check_table(base_table.n_rows, base_table.n_features)

    def one(seed):
        trial = RngStream(cfg.master_seed).split(seed)
        return body(seed, trial, _trial_dataset(cfg, base_table, trial))

    with one_blas_thread():
        if cfg.threads > 1:
            with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
                return list(pool.map(one, range(cfg.seeds)))
        # not a one-worker pool, whose thread's malloc arena raises peak RSS
        return [one(seed) for seed in range(cfg.seeds)]


def _run_grid(cfg: ExperimentConfig):
    """Shared sweep driver of a resolved config, its rows named by cfg.kind.

    For every point of `cfg.points()` x seed, one mimo trial (plus, with
    cfg.baseline, one digital trial) runs.  Every point of a seed splits
    the same trial stream, so a seed's dataset and its channel at each
    (n_r, kappa) are the same at every point, and its noise blocks at each
    n_r are the first D x n_r draws of the same two noise streams; only the
    noise level and the width change.  One task per seed therefore builds
    the dataset once and keeps one `_NoiseReplay` per noise stream, which
    draws D x widest normals, widest the largest finite-SNR n_r, and serves
    every point its prefix; the seed's last finite-SNR point lets the draws
    go.  When (n_r, kappa) changes from the previous point it draws the
    channel and measures the signal power of its training receive block,
    for all the channel's points.  Results are ordered by (point, seed,
    model) regardless of thread count."""
    points = cfg.points()
    finite = [snr_db != math.inf for _, _, snr_db in points]
    last_noisy = max((i for i, f in enumerate(finite) if f), default=-1)
    widest = max((p[0] for p, f in zip(points, finite) if f), default=0)
    rapp = RappParams(y_sat=cfg.y_sat, alpha=cfg.alpha)
    # the digital ELM has no channel or noise: a kappa or SNR sweep skips it
    baseline = cfg.baseline and KIND_TABLE[cfg.kind][0] in ("n_r", None)

    def one(seed, trial, dataset):
        row = partial(TrialResult, experiment=cfg.kind,
                      dataset=cfg.dataset.name, seed=seed)
        sizes = len(dataset.x_train), len(dataset.x_test)
        chan_key = None
        replays = [_NoiseReplay(trial.split(sub), d * widest)
                   for sub, d in zip((SUB_TRAIN_NOISE, SUB_TEST_NOISE),
                                     sizes)] if widest else None
        by_point = []
        for i, (n_r, kappa, snr_db) in enumerate(points):
            if (n_r, kappa) != chan_key:
                chan_key = (n_r, kappa)
                h, p_sig = _draw_channel(cfg, dataset, trial, n_r, kappa)
            layer = HiddenLayer(h_real=h.real, rapp=rapp,
                                noise=noise_for_snr(p_sig, snr_db))
            noise = ([z.rewind(d * n_r, last=i == last_noisy)
                      for z, d in zip(replays, sizes)]
                     if finite[i] else (None, None))
            rows = [row(model="mimo", n_r=n_r, snr_db=snr_db, kappa=kappa,
                        **_fit_and_score(cfg, dataset, layer, noise))]
            if baseline:
                layer = digital_elm_hidden(trial.split(SUB_DIGITAL), n_r,
                                           dataset.d)
                rows.append(row(model="digital", n_r=n_r, snr_db=math.inf,
                                kappa=kappa,
                                **_fit_and_score(cfg, dataset, layer)))
            by_point.append(rows)
        return by_point

    per_seed = _per_seed(cfg, one)
    return [r for point in zip(*per_seed) for rows in point for r in rows]


def _run_online(cfg: ExperimentConfig):
    """Online re-training under an AR(1) aging channel.

    Per seed: fit the closed form on H(0); then for each channel step,
    evolve H, record the pre-update normalized accuracy (iteration 0) and
    the trace of the mini-batch rule (iterations 1..n), where the
    normalizer is the full-data fit recomputed under the stepped channel.
    Both closed-form fits use cfg.combiner; the mini-batch rule is always
    minimum-norm.
    """
    ar = ArConfig(eta=cfg.eta)
    rapp = RappParams(y_sat=cfg.y_sat, alpha=cfg.alpha)
    (n_r, kappa, snr_db), = cfg.points()

    def one(seed, trial, dataset):
        row = partial(TrialResult, experiment=cfg.kind,
                      dataset=cfg.dataset.name, seed=seed, model="mimo",
                      n_r=n_r, snr_db=snr_db, kappa=kappa, eta=cfg.eta)
        h, p_sig = _draw_channel(cfg, dataset, trial, n_r, kappa)
        layer = HiddenLayer(h_real=h.real, rapp=rapp,
                            noise=noise_for_snr(p_sig, snr_db))
        train_noise = trial.split(SUB_TRAIN_NOISE)
        test_noise = trial.split(SUB_TEST_NOISE)
        ar_rng = trial.split(SUB_AR)
        batch_rng = trial.split(SUB_MINIBATCH)

        model = fit(layer, dataset.x_train, dataset.t_train, train_noise,
                    combiner=cfg.combiner)
        rows = []
        for step in range(1, cfg.steps + 1):
            h = evolve_ar(h, ar, ar_rng)
            layer_k = replace(layer, h_real=h.real)
            # normalizer: closed-form refit on the full data under H(k)
            full = fit(layer_k, dataset.x_train, dataset.t_train, train_noise,
                       combiner=cfg.combiner)
            # iteration 0 is the stale combiner under H(k)
            trace = [replace(model, hidden=layer_k),
                     *online_update(model, layer_k, dataset, cfg.gamma,
                                    cfg.batch_size, cfg.iters_per_step,
                                    batch_rng, noise_rng=train_noise)]
            model = trace[-1]
            acc_full, *accs = [_accuracy(m, dataset, test_noise)
                               for m in (full, *trace)]
            for i, (m, acc) in enumerate(zip(trace, accs)):
                rows.append(row(step=step, iteration=i, accuracy=acc,
                                receive_power=m.receive_power,
                                normalized_accuracy=(acc / acc_full
                                                     if acc_full > 0
                                                     else math.nan)))
        return rows

    return [r for rows in _per_seed(cfg, one) for r in rows]


def run_sweep_nr(cfg: ExperimentConfig):
    """Accuracy versus antenna count N_r (Fig.-2-style experiment)."""
    return run(replace(cfg, kind="sweep_nr", out=None))


def run_sweep_snr(cfg: ExperimentConfig):
    """Accuracy versus receive SNR, plus a noise-free reference column."""
    return run(replace(cfg, kind="sweep_snr", out=None))


def run_sweep_kappa(cfg: ExperimentConfig):
    """Accuracy versus Ricean factor kappa (LoS dominance)."""
    return run(replace(cfg, kind="sweep_kappa", out=None))


def run_online(cfg: ExperimentConfig):
    """Online re-training under an AR(1) aging channel (`_run_online`)."""
    return run(replace(cfg, kind="online", out=None))


# ---------------------------------------------------------------------------
# aggregation and emission

def summarize(results):
    """Per-grid-point aggregate: mean and std of the accuracy, and the mean
    normalized accuracy of online rows.  std is the population standard
    deviation."""
    if not results:
        raise ValueError("summarize: empty result list")
    key_columns = SUMMARY_COLUMNS[:7]       # model .. iteration
    groups = {}
    for r in results:
        key = tuple(getattr(r, c) for c in key_columns)
        groups.setdefault(key, []).append(r)
    table = []
    for key, rows in groups.items():
        accs = np.array([r.accuracy for r in rows], dtype=float)
        naccs = [r.normalized_accuracy for r in rows
                 if r.normalized_accuracy is not None]
        table.append({
            **dict(zip(key_columns, key)),
            "n_trials": len(rows),
            "mean_accuracy": float(accs.mean()),
            "std_accuracy": float(accs.std()),
            "mean_normalized_accuracy":
                float(np.mean(naccs)) if naccs else None,
        })
    table.sort(key=lambda row: tuple((row[c] is None, row[c])
                                     for c in key_columns))
    return table


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return str(float(value))
    return str(value)


def emit_csv(table, path) -> None:
    """Write a TrialResult list as RFC-4180-style CSV."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRIAL_COLUMNS)
            for row in table:
                writer.writerow([_fmt(getattr(row, c)) for c in TRIAL_COLUMNS])
    except OSError as exc:      # open, or a write or the flush on closing
        raise OutputError(f"cannot write CSV to {path}: {exc}") from None


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _environment() -> dict:
    """numpy and BLAS build, and the BLAS threads the timings ran under."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}           # numpy before 1.26 only prints its config
    env = {"numpy": np.__version__, "blas": blas.get("name"),
           "blas_version": blas.get("version"),
           # OpenBLAS's CPU kernel: the CSV bytes hold per (build, kernel)
           "blas_core": blas_core(),
           # every trial runs inside `one_blas_thread`
           "blas_threads": 1 if blas_thread_control() else None,
           "lapack": lapack_cholesky() and lapack_cholesky()[1].__name__,
           # the allocator policy every runner sets, null where it is not
           "malloc": numkernel.malloc_applied}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if var in os.environ:
            env[var] = os.environ[var]
    return env


def write_manifest(cfg: ExperimentConfig, results, csv_path,
                   elapsed_ms: float = None) -> str:
    """Sidecar JSON recording the config, its kind's n_r and grid filled
    in, the version, dataset checksums, the environment and elapsed_ms, the
    run's wall time from `run` (null when the caller did not time it)."""
    ds = cfg.dataset
    _, grid, n_r = KIND_TABLE[cfg.kind]
    echo = replace(cfg, n_r=cfg.n_r or n_r, grid=cfg.grid or grid)
    checksums = ({"synthetic": f"size={ds.synth_size},d={ds.synth_d},"
                               f"sep={ds.synth_separation}"}
                 if ds.name == "synthetic"
                 else {ds.path: sha256_file(ds.path)})
    manifest = {
        # JSON has no inf; the grid tuples are written as lists
        "config": {key: "inf" if value == math.inf else value
                   for key, value in asdict(echo).items()},
        "library_version": __version__,
        "dataset_checksums": checksums,
        "n_result_rows": len(results),
        "elapsed_ms": elapsed_ms,
        "environment": _environment(),
        "created_unix": int(time.time()),
    }
    path = manifest_path(csv_path)
    try:
        with open(path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise OutputError(f"cannot write manifest to {path}: {exc}") from None
    return path


def run(cfg: ExperimentConfig):
    """Check cfg once (`ExperimentConfig.resolved`) and run it as its kind,
    writing the CSV and manifest of that config when cfg.out is set.  Each
    `run_<kind>` is `run` as its kind, whatever cfg.kind says, and writes
    no file; an unset n_r or grid takes that kind's defaults."""
    cfg = cfg.resolved()
    t0 = time.perf_counter()
    results = _run_online(cfg) if cfg.kind == "online" else _run_grid(cfg)
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    if cfg.out is not None:
        emit_csv(results, cfg.out)
        write_manifest(cfg, results, cfg.out, elapsed_ms)
    return results
