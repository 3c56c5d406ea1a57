"""airelm: over-the-air extreme learning machines on simulated MIMO channels.

A fading Ricean/Rayleigh channel plays the role of the random hidden layer
of a single-hidden-layer network; a Rapp soft threshold is the analog
activation; the receive combiner is trained in closed form by minimum-norm
least squares and re-tracked online while the channel ages.
"""

__version__ = "0.1.0"

from .errors import ConfigError, DataError, OutputError
from .rng import (RngStream, SUB_SPLIT, SUB_CHANNEL, SUB_TRAIN_NOISE,
                  SUB_TEST_NOISE, SUB_DIGITAL, SUB_MINIBATCH, SUB_AR,
                  SUB_SYNTH, SUB_FEATSEL)
from .numkernel import sample_cgaussian, svd, pseudoinverse, min_norm_lstsq
from .activation import (RappParams, rapp, rapp_vec, rapp_deriv, rapp_peak,
                         sigmoid)
from .channel import (RiceanConfig, ArConfig, NoiseModel, NOISELESS,
                      ChannelMatrix, steering_vector, los_matrix, ricean_mix,
                      sample_ricean, evolve_ar, apply_channel, sigma2_for_snr)
from .elm import (HiddenLayer, DigitalLayer, ElmModel, augment, hidden_matrix,
                  train, fit, predict, classify, online_update,
                  digital_elm_hidden)
from .data import (RawTable, StandardizationStats, Dataset, load_csv,
                   load_wbcd, load_idx, load_secom, mnist_binarize,
                   secom_prepare, split_standardize, synth_two_gaussians)
from .config import DatasetConfig, ExperimentConfig, parse_config
from .experiments import (TrialResult, run_sweep_nr, run_sweep_snr,
                          run_sweep_kappa, run_online, run_single, run,
                          summarize, emit_csv, load_results_csv,
                          write_manifest)

__all__ = [
    "ConfigError", "DataError", "OutputError", "RngStream",
    "SUB_SPLIT", "SUB_CHANNEL", "SUB_TRAIN_NOISE", "SUB_TEST_NOISE",
    "SUB_DIGITAL", "SUB_MINIBATCH", "SUB_AR", "SUB_SYNTH", "SUB_FEATSEL",
    "sample_cgaussian", "svd", "pseudoinverse",
    "min_norm_lstsq",
    "RappParams", "rapp", "rapp_vec", "rapp_deriv", "rapp_peak", "sigmoid",
    "RiceanConfig", "ArConfig", "NoiseModel", "NOISELESS", "ChannelMatrix",
    "steering_vector", "los_matrix", "ricean_mix", "sample_ricean",
    "evolve_ar", "apply_channel", "sigma2_for_snr",
    "HiddenLayer", "DigitalLayer", "ElmModel", "augment", "hidden_matrix",
    "train", "fit", "predict", "classify", "online_update",
    "digital_elm_hidden",
    "RawTable", "StandardizationStats", "Dataset", "load_csv", "load_wbcd",
    "load_idx", "load_secom", "mnist_binarize", "secom_prepare",
    "split_standardize", "synth_two_gaussians",
    "DatasetConfig", "ExperimentConfig", "parse_config",
    "TrialResult", "run_sweep_nr", "run_sweep_snr", "run_sweep_kappa",
    "run_online", "run_single", "run", "summarize", "emit_csv",
    "load_results_csv", "write_manifest",
]
