"""airelm: over-the-air extreme learning machines on simulated MIMO channels.

A fading Ricean/Rayleigh channel plays the role of the random hidden layer
of a single-hidden-layer network; a Rapp soft threshold is the analog
activation; the receive combiner is trained in closed form, by ridge or by
minimum-norm least squares, and re-tracked online while the channel ages.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .errors import ConfigError, DataError, OutputError
from .rng import (RngStream, SUB_SPLIT, SUB_CHANNEL, SUB_TRAIN_NOISE,
                  SUB_TEST_NOISE, SUB_DIGITAL, SUB_MINIBATCH, SUB_AR,
                  SUB_SYNTH)
from .numkernel import sample_cgaussian, svd, min_norm_lstsq, ridge_lstsq
from .activation import (RappParams, rapp, rapp_vec, rapp_deriv, rapp_peak,
                         sigmoid)
from .channel import (RiceanConfig, ArConfig, NoiseModel, NOISELESS,
                      steering_vector, los_matrix, ricean_mix, sample_ricean,
                      evolve_ar, receive, add_noise, signal_power,
                      noise_for_snr, sigma2_for_snr)
from .elm import (HiddenLayer, DigitalLayer, ElmModel, augment,
                  hidden_matrix, train, fit, predict, classify, online_update,
                  digital_elm_hidden)
from .data import (RawTable, Dataset, load_csv, load_wbcd, split_standardize,
                   synth_two_gaussians)
from .config import DatasetConfig, ExperimentConfig, parse_config
from .experiments import (TrialResult, run_sweep_nr, run_sweep_snr,
                          run_sweep_kappa, run_online, run,
                          summarize, emit_csv, write_manifest)

# every public name imported above; the submodules themselves are not exports
__all__ = [name for name, value in list(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
