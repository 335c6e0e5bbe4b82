"""Environmental-sound spectrogram classification toolkit.

Feature extraction treats log-spectrograms as textures: a log-Gabor
filter bank (single-filter, averaged-bank, and frequency-band variants)
plus a translation-invariant wavelet baseline, followed by mutual-
information feature selection and a one-against-one RBF SVM trained with
an SMO dual solver.
"""

import os

# One BLAS thread, forced before numpy is first imported: the parallel steps
# already run on every CPU (`cpus.run_each`), and a BLAS thread count moves
# the last bits of S2's scores, so the bytes must not depend on the caller's
# environment. A program that imported numpy first keeps its BLAS threads.
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

from .audio_io import AudioClip, generate_corpus, load_wav, peak_normalize, save_wav, synthesize_clip
from .config import RunConfig
from .feature_select import (
    FeatureMatrix,
    MiSelection,
    apply_selection,
    discretize,
    mi_scores,
    mutual_information,
    select_top_k,
)
from .log_gabor import (
    LogGaborBank,
    LogGaborParams,
    apply_filter,
    band_patch_feature,
    bank_average_feature,
    build_bank,
    single_filter_feature,
)
from .manifest import DatasetManifest, ManifestEntry, auto_split, read_manifest, write_manifest
from .model_io import TrainedModel, load_model, save_model
from .pipeline import compare_methods, evaluate_model, extract_features, grid_search, train_model
from .report import EvaluationReport
from .spectrogram import (
    StftParams,
    log_magnitude,
    log_spectrogram,
    stft,
    to_fixed,
)
from .svm import (
    BinarySvmModel,
    KernelParams,
    OvoModel,
    decision_values,
    grid_search_cv,
    ovo_predict_batch,
    ovo_train,
    rbf_kernel,
    smo_train,
)
from .wavelet_baseline import (
    PatchSet,
    global_max,
    local_max,
    normalize_scale,
    patch_transform,
    sample_patches,
    tiwt,
)

__version__ = "0.1.0"
