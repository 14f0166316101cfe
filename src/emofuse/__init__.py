"""Bimodal (audio + facial features) frame-level expression recognition."""

from .audio import (
    AudioSignal,
    DspConfig,
    chunk_boundaries,
    extract_chunk_features,
    load_wav,
    mel_filterbank,
)
from .dataset import WindowDataset, read_dataset, write_dataset
from .evaluation import EvalReport, evaluate
from .model import (
    FeatureStats,
    FusionModel,
    ModelConfig,
    load_checkpoint,
    predict_dataset,
    save_checkpoint,
    standardize,
)
from .sequencing import AnnotationTrack, parse_annotations, remap_label, window_starts
from .training import TrainConfig, TrainReport, fit_stats, run_training
from .video import (
    ColumnSelection,
    VideoFrameFeatures,
    default_selection,
    load_column_manifest,
    parse_openface_csv,
)

__version__ = "0.1.0"
