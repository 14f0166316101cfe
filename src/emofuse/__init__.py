"""Bimodal (audio + facial features) frame-level expression recognition.

The package root exports the library surface README's "Library use" block
imports; everything else is reached through its module.
"""

from .audio import chunk_boundaries, extract_chunk_features, load_wav
from .dataset import WindowDataset
from .evaluation import evaluate
from .model import predict_dataset
from .sequencing import parse_annotations
from .training import TrainConfig, run_training
from .video import default_selection, parse_openface_csv

__version__ = "0.1.0"
