"""Synthetic window datasets with class-correlated bimodal structure.

Audio carries a class-dependent sinusoid (frequency and phase follow
class mod 4, so classes c and c+4 sound alike); video a class-dependent
step pattern (step time and channel signature follow class // 2) plus a
hint that resolves within-pair identity for classes 0..3 only. Audio alone
therefore ceilings at 50% accuracy, video alone at 75%, while the two
together identify every class, which is what makes the fused model the
strongest of the three variants.
"""

import numpy as np

from emofuse.dataset import VideoEntry, WindowDataset

AUDIO_DIM = 24
VIDEO_DIM = 32
WINDOW_LEN = 15

_STRUCTURE_SEED = 777  # class structure is fixed; draws vary per split


def synthetic_dataset(
    n_windows,
    seed,
    audio_dim=AUDIO_DIM,
    video_dim=VIDEO_DIM,
    window_len=WINDOW_LEN,
    audio_noise=1.0,
    video_noise=0.4,
    hint=0.4,
):
    struct = np.random.default_rng(_STRUCTURE_SEED)
    audio_phase = struct.uniform(0.0, 2.0 * np.pi, size=(4, audio_dim))
    video_pair_sig = struct.standard_normal((4, video_dim))
    video_hint_sig = struct.standard_normal((8, video_dim))
    video_hint_sig[4:] = 0.0  # pairs {4,5} and {6,7} stay ambiguous on video

    rng = np.random.default_rng(seed)
    t = np.arange(window_len, dtype=np.float64)[:, None]
    audios, videos = [], []
    for i in range(n_windows):
        c = i % 8
        freq = (c % 4) + 1.0
        audio = np.sin(2.0 * np.pi * freq * t / window_len + audio_phase[c % 4][None, :])
        audio = audio + audio_noise * rng.standard_normal((window_len, audio_dim))

        step = np.where(t >= 3 + 2 * (c // 2), 1.0, -1.0)
        video = step * video_pair_sig[c // 2][None, :]
        video = video + hint * video_hint_sig[c][None, :]
        video = video + video_noise * rng.standard_normal((window_len, video_dim))
        audios.append(audio)
        videos.append(video)

    # one single-window video per window
    return WindowDataset(
        audio=np.stack(audios).astype(np.float32),
        video=np.stack(videos).astype(np.float32),
        labels=np.repeat(np.arange(n_windows)[:, None] % 8, window_len, axis=1),
        start_frames=np.zeros(n_windows, dtype=np.int64),
        pad_counts=np.zeros(n_windows, dtype=np.int64),
        videos=[VideoEntry(f"syn{i:03d}", window_len, i, 1) for i in range(n_windows)],
        window_len=window_len,
    )
