"""Multichannel speech dereverberation toolkit.

Linear-prediction dereverberation (WPE), its plug-and-play ADMM variant
with denoising priors, a shoebox room simulator, objective metrics and a
batch CLI.
"""

from .denoisers import (ExternalDenoiser, IdentityDenoiser,
                        SoftThresholdDenoiser, WienerDenoiser)
from .errors import (AlignmentError, ArgumentError, DenoiserError,
                     DereverbError, FormatError, GeometryError, MetricError,
                     ProtocolError)
from .metrics import MetricReport, align, cepstral_distance, evaluate_pair, fw_seg_snr
from .pnpwpe import AdmmState, PnpParams, run_pnpwpe
from .roomsim import (RoomSpec, Scene, image_source_rir, measure_t60,
                      render_scene, sample_room, white_noise)
from .signals import (MultichannelTimeSignal, TimeSignal, convolve,
                      read_wav, write_wav)
from .stft import (MultichannelSpectrogram, Spectrogram, StftConfig, analyze,
                   analyze_multichannel, hann, synthesize)
from .wpe import FilterBank, IterationRecord, WpeParams, run_wpe

__all__ = [
    "AdmmState", "AlignmentError", "ArgumentError", "DenoiserError",
    "DereverbError", "ExternalDenoiser", "FilterBank", "FormatError",
    "GeometryError", "IdentityDenoiser", "IterationRecord", "MetricError",
    "MetricReport", "MultichannelSpectrogram", "MultichannelTimeSignal",
    "PnpParams", "ProtocolError", "RoomSpec", "Scene",
    "SoftThresholdDenoiser", "Spectrogram", "StftConfig", "TimeSignal",
    "WienerDenoiser", "WpeParams", "align", "analyze",
    "analyze_multichannel", "cepstral_distance", "convolve",
    "evaluate_pair", "fw_seg_snr", "hann", "image_source_rir",
    "measure_t60", "read_wav", "render_scene", "run_pnpwpe", "run_wpe",
    "sample_room", "synthesize", "white_noise", "write_wav",
]
