"""Multichannel speech dereverberation toolkit.

Linear-prediction dereverberation (WPE), its plug-and-play ADMM variant
with denoising priors, a shoebox room simulator, objective metrics and a
batch CLI.

The public names load their home module on first access (PEP 562), so
`import dereverb` runs no submodule and each CLI process imports only
the modules its subcommand runs.
"""
import importlib

# Home module -> the public names it defines.
_EXPORTS = {
    "denoisers": ("ExternalDenoiser", "IdentityDenoiser",
                  "SoftThresholdDenoiser", "WienerDenoiser"),
    "errors": ("AlignmentError", "ArgumentError", "DenoiserError",
               "DereverbError", "FormatError", "GeometryError", "MetricError",
               "ProtocolError"),
    "metrics": ("MetricReport", "align", "cepstral_distance",
                "evaluate_pair", "fw_seg_snr"),
    "pnpwpe": ("AdmmState", "PnpParams", "run_pnpwpe"),
    "roomsim": ("RoomSpec", "Scene", "image_source_rir", "measure_t60",
                "render_scene", "sample_room", "white_noise"),
    "signals": ("MultichannelTimeSignal", "TimeSignal", "convolve", "hann",
                "read_wav", "write_wav"),
    "stft": ("MultichannelSpectrogram", "Spectrogram", "StftConfig",
             "analyze", "analyze_multichannel", "synthesize"),
    "wpe": ("FilterBank", "IterationRecord", "WpeParams", "run_wpe"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
