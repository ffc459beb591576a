"""Tests of the benchmark's own pieces: the external-denoiser fixture, the
determinism of the workload inputs and the exactness of the traced counts.

Run from the repository root: PYTHONPATH=src python -m pytest bench
"""
import os
import sys

import numpy as np
import pytest

import dereverb.cli as cli
import dereverb.wpe
from dereverb.denoisers import ExternalDenoiser, WienerDenoiser
from dereverb.signals import MultichannelTimeSignal, TimeSignal, write_wav
from dereverb.stft import Spectrogram, StftConfig

import pnpspec_wiener
from runner import Bench
from tracing import PER_LAYER_UNITS, Tracer, count_problems, layer_metrics
from workloads import EXTERNAL_DENOISER, WORKLOADS, speech_like

COUNTS = [name for name, unit in PER_LAYER_UNITS.items() if unit == "count"]


def test_external_fixture_matches_in_process_wiener(tmp_path):
    rng = np.random.default_rng(0)
    n_frames, config = 120, StftConfig()
    scale = rng.uniform(0.01, 3.0, size=(1, config.num_bins))
    values = scale * (rng.standard_normal((n_frames, config.num_bins))
                      + 1j * rng.standard_normal((n_frames, config.num_bins)))
    spec = Spectrogram(values, config, 16000,
                       (n_frames - 1) * config.hop + config.frame_len)
    external = ExternalDenoiser((sys.executable, EXTERNAL_DENOISER),
                                workdir=str(tmp_path)).denoise(spec)
    expected = WienerDenoiser(pnpspec_wiener.QUANTILE,
                              pnpspec_wiener.MIN_GAIN).denoise(spec).values
    # PNPSPEC1 carries float32: input and output are each rounded once.
    np.testing.assert_allclose(external.values, expected, rtol=1e-6,
                               atol=1e-6 * np.max(np.abs(expected)))


def test_fixture_gain_is_the_cli_default_wiener():
    args = cli.build_parser().parse_args(
        ["dereverb", "--input", "x.wav", "--out", "y.wav"])
    assert (args.quantile, args.min_gain) == (pnpspec_wiener.QUANTILE,
                                              pnpspec_wiener.MIN_GAIN)


def _observed(tmp_path, label, seed):
    workdir = tmp_path / label
    workdir.mkdir()
    bench = Bench(WORKLOADS["a4-wpe"], seed, str(workdir))
    bench.setup(3)   # scene 0 twice: the repeat is compared byte for byte
    assert bench.failures == []
    with open(os.path.join(bench.scene_dirs[0], "observed.wav"), "rb") as fh:
        return fh.read()


def test_same_seed_gives_byte_identical_observed_wav(tmp_path):
    first = _observed(tmp_path, "a", 7)
    assert first == _observed(tmp_path, "b", 7)
    assert first != _observed(tmp_path, "c", 8)


def _traced_counts(tmp_path, label, dereverb_flags):
    out = tmp_path / label
    out.mkdir()
    clean = str(out / "clean.wav")
    write_wav(MultichannelTimeSignal((TimeSignal(speech_like(1.2, seed=3),
                                                 16000),)), clean)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(["simulate", "--preset", "A", "--seed", "4",
                         "--clean", clean, "--noise", "wgn",
                         "--out-dir", str(out)]) == 0
        assert cli.main(["dereverb", "--input", str(out / "observed.wav"),
                         "--out", str(out / "est.wav"),
                         *dereverb_flags]) == 0
        assert cli.main(["evaluate", "--reference", str(out / "reference.wav"),
                         "--estimate", str(out / "est.wav"),
                         "--csv", str(out / "m.csv")]) == 0
    finally:
        tracer.uninstall()
    step = {"import_s": 0.0, "spans": tracer.spans}
    assert count_problems([step]) == []
    metrics = layer_metrics([step])
    return {name: metrics[name] for name in COUNTS}


@pytest.mark.parametrize("flags, solver", [
    (["--method", "wpe", "--filter-order", "4", "--iterations", "2"],
     "wpe.iterations"),
    (["--method", "pnpwpe", "--denoiser", "wiener", "--filter-order", "4",
      "--iterations", "3", "--inner-iters", "2"], "pnpwpe.outer_iters"),
])
def test_traced_counts_are_exact(tmp_path, capsys, flags, solver):
    first = _traced_counts(tmp_path, "first", flags)
    assert first == _traced_counts(tmp_path, "second", flags)
    bins = StftConfig().num_bins
    assert first[solver] >= 1
    assert first["numerics.solve_hpd_calls"] == bins * first[solver]
    assert first["numerics.singular_bands"] == 0
    assert first["roomsim.images"] > 0 and first["metrics.frames_used"] > 0
    if solver == "pnpwpe.outer_iters":
        assert first["denoisers.denoise_calls"] == 2 * first[solver]
    assert not hasattr(dereverb.wpe.solve_all_bands, "__wrapped__")


def test_self_time_subtracts_child_spans():
    spans = [
        {"name": "wpe.run_wpe", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "wpe.stack_regressors", "start": 0.0, "end": 1.0,
         "parent": 0, "bytes": 2 ** 20},
        {"name": "wpe.solve_all_bands", "start": 1.0, "end": 8.0,
         "parent": 0, "shape": [1, 2, 3]},
        {"name": "numerics.solve_hpd", "start": 2.0, "end": 3.0,
         "parent": 2},
    ]
    metrics = layer_metrics([{"import_s": 1.0, "spans": spans}])
    assert metrics["wpe.run_self_s"] == pytest.approx(2.0)
    assert metrics["wpe.cov_accum_s"] == pytest.approx(6.0)
    assert metrics["wpe.iterations"] == 1
    assert metrics["wpe.regressor_mib"] == pytest.approx(1.0)
    assert count_problems([{"spans": spans}]) == []
