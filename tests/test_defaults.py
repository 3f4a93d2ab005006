"""Pin the default knobs the rest of the suite and the CLI rely on."""

from stylepair import styler, trainer
from stylepair.cli import build_parser
from stylepair.synthgen import SynthConfig


def test_library_defaults():
    assert styler.DEFAULT_THRESHOLD == 0.28
    assert styler.DEFAULT_RIDGE_LAMBDA == 1e-2
    assert styler.DEFAULT_NOISE_SIGMA == 0.05
    assert trainer.DEFAULT_TAU == 0.05
    assert trainer.DEFAULT_QUEUE_CAPACITY == 1024


def test_synth_defaults():
    cfg = SynthConfig()
    assert cfg.n_styles == 2
    assert cfg.queries_per_style == 512
    assert cfg.pool_size == 8192
    assert cfg.dim == 64
    assert cfg.content_dim == 16
    assert cfg.style_strength == 0.8
    assert cfg.cross_modal_noise == 0.1
    assert 0.0 < cfg.held_out_fraction < 1.0


def test_cli_pipeline_defaults():
    args = build_parser().parse_args(["pipeline", "--workdir", "w"])
    assert args.threshold == 0.28
    assert args.tau == 0.05
    assert args.batch_size >= 2
    assert args.seed == 7


def test_cli_sweep_grid_matches_reference_ablation():
    args = build_parser().parse_args(["sweep", "--styled", "s", "--pool", "p"])
    grid = [float(v) for v in args.thresholds.split(",")]
    assert grid == [0.26, 0.27, 0.28, 0.29, 0.30]
