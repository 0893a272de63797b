import numpy as np
import pytest

from memory import peak_bytes
from sivmdcs.config import parse_config
from sivmdcs.reproduce import (DEFAULT_CONFIGS, FIG2_HIDDEN_CONFIG,
                               FIG4_HET_CONFIG, TARGETS, _proportionality_dev,
                               run_reproduction)


def test_seed_override_reaches_secondary_branch(tmp_path):
    # fig4's heterodyne branch samples its own ensemble from a second config
    diagonals = []
    for seed in (None, 7, 99):
        out = tmp_path / str(seed)
        report = run_reproduction("fig4", out_dir=str(out), seed=seed)
        assert report.cfg.seed == (7 if seed is None else seed)
        diagonals.append((out / "fig4_het_diagonal.csv").read_bytes())
    # 7 is fig4's configured seed: overriding with it changes nothing
    assert diagonals[0] == diagonals[1] != diagonals[2]


def test_blockwise_proportionality_dev_has_the_whole_array_bits():
    # fig3's yield-off check, taken by row blocks (the last one short), must
    # give the bits of the whole-array expression, and keep a NaN
    rng = np.random.default_rng(12)
    shape = (150, 70)
    het = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    pl = 0.8 * het + 1e-9 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    whole = np.max(np.abs(pl - 0.8 * het)) / np.max(np.abs(het)) / 0.8
    assert _proportionality_dev(pl, het, 0.8) == whole
    pl[140, 3] = np.nan
    assert np.isnan(_proportionality_dev(pl, het, 0.8))


@pytest.mark.parametrize("target", TARGETS)
def test_a_target_holds_at_most_a_signal_and_a_spectrum(tmp_path, target):
    # a full grid is one complex128 signal or spectrum of the target's
    # largest grid; fig4 reads only the diagonal of each signal, so it
    # never needs a second one
    texts = [DEFAULT_CONFIGS[target]]
    texts += {"fig2": [FIG2_HIDDEN_CONFIG], "fig4": [FIG4_HET_CONFIG]}.get(target, [])
    grid = max(16 * cfg.grid.n_tau * cfg.grid.n_t for cfg in map(parse_config, texts))
    grids = 1 if target == "fig4" else 2
    peak = peak_bytes(lambda: run_reproduction(target, out_dir=str(tmp_path),
                                               threads=1))
    assert peak <= grids * grid + 4 * 2**20
