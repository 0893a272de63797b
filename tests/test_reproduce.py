import numpy as np

from sivmdcs.reproduce import _proportionality_dev, run_reproduction


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
