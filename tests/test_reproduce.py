from sivmdcs.reproduce import run_reproduction


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
