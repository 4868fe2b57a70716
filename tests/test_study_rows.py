"""Frozen rows of two small Monte-Carlo studies.

A refactor of the study runner must keep every trial's seed, scene and
estimate, so the rows of a 2-trial study at M=8, J=4 with both methods
and the bench's solver tolerances must not move.  A Failed point is
NaN."""

import numpy as np
import pytest

from wbdoa.bench import ExperimentConfig, run_experiment

NAN = float("nan")

FROZEN = {
    "rmse_vs_snr": [
        ("wgs", 0.0, 20.166353594557055, 0.0),
        ("rss", 0.0, 7.51460729786946, 0.0),
        ("wgs", 5.0, 0.5528572988989638, 0.0),
        ("rss", 5.0, 2.115348760551663, 0.0),
        ("wgs", 10.0, 1.068559199921226, 0.0),
        ("rss", 10.0, 0.9122203693395843, 0.0),
        ("wgs", 15.0, 0.6146806499538219, 0.0),
        ("rss", 15.0, 1.371451378127621, 0.0),
        ("wgs", 20.0, 0.3916779539499026, 0.0),
        ("rss", 20.0, 1.4680318613010572, 0.0),
    ],
    "resolution": [
        ("wgs", 12.0, 1.7807807617903817, 0.0),
        ("rss", 12.0, NAN, 0.5),
        ("wgs", 11.0, 1.0122392274689536, 0.0),
        ("rss", 11.0, 1.3107328272702272, 0.0),
        ("wgs", 10.0, 1.4874010145609438, 0.0),
        ("rss", 10.0, NAN, 0.5),
        ("wgs", 9.0, 0.5448086373213357, 0.0),
        ("rss", 9.0, NAN, 1.0),
        ("wgs", 8.0, NAN, 0.5),
        ("rss", 8.0, NAN, 1.0),
        ("wgs", 7.0, 2.1497475780075916, 0.0),
        ("rss", 7.0, NAN, 0.5),
        ("wgs", 6.0, NAN, 1.0),
        ("rss", 6.0, NAN, 1.0),
        ("wgs", 5.0, NAN, 0.5),
        ("rss", 5.0, NAN, 1.0),
        ("wgs", 4.0, NAN, 1.0),
        ("rss", 4.0, NAN, 1.0),
        ("wgs", 3.0, NAN, 1.0),
        ("rss", 3.0, NAN, 1.0),
    ],
}


@pytest.mark.parametrize("scenario", sorted(FROZEN))
def test_rows_match_the_frozen_study(scenario):
    table = run_experiment(ExperimentConfig(scenario=scenario, trials=2, M=8, J=4,
                                            workers=1))
    got = [(r["method"], r["point"], r["rmse_deg"], r["fail_rate"]) for r in table.rows]
    assert [row[:2] for row in got] == [row[:2] for row in FROZEN[scenario]]
    for row, frozen in zip(got, FROZEN[scenario]):
        assert row[2:] == pytest.approx(frozen[2:], rel=1e-9, nan_ok=True), row[:2]
    assert all(r["trials"] == 2 for r in table.rows)
    assert not np.isnan([r["fail_rate"] for r in table.rows]).any()
