"""Differential fuzz: drawn configs' rows against the plain per-row reference.

A seeded generator (plain ``random``) draws configs across the config
space, and both realizations of each are checked against
``test_reference_rows.reference_rows`` under that test's tolerances
(McKeeman, "Differential Testing for Software", 1998; Claessen & Hughes,
"QuickCheck", 2000).  The run's caches, stacked builds, chunk layouts and
broadcast-or-gather picks are keyed on the scheme list, the SNR-point
count and the chunk width, and the fixed configs of that test reach only a
few of those keys.  A config that ``validate`` rejects, or whose
realization exhausts its redraws, is counted, not failed.

The tier-1 run checks the first 100 draws; ``RSCF_FUZZ_DRAWS=N`` checks the
first N of the same stream.
"""
import os
import random
import re
from dataclasses import replace

import pytest

from rscf import harness
from rscf.config import SCHEMES, ConfigError, validate
from test_reference_rows import BASE, assert_block_matches

DRAWS = int(os.environ.get("RSCF_FUZZ_DRAWS", "100"))
# the messages of a realization that exhausts its redraws, or of an empty cluster that
# freeze_geometry cannot redraw
_NOT_RUN = re.compile(r"exhausted \d+ redraws|cannot change under freeze_geometry")


def draw_config(rng):
    """One config and its chunk width in slices (None: the run's default)."""
    k = rng.choice((1, 2, 3, 4, 6, 8))
    m = rng.randint(max(2, k), 24)
    config = replace(
        BASE, m=m, k=k, seed=rng.randrange(10_000),
        selection=rng.choice(("threshold", "topn")), n_s=rng.choice((0, 1, 2, m // 2)),
        cluster_mode=rng.choice(("auto", "fixed")), n_c=rng.randint(1, 4),
        power_mode=rng.choice(("equal_split", "per_cluster_exhaustive")),
        schemes=tuple(rng.sample(tuple(SCHEMES), rng.randint(1, 6))),
        snr_grid_db=tuple(rng.randint(-10, 80) / 2 for _ in range(rng.randint(1, 3))),
        sigma_e2=rng.choice((0.0, 0.01, 0.1, 0.5)), n_err=rng.choice((1, 2, 5)),
        freeze_geometry=rng.random() < 0.2)
    return config, rng.choice((1, 2, None))


def checked_realizations(config):
    """How many of the config's realizations ran and matched the reference; an exhausted
    one is skipped."""
    checked = 0
    for index in range(config.n_realizations):
        try:
            block = harness.run_realization(config, index)
        except RuntimeError as exc:
            if not _NOT_RUN.search(str(exc)):
                raise
            continue
        assert_block_matches(config, block)
        checked += 1
    return checked


def test_drawn_configs_match_the_plain_reference(monkeypatch):
    rng = random.Random(1)
    # configs: rejected by validate, then realizations: exhausted, checked, and checked
    # under threshold/auto and under freeze_geometry
    census = dict.fromkeys(("invalid", "exhausted", "checked", "threshold_auto", "frozen"), 0)
    for draw in range(DRAWS):
        config, slices = draw_config(rng)
        try:
            validate(config)
        except ConfigError:
            census["invalid"] += 1
            continue
        print(f"draw {draw}, chunk {slices}: {config}")  # a failure shows the last one
        with monkeypatch.context() as patch:
            if slices:
                patch.setattr(harness, "_CHUNK_BYTES", slices * 16 * config.n_err * config.k ** 2)
            checked = checked_realizations(config)
        census["exhausted"] += config.n_realizations - checked
        census["checked"] += checked
        census["threshold_auto"] += checked * (config.selection == "threshold"
                                               and config.cluster_mode == "auto")
        census["frozen"] += checked * config.freeze_geometry
    print(census)
    # the draws reach what the fixed configs do not
    assert census["threshold_auto"] and census["frozen"], census
