"""Benchmark workloads: rscf config overrides plus the golden each one is checked against.

Each workload is one ``rscf`` configuration, given as ``key=value``
overrides on top of the package defaults.  Run lengths are chosen so that
one experiment takes a few seconds on a 2-core machine, which lets a
benchmark run repeat it and report medians.  NOTES.md records why each
workload exists and which layer it stresses or bypasses.
"""
from __future__ import annotations

from dataclasses import dataclass

CONVENTIONAL_SCHEMES = ("BS-MF,BS-ZF,BS-MMSE,CF-MF,CF-ZF,CF-MMSE,"
                        "CF-MF-SP,CF-ZF-SP,CF-MMSE-SP,CF-ZF-RD,CF-MMSE-RD")

# Goldens exist for config seeds 1..GOLDEN_SEEDS; see config_seed().
GOLDEN_SEEDS = 16


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: tuple[str, ...]
    golden: str          # name of the golden table the results must match
    workers: int = 1

    def config_overrides(self, seed: int, workers: int | None = None) -> list[str]:
        return [*self.overrides, f"seed={seed}", f"workers={workers or self.workers}"]


REFERENCE = ("n_realizations=10",)

WORKLOADS = {w.name: w for w in (
    Workload("reference", REFERENCE, golden="reference"),
    Workload("scaled-m64k16", ("M=64", "K=16", "cluster_mode=fixed", "n_c=4",
                               "n_realizations=2"), golden="scaled-m64k16"),
    Workload("conventional", (f"schemes={CONVENTIONAL_SCHEMES}", "n_err=10",
                              "n_realizations=60"), golden="conventional"),
    # same results as "reference": checks determinism across worker counts
    Workload("reference-w2", REFERENCE, golden="reference", workers=2),
)}

GOLDENS = {w.golden: w for w in WORKLOADS.values() if w.name == w.golden}


def config_seed(seed: int) -> int:
    """Config seed of benchmark seed ``seed``: 1..GOLDEN_SEEDS, with seed 1 -> 1."""
    return 1 + (seed - 1) % GOLDEN_SEEDS
