"""Clustered cell-free multi-user MIMO downlink simulator with rate splitting.

Monte Carlo link-level evaluation of ergodic sum rates under imperfect
transmitter-side channel knowledge, with user-centric AP clustering, one
SVD multicast beam per cluster, matched-filter / zero-forcing / MMSE
private precoders (sparse and reduced-dimension variants) and a grid
search over the common-stream power fraction.

The records a run builds are ``typing.NamedTuple`` classes, never handed to
numpy as arrays: a frozen dataclass generates its methods on every import,
and set-up time is measured.  Three stay dataclasses: ``ExperimentConfig``
for its ``fields()`` and ``replace()``, ``ClusterPartition`` and
``ProjectionBundle`` for their cached properties.  The independent checks
(``verify``, ``draw_sinrs``, ``sinr_closed_form``, ``RateInputs`` ...) are
in :mod:`rscf.checks`, which ``import rscf`` does not load.
"""
from .harness import run_experiment
