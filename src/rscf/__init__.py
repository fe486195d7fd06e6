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
from .channel import (ChannelRealization, NetworkGeometry, attenuation_constant,
                      draw_channel, large_scale, noise_variance, path_loss, place_network,
                      pt_for_snr, snr_db)
from .clustering import (ClusterPartition, design_clusters, design_clusters_fixed,
                         select_aps_threshold, select_aps_topn, sparse_channel)
from .config import ConfigError, ExperimentConfig
from .power import PowerAllocation, allocate_common, uniform_private
from .precoding import (CONSTRUCTIONS, EmptyClusterError, PrecoderSet,
                        RankDeficientChannelError, SvdCache, common_precoder, construct,
                        flop_estimate, mf_sp, mmse_sp, normalize_private_columns,
                        precoder_dump, ru_mmse_rd, ru_zf_rd, zf_sp)
from .rates import AsrResult, EsrResult, average_sum_rate, ergodic_sum_rate
from .harness import ResultRecord, TrialRow, run_experiment

__version__ = "0.1.0"
