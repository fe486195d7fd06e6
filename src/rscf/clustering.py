"""AP selection and user/AP clustering for the clustered cell-free downlink.

Serving APs are picked per user from the large-scale gains, either by the
above-the-mean threshold rule or by keeping a fixed number of strongest
APs.  Users are then grouped greedily: a user joins the first cluster with
which it shares at least ``n_a`` candidate APs, otherwise it opens a new
cluster.  Each cluster keeps a binary test vector, the elementwise AND of
its members' selection columns.  Finally every AP is assigned to at most
one cluster so the cluster AP sets are pairwise disjoint, and the channel
estimate is masked to that support (:func:`sparse_channel`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class ClusterPartition:
    """Disjoint user groups, their serving AP sets and final test vectors."""

    user_sets: tuple[tuple[int, ...], ...]  # ascending user indices per cluster
    ap_sets: tuple[tuple[int, ...], ...]    # pairwise disjoint AP indices
    test_vectors: np.ndarray                # (N_c, M) binary

    @property
    def n_clusters(self) -> int:
        return len(self.user_sets)

    @cached_property
    def block_index(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """``np.ix_(APs, users)`` of each cluster, built once for every per-cluster build."""
        return tuple(np.ix_(aps, users) for aps, users in zip(self.ap_sets, self.user_sets))

    @cached_property
    def cluster_of(self) -> np.ndarray:
        """Read-only (K,) cluster index of each of the partition's K users, built once."""
        labels = self.cluster_of_users(sum(map(len, self.user_sets)))
        labels.flags.writeable = False
        return labels

    def cluster_of_users(self, n_users: int) -> np.ndarray:
        """Vector mapping each user index to its cluster index."""
        out = np.full(n_users, -1, dtype=int)
        for i, users in enumerate(self.user_sets):
            out[list(users)] = i
        return out


def select_aps_threshold(zeta: np.ndarray) -> np.ndarray:
    """Binary (M, K) selection: entry (m, k) = 1 when AP m is a candidate for user k.

    Keeps the links whose gain exceeds the mean over all M*K links.

    A user whose column ends up empty falls back to its single strongest
    AP (lowest index on ties) so that nobody is left unserved.
    """
    j = (zeta > zeta.mean()).astype(int)
    starved = np.flatnonzero(j.sum(axis=0) == 0)
    j[np.argmax(zeta[:, starved], axis=0), starved] = 1
    return j


def select_aps_topn(zeta: np.ndarray, n_s: int) -> np.ndarray:
    """Binary (M, K) selection of the n_s strongest APs per user (lowest AP index on ties)."""
    m = zeta.shape[0]
    if not 1 <= n_s <= m:
        raise ValueError(f"n_s must lie in [1, {m}], got {n_s}")
    j = np.zeros_like(zeta, dtype=int)
    np.put_along_axis(j, np.argsort(-zeta, axis=0, kind="stable")[:n_s], 1, axis=0)
    return j


def default_shared_ap_threshold(j: np.ndarray) -> int:
    """Default n_a: half the mean selected-AP count per user, rounded up."""
    per_user = j.sum(axis=0)
    return max(1, math.ceil(per_user.mean() / 2.0))


def _partition(user_sets, test_vectors, zeta: np.ndarray) -> ClusterPartition:
    """The partition of these user groups, with AP ownership resolved so AP sets are disjoint.

    An AP claimed by several test vectors goes to the cluster whose users
    it serves best (largest summed gain; lowest cluster index on ties).
    APs claimed by no test vector stay unassigned and transmit nothing.
    """
    # (N_c, M) summed gains of each cluster's users per AP, -inf where the cluster
    # does not claim the AP; argmax keeps the first, lowest, cluster of a tie
    claims = np.asarray(test_vectors, dtype=bool)
    scores = np.where(claims, [zeta[:, list(users)].sum(axis=1) for users in user_sets], -np.inf)
    owner = np.where(claims.any(axis=0), scores.argmax(axis=0), -1)
    return ClusterPartition(
        tuple(tuple(u) for u in user_sets),
        tuple(tuple(np.flatnonzero(owner == i).tolist()) for i in range(len(user_sets))),
        np.array(test_vectors, dtype=int),
    )


def design_clusters(j: np.ndarray, n_a: int, zeta: np.ndarray) -> ClusterPartition:
    """Greedy cluster formation from the selection matrix.

    User 0 seeds the first cluster with its own column as test vector.
    Each later user joins the first cluster (in creation order) with which
    it shares at least ``n_a`` candidate APs, refining that cluster's test
    vector by AND; otherwise it opens a new cluster.
    """
    if n_a < 1:
        raise ValueError(f"n_a must be at least 1, got {n_a}")
    k_total = j.shape[1]
    user_sets: list[list[int]] = [[0]]
    test_vectors: list[np.ndarray] = [j[:, 0].copy()]
    for k in range(1, k_total):
        joined = False
        for i, tv in enumerate(test_vectors):
            if int(j[:, k] @ tv) >= n_a:
                test_vectors[i] = tv * j[:, k]
                user_sets[i].append(k)
                joined = True
                break
        if not joined:
            user_sets.append([k])
            test_vectors.append(j[:, k].copy())
    return _partition(user_sets, test_vectors, zeta)


def design_clusters_fixed(j: np.ndarray, n_c: int, zeta: np.ndarray) -> ClusterPartition:
    """Cluster into exactly ``n_c`` groups.

    Seeds are the n_c users sharing the fewest candidate APs (greedy:
    least-overlapping pair first, then the user minimising its worst
    overlap with the chosen seeds).  Remaining users join the cluster of
    maximum overlap; new clusters are never opened.
    """
    k_total = j.shape[1]
    if not 1 <= n_c <= k_total:
        raise ValueError(f"n_c must lie in [1, {k_total}], got {n_c}")
    overlap = j.T @ j
    # the least-overlapping pair, lowest indices on ties (row-major argmin of the strict
    # upper triangle), then each time the user of least worst overlap with the seeds
    unused = overlap.max() + 1
    pairs = np.where(np.triu(np.ones((k_total, k_total), dtype=bool), 1), overlap, unused)
    seeds = [0] if n_c == 1 else list(divmod(int(pairs.argmin()), k_total))
    worst = overlap[:, seeds].max(axis=1)
    while len(seeds) < n_c:
        worst[seeds] = unused
        seeds.append(int(worst.argmin()))
        worst = np.maximum(worst, overlap[:, seeds[-1]])
    seeds = sorted(seeds[:n_c])

    user_sets: list[list[int]] = [[s] for s in seeds]
    test_vectors = j[:, seeds].T.copy()  # (n_c, M)
    for k in range(k_total):
        if k in seeds:
            continue
        shared = (test_vectors @ j[:, k]).tolist()
        # ties prefer the smaller cluster (then the lower index), which
        # keeps the partition balanced when selections are near-uniform
        i = min(range(len(shared)),
                key=lambda i: (-shared[i], len(user_sets[i]), i))
        user_sets[i].append(k)
        # A zero-overlap join would zero the test vector and strand the
        # cluster's APs; keep the previous vector in that case.
        if shared[i] > 0:
            test_vectors[i] = test_vectors[i] * j[:, k]
    return _partition([sorted(u) for u in user_sets], test_vectors, zeta)


def single_cluster(m: int, k: int) -> ClusterPartition:
    """Trivial partition: every user and every AP in one cluster."""
    return ClusterPartition(
        (tuple(range(k)),),
        (tuple(range(m)),),
        np.ones((1, m), dtype=int),
    )


def sparse_channel(g_hat: np.ndarray, partition: ClusterPartition) -> np.ndarray:
    """The (M, K) estimate kept where AP m serves user k's cluster, zero elsewhere;
    cluster i's reduced channel is its block on ``ap_sets[i]`` x ``user_sets[i]``."""
    g_bar = np.zeros_like(np.asarray(g_hat))
    for idx in partition.block_index:
        g_bar[idx] = g_hat[idx]
    return g_bar


def cluster_report(partition: ClusterPartition) -> list[dict]:
    """JSON-friendly summary of a partition."""
    return [
        {
            "cluster_index": i,
            "users": list(partition.user_sets[i]),
            "aps": list(partition.ap_sets[i]),
            "test_vector": [int(v) for v in partition.test_vectors[i]],
        }
        for i in range(partition.n_clusters)
    ]
