import numpy as np
import pytest

from rscf import clustering as clus
from rscf import harness
from rscf import precoding as prec


def rng(seed=0):
    return np.random.default_rng(seed)


class TestThresholdSelection:
    def test_single_dominant_entry(self):
        # hand instance: mean = 3.25, only the 10 lies above it
        zeta = np.array([[10.0, 1.0], [1.0, 1.0]])
        j = clus.select_aps_threshold(zeta)
        assert j[0, 0] == 1
        # the fallback keeps the starved users' strongest APs
        assert j[:, 1].sum() == 1 and j[np.argmax(zeta[:, 1]), 1] == 1

    def test_diagonal_dominant(self):
        zeta = np.array([[100.0, 1.0], [1.0, 100.0], [1.0, 1.0], [1.0, 1.0]])
        j = clus.select_aps_threshold(zeta)
        assert np.array_equal(j, np.array([[1, 0], [0, 1], [0, 0], [0, 0]]))

    def test_degenerate_equal_gains_fallback(self):
        j = clus.select_aps_threshold(np.ones((4, 3)))
        # raw rule selects nothing; each user keeps AP 0 (lowest-index tie break)
        assert np.array_equal(j, np.array([[1, 1, 1], [0, 0, 0], [0, 0, 0], [0, 0, 0]]))

    def test_scale_invariance(self):
        zeta = rng(1).lognormal(size=(8, 4))
        a = clus.select_aps_threshold(zeta)
        b = clus.select_aps_threshold(123.456 * zeta)
        assert np.array_equal(a, b)


class TestTopNSelection:
    def test_all_aps(self):
        zeta = rng(2).lognormal(size=(5, 3))
        assert np.all(clus.select_aps_topn(zeta, 5) == 1)

    def test_single_best(self):
        zeta = rng(3).lognormal(size=(5, 3))
        j = clus.select_aps_topn(zeta, 1)
        assert np.array_equal(j.sum(axis=0), [1, 1, 1])
        for k in range(3):
            assert j[np.argmax(zeta[:, k]), k] == 1

    def test_matches_sort_oracle(self):
        zeta = np.array([[3.0, 9.0], [5.0, 1.0], [4.0, 7.0]])
        j = clus.select_aps_topn(zeta, 2)
        for k in range(2):
            expected = sorted(np.argsort(-zeta[:, k])[:2])
            assert sorted(np.flatnonzero(j[:, k])) == expected

    def test_range_check(self):
        with pytest.raises(ValueError):
            clus.select_aps_topn(np.ones((4, 2)), 5)


class TestClusterDesign:
    def test_identical_users_merge(self):
        j = np.ones((8, 2), dtype=int)
        part = clus.design_clusters(j, 4, np.ones((8, 2)))
        assert part.user_sets == ((0, 1),)
        assert np.all(part.test_vectors == 1)

    def test_disjoint_support_splits(self):
        j = np.array([[1, 0], [1, 0], [0, 1], [0, 1]])
        part = clus.design_clusters(j, 1, np.ones((4, 2)))
        assert part.user_sets == ((0,), (1,))

    def test_hand_trace(self):
        # users 1,2 share two APs (join), user 3 has none in common with the
        # refined test vector (new cluster)
        j = np.array([[1, 1, 0], [1, 1, 0], [0, 1, 1], [0, 0, 1]])
        part = clus.design_clusters(j, 2, np.ones((4, 3)))
        assert part.user_sets == ((0, 1), (2,))
        assert np.array_equal(part.test_vectors[0], [1, 1, 0, 0])
        assert np.array_equal(part.test_vectors[1], [0, 0, 1, 1])

    def test_test_vector_is_and_of_members(self):
        for seed in range(50):
            zeta = rng(seed).lognormal(sigma=1.8, size=(8, 4))
            sel = clus.select_aps_threshold(zeta)
            part = clus.design_clusters(sel, 1, zeta)
            for users, tv in zip(part.user_sets, part.test_vectors):
                expected = np.ones(8, dtype=int)
                for u in users:
                    expected *= sel[:, u]
                assert np.array_equal(tv, expected)

    def test_partition_invariants_randomized(self):
        for seed in range(200):
            zeta = rng(seed).lognormal(sigma=1.8, size=(8, 4))
            sel = clus.select_aps_threshold(zeta)
            n_a = clus.default_shared_ap_threshold(sel)
            part = clus.design_clusters(sel, n_a, zeta)
            users = sorted(u for s in part.user_sets for u in s)
            assert users == [0, 1, 2, 3]
            aps = [a for s in part.ap_sets for a in s]
            assert len(aps) == len(set(aps))
            # APs are only assigned to clusters whose test vector claims them
            for ap_set, tv in zip(part.ap_sets, part.test_vectors):
                assert all(tv[m] == 1 for m in ap_set)
            # multi-user clusters keep at least n_a shared APs in the vector
            for users, tv in zip(part.user_sets, part.test_vectors):
                if len(users) >= 2:
                    assert tv.sum() >= n_a

    def test_deterministic_replay(self):
        zeta = rng(9).lognormal(size=(8, 4))
        sel = clus.select_aps_threshold(zeta)
        a = clus.design_clusters(sel, 2, zeta)
        b = clus.design_clusters(sel, 2, zeta)
        assert a.user_sets == b.user_sets and a.ap_sets == b.ap_sets
        assert np.array_equal(a.test_vectors, b.test_vectors)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            clus.design_clusters(np.ones((4, 2), dtype=int), 0, np.ones((4, 2)))

    def test_matches_reference_implementation(self):
        # independent slow re-implementation of the greedy grouping; every
        # join is also re-checked against the shared-AP threshold
        def reference(j, n_a):
            clusters = [[0]]
            vectors = [list(j[:, 0])]
            joins = []
            for k in range(1, j.shape[1]):
                placed = False
                for i in range(len(clusters)):
                    shared = sum(a * b for a, b in zip(j[:, k], vectors[i]))
                    if shared >= n_a:
                        joins.append((k, i, shared))
                        vectors[i] = [a * b for a, b in zip(j[:, k], vectors[i])]
                        clusters[i].append(k)
                        placed = True
                        break
                if not placed:
                    clusters.append([k])
                    vectors.append(list(j[:, k]))
            return clusters, vectors, joins

        for seed in range(100):
            zeta = rng(seed).lognormal(sigma=1.8, size=(8, 4))
            sel = clus.select_aps_threshold(zeta)
            for n_a in (1, 2, 3):
                part = clus.design_clusters(sel, n_a, zeta)
                clusters, vectors, joins = reference(sel, n_a)
                assert part.user_sets == tuple(tuple(c) for c in clusters)
                assert np.array_equal(part.test_vectors, np.array(vectors))
                for _, _, shared in joins:
                    assert shared >= n_a


class TestFixedClusterDesign:
    def test_every_user_own_cluster(self):
        zeta = rng(4).lognormal(size=(8, 4))
        sel = clus.select_aps_threshold(zeta)
        part = clus.design_clusters_fixed(sel, 4, zeta)
        assert part.user_sets == ((0,), (1,), (2,), (3,))

    def test_single_cluster(self):
        zeta = rng(5).lognormal(size=(8, 4))
        sel = clus.select_aps_threshold(zeta)
        part = clus.design_clusters_fixed(sel, 1, zeta)
        assert part.user_sets == ((0, 1, 2, 3),)

    def test_seeding_matches_bruteforce(self):
        # seeds {0, 2} share no APs; user 1 joins user 0 (overlap 2 beats 1)
        j = np.array([[1, 1, 0], [1, 1, 0], [0, 1, 1], [0, 0, 1]])
        part = clus.design_clusters_fixed(j, 2, np.ones((4, 3)))
        overlap = j.T @ j
        pairs = [(overlap[a, b], a, b) for a in range(3) for b in range(a + 1, 3)]
        assert min(pairs)[1:] == (0, 2)
        assert part.user_sets == ((0, 1), (2,))

    def test_cluster_count_respected(self):
        for seed in range(50):
            zeta = rng(seed).lognormal(sigma=1.8, size=(8, 4))
            sel = clus.select_aps_topn(zeta, 8)
            part = clus.design_clusters_fixed(sel, 2, zeta)
            assert part.n_clusters == 2
            users = sorted(u for s in part.user_sets for u in s)
            assert users == [0, 1, 2, 3]

    def test_rejects_too_many_clusters(self):
        with pytest.raises(ValueError):
            clus.design_clusters_fixed(np.ones((8, 4), dtype=int), 5, np.ones((8, 4)))


class TestSparseChannel:
    def test_full_coverage_recovers_estimate(self):
        g_hat = rng(6).normal(size=(8, 4)) + 1j * rng(7).normal(size=(8, 4))
        part = clus.single_cluster(8, 4)
        assert np.array_equal(clus.sparse_channel(g_hat, part), g_hat)

    def test_masking_pattern(self):
        g_hat = np.ones((4, 3), dtype=complex)
        part = clus.ClusterPartition(((0, 1), (2,)), ((0, 1), (3,)),
                                     np.array([[1, 1, 0, 0], [0, 0, 0, 1]]))
        g_bar = clus.sparse_channel(g_hat, part)
        expected = np.zeros((4, 3), dtype=complex)
        expected[np.ix_([0, 1], [0, 1])] = 1.0
        expected[3, 2] = 1.0
        assert np.array_equal(g_bar, expected)
        # AP 2 serves nobody: its row stays zero
        assert np.all(g_bar[2] == 0)

    def test_reduced_rows_are_user_rows(self):
        # each cluster's block holds its users' estimates on its APs, and the
        # masked channel is zero wherever no cluster pairs the AP and the user
        g_hat = rng(8).normal(size=(6, 4)) + 1j * rng(9).normal(size=(6, 4))
        zeta = rng(10).lognormal(size=(6, 4))
        sel = clus.select_aps_topn(zeta, 3)
        part = clus.design_clusters(sel, 1, zeta)
        g_bar = clus.sparse_channel(g_hat, part)
        covered = np.zeros(g_bar.shape, dtype=bool)
        for users, aps in zip(part.user_sets, part.ap_sets):
            idx = np.ix_(list(aps), list(users))
            assert np.array_equal(g_bar[idx], g_hat[idx])
            covered[idx] = True
        assert np.all(g_bar[~covered] == 0)


def test_cluster_report_schema():
    zeta = rng(11).lognormal(size=(8, 4))
    sel = clus.select_aps_threshold(zeta)
    part = clus.design_clusters(sel, 1, zeta)
    report = clus.cluster_report(part)
    assert len(report) == part.n_clusters
    for i, entry in enumerate(report):
        assert set(entry) == {"cluster_index", "users", "aps", "test_vector"}
        assert entry["cluster_index"] == i
        assert len(entry["test_vector"]) == 8


def test_cluster_of_equals_cluster_of_users(monkeypatch):
    zeta = rng(12).lognormal(size=(12, 6))
    sel = clus.select_aps_threshold(zeta)
    synthetic = []  # the partition the complexity check builds, caught at its cost count
    monkeypatch.setattr(prec, "flop_estimate", lambda part, *args: synthetic.append(part) or 1.0)
    harness._synthetic_flops_per_ap(32, 16, cluster_size=4)
    auto = clus.design_clusters(sel, 2, zeta)
    assert auto.n_clusters > 1 and synthetic[0].n_clusters == 4
    for part, k in ((clus.design_clusters_fixed(sel, 3, zeta), 6), (auto, 6),
                    (clus.single_cluster(12, 6), 6), (synthetic[0], 16)):
        assert np.array_equal(part.cluster_of, part.cluster_of_users(k))
        # built once, and shared read-only by every reader of the partition
        assert part.cluster_of is part.cluster_of and not part.cluster_of.flags.writeable


# ---------------------------------------------------------------------------
# Differential check of the array rules against their former per-AP and per-user loops
# ---------------------------------------------------------------------------

def loop_select_aps_topn(zeta, n_s):
    j = np.zeros_like(zeta, dtype=int)
    for k in range(zeta.shape[1]):
        order = np.argsort(-zeta[:, k], kind="stable")
        j[order[:n_s], k] = 1
    return j


def loop_select_aps_threshold(zeta):
    j = (zeta > zeta.mean()).astype(int)
    for k in np.flatnonzero(j.sum(axis=0) == 0):
        j[int(np.argmax(zeta[:, k])), k] = 1
    return j


def loop_assign_aps(test_vectors, user_sets, zeta):
    ap_sets = [[] for _ in user_sets]
    for m in range(zeta.shape[0]):
        claimants = [i for i, tv in enumerate(test_vectors) if tv[m]]
        if not claimants:
            continue
        scores = [float(zeta[m, list(user_sets[i])].sum()) for i in claimants]
        ap_sets[claimants[int(np.argmax(scores))]].append(m)
    return tuple(tuple(a) for a in ap_sets)


def loop_design_clusters(j, n_a, zeta):
    user_sets, test_vectors = [[0]], [j[:, 0].copy()]
    for k in range(1, j.shape[1]):
        for i, tv in enumerate(test_vectors):
            if int(j[:, k] @ tv) >= n_a:
                test_vectors[i] = tv * j[:, k]
                user_sets[i].append(k)
                break
        else:
            user_sets.append([k])
            test_vectors.append(j[:, k].copy())
    return clus.ClusterPartition(tuple(tuple(u) for u in user_sets),
                                 loop_assign_aps(test_vectors, user_sets, zeta),
                                 np.array(test_vectors, dtype=int))


def loop_design_clusters_fixed(j, n_c, zeta):
    k_total = j.shape[1]
    overlap = j.T @ j
    if n_c == 1:
        seeds = [0]
    else:
        pairs = [(int(overlap[a, b]), a, b)
                 for a in range(k_total) for b in range(a + 1, k_total)]
        _, a, b = min(pairs)
        seeds = [a, b]
        while len(seeds) < n_c:
            rest = [u for u in range(k_total) if u not in seeds]
            u = min(rest, key=lambda u: (max(int(overlap[u, s]) for s in seeds), u))
            seeds.append(u)
    seeds = sorted(seeds[:n_c])
    user_sets = [[s] for s in seeds]
    test_vectors = [j[:, s].copy() for s in seeds]
    for k in range(k_total):
        if k in seeds:
            continue
        shared = [int(j[:, k] @ tv) for tv in test_vectors]
        i = min(range(len(shared)), key=lambda i: (-shared[i], len(user_sets[i]), i))
        user_sets[i].append(k)
        if shared[i] > 0:
            test_vectors[i] = test_vectors[i] * j[:, k]
    user_sets = [sorted(u) for u in user_sets]
    return clus.ClusterPartition(tuple(tuple(u) for u in user_sets),
                                 loop_assign_aps(test_vectors, user_sets, zeta),
                                 np.array(test_vectors, dtype=int))


def differential_gains():
    """(gains, n_s, n_c) cases: lognormal and tie-heavy integer gains at M/K = 8/4, 16/8
    and 64/16, 350 per size, cycling through every n_s in 1..M and n_c in 1..K."""
    for m, k in ((8, 4), (16, 8), (64, 16)):
        g = rng(m * 100 + k)
        for case in range(350):
            if case % 2:
                zeta = g.integers(1, 4, size=(m, k)).astype(float)
            else:
                zeta = g.lognormal(sigma=1.8, size=(m, k))
            yield zeta, 1 + case % m, 1 + case % k


def assert_same_partition(got, want):
    assert got.user_sets == want.user_sets and got.ap_sets == want.ap_sets
    assert all(type(i) is int for sets in (got.user_sets, got.ap_sets)
               for group in sets for i in group)
    assert got.test_vectors.dtype == want.test_vectors.dtype
    assert np.array_equal(got.test_vectors, want.test_vectors)


def test_array_rules_equal_their_loops():
    cases = 0
    for zeta, n_s, n_c in differential_gains():
        for select, loop_select in ((lambda z: clus.select_aps_topn(z, n_s),
                                     lambda z: loop_select_aps_topn(z, n_s)),
                                    (clus.select_aps_threshold, loop_select_aps_threshold)):
            j = loop_select(zeta)
            got = select(zeta)
            assert got.dtype == j.dtype and np.array_equal(got, j)
            assert_same_partition(clus.design_clusters_fixed(j, n_c, zeta),
                                  loop_design_clusters_fixed(j, n_c, zeta))
            n_a = clus.default_shared_ap_threshold(j)
            assert_same_partition(clus.design_clusters(j, n_a, zeta),
                                  loop_design_clusters(j, n_a, zeta))
            cases += 1
    assert cases == 2 * 3 * 350


def test_threshold_fallback_and_ties_are_exercised():
    # the differential cases reach the starved-user fallback, ties in the top-n sort, and
    # APs that several test vectors claim
    starved = tied = contested = 0
    for zeta, n_s, _ in differential_gains():
        starved += int(((zeta > zeta.mean()).sum(axis=0) == 0).any())
        column = np.sort(zeta, axis=0)[::-1]
        tied += int((column[n_s - 1] == column[min(n_s, len(column) - 1)]).any()
                    and n_s < len(column))
        j = clus.select_aps_topn(zeta, n_s)
        part = loop_design_clusters(j, clus.default_shared_ap_threshold(j), zeta)
        contested += int((part.test_vectors.sum(axis=0) > 1).any())
    assert starved > 50 and tied > 50 and contested > 50


def test_partitions_hold_python_ints_for_json():
    import json
    zeta = rng(12).integers(1, 4, size=(16, 8)).astype(float)
    for part in (clus.design_clusters_fixed(clus.select_aps_topn(zeta, 5), 3, zeta),
                 clus.design_clusters(clus.select_aps_threshold(zeta), 1, zeta)):
        json.dumps(clus.cluster_report(part))
        json.dumps([part.user_sets, part.ap_sets])
