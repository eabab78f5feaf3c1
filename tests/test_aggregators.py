"""Aggregators vs. independent brute-force oracles.

The oracles below are deliberately written from the rule definitions with
plain Python lists/sorts, sharing no code with rgcf.aggregators.
"""

import numpy as np
import pytest

from rgcf.aggregators import (
    SORT_BLOCK,
    AggregatorSpec,
    _krum_scores,
    _squared_distances,
    agg_bulyan,
    agg_coord_median,
    agg_krum,
    agg_mean,
    agg_trimmed_mean,
    aggregate,
)
from tests.conftest import rng


def oracle_krum_scores(vectors, f):
    n = len(vectors)
    k = max(0, min(n - f - 2, n - 1))
    scores = []
    for i in range(n):
        dists = sorted(
            sum((a - b) ** 2 for a, b in zip(vectors[i], vectors[j]))
            for j in range(n)
            if j != i
        )
        scores.append(sum(dists[:k]))
    return scores


def oracle_krum(vectors, f):
    scores = oracle_krum_scores(vectors, f)
    best = min(range(len(vectors)), key=lambda i: (scores[i], i))
    return best


def oracle_median_1d(values):
    s = sorted(values)
    n = len(s)
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2


def oracle_coord_median(vectors):
    d = len(vectors[0])
    return [oracle_median_1d([v[c] for v in vectors]) for c in range(d)]


def oracle_trimmed_mean(vectors, f):
    d = len(vectors[0])
    out = []
    for c in range(d):
        s = sorted(v[c] for v in vectors)
        kept = s[f : len(s) - f] if f else s
        out.append(sum(kept) / len(kept))
    return out


def oracle_bulyan(vectors, f):
    n = len(vectors)
    theta = n - 2 * f
    pool = list(range(n))
    selected = []
    while len(selected) < theta:
        scores = oracle_krum_scores([vectors[i] for i in pool], f)
        best = min(range(len(pool)), key=lambda i: (scores[i], i))
        selected.append(pool.pop(best))
    beta = theta - 2 * f
    d = len(vectors[0])
    out = []
    for c in range(d):
        col = [vectors[i][c] for i in selected]
        med = oracle_median_1d(col)
        closest = sorted(range(len(col)), key=lambda i: abs(col[i] - med))[:beta]
        out.append(sum(col[i] for i in closest) / beta)
    return out


def random_instance(r):
    n = int(r.integers(3, 9))
    d = int(r.integers(1, 5))
    grads = [r.standard_normal(d) for _ in range(n)]
    if r.random() < 0.3:  # force exact ties sometimes
        grads[1] = grads[0].copy()
    return n, d, grads


class TestAgainstOracles:
    def test_krum_200_instances(self):
        r = rng(100)
        for _ in range(200):
            n, _d, grads = random_instance(r)
            f = int(r.integers(0, n - 2))
            idx, vec = agg_krum(grads, f)
            assert idx == oracle_krum([list(g) for g in grads], f)
            assert vec is grads[idx]

    def test_coord_median_200_instances(self):
        r = rng(101)
        for _ in range(200):
            _n, _d, grads = random_instance(r)
            out = agg_coord_median(grads)
            assert np.abs(out - np.array(oracle_coord_median([list(g) for g in grads]))).max() <= 1e-12

    def test_trimmed_mean_200_instances(self):
        r = rng(102)
        for _ in range(200):
            n, _d, grads = random_instance(r)
            f = int(r.integers(0, (n - 1) // 2 + 1))
            out = agg_trimmed_mean(grads, f)
            assert np.abs(out - np.array(oracle_trimmed_mean([list(g) for g in grads], f))).max() <= 1e-12

    def test_bulyan_200_instances(self):
        r = rng(103)
        count = 0
        while count < 200:
            n, _d, grads = random_instance(r)
            f_max = (n - 3) // 4
            if f_max < 0:
                continue
            f = int(r.integers(0, f_max + 1))
            out = agg_bulyan(grads, f)
            assert np.abs(out - np.array(oracle_bulyan([list(g) for g in grads], f))).max() <= 1e-12
            count += 1


def textbook_distances(g):
    p = len(g)
    dist2 = np.zeros((p, p))
    for i in range(p):
        for j in range(i + 1, p):
            diff = g[i] - g[j]
            dist2[i, j] = dist2[j, i] = float(diff @ diff)
    return dist2


def textbook_krum_scores(dist2, f):
    """Krum scores as first written: per row, delete the diagonal, sort,
    and sum the n - f - 2 smallest."""
    p = len(dist2)
    k = max(0, min(p - f - 2, p - 1))
    return np.array([np.sort(np.delete(dist2[i], i))[:k].sum() for i in range(p)])


def textbook_bulyan(grads, f):
    """Bulyan as first written: every selection round recomputes the
    pairwise distances of the remaining pool and scores it with Krum, in
    the same floating-point operations as the rule."""
    g = np.stack(grads)
    pool = list(range(len(grads)))
    selected = []
    while len(selected) < len(grads) - 2 * f:
        scores = textbook_krum_scores(textbook_distances(g[pool]), f)
        selected.append(pool.pop(int(np.argmin(scores))))
    sel = g[selected]
    beta = len(selected) - 2 * f
    order = np.argsort(np.abs(sel - np.median(sel, axis=0)), axis=0, kind="stable")[:beta]
    return np.take_along_axis(sel, order, axis=0).mean(axis=0)


def per_round_inputs(n, f, outliers):
    r = rng(104)
    for _ in range(5):
        grads = [r.standard_normal(40) for _ in range(n)]
        grads[3] = grads[1].copy()  # an exact tie
        if outliers:
            for i in range(f):
                grads[-1 - i] = 30.0 * r.standard_normal(40)
        yield grads
    yield [np.full(40, 0.25)] * n  # every distance is zero
    grads = [r.standard_normal(40) for _ in range(n)]
    grads[2], grads[5] = grads[0].copy(), grads[4].copy()  # two duplicate pairs
    yield grads
    grads = [r.standard_normal(40) for _ in range(n)]
    grads[n // 2] = np.full(40, 1e200)  # its squared distances overflow to inf
    yield grads


@pytest.mark.parametrize("outliers", [True, False])
@pytest.mark.parametrize("n,f", [(7, 1), (11, 1), (11, 2), (15, 1), (15, 2), (15, 3)])
def test_bulyan_equals_per_round_recomputation(n, f, outliers):
    # distances computed once and sliced per round select the same vectors
    # and give the same output, bit for bit; Krum's one-sort scores equal
    # the per-row ones, bit for bit
    for grads in per_round_inputs(n, f, outliers):
        with np.errstate(over="ignore"):
            assert np.array_equal(agg_bulyan(grads, f), textbook_bulyan(grads, f))
            g = np.stack(grads)
            scores = textbook_krum_scores(textbook_distances(g), f)
            assert np.array_equal(_krum_scores(_squared_distances(g), f), scores)
            assert agg_krum(grads, f)[0] == int(np.argmin(scores))


def median_cases():
    """n in 1..13 at random d, rounded to halves so columns hold ties, with
    +-inf, NaN, -0.0 and an all-equal first column mixed in."""
    r = rng(105)
    for _ in range(1000):
        n, d = int(r.integers(1, 14)), int(r.integers(1, 40))
        g = np.round(2 * r.standard_normal((n, d))) / 2
        u = r.random((n, d))
        g[u < 0.05] = np.inf
        g[(u >= 0.05) & (u < 0.1)] = -np.inf
        g[(u >= 0.1) & (u < 0.13)] = np.nan
        g[(u >= 0.13) & (u < 0.2)] = -0.0
        g[:, 0] = g[0, 0]
        yield g


def test_coord_median_equals_np_median():
    # the median from one column sort has np.median's values and NaN
    # positions; where the bits differ, both are zeros of opposite sign
    with np.errstate(invalid="ignore"):
        for g in median_cases():
            got, want = agg_coord_median(g), np.median(g, axis=0)
            assert np.array_equal(np.isnan(got), np.isnan(want))
            num = ~np.isnan(want)
            assert (got[num] == want[num]).all()
            differ = num & (got.view(np.uint64) != want.view(np.uint64))
            assert (want[differ] == 0).all()
            assert (np.signbit(got[differ]) != np.signbit(want[differ])).all()


def assert_same_bits(got, want):
    """The same bits, but that a zero may have the other sign and a NaN
    another payload."""
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    differ = ~np.isnan(want) & (got.view(np.uint64) != want.view(np.uint64))
    assert (got[differ] == 0).all() and (want[differ] == 0).all()


def wide_cases():
    """n in {40, 100, 400} at a d that is no multiple of the sort's block,
    with the ties, infinities, NaNs and zeros of median_cases."""
    r = rng(106)
    d = 2 * SORT_BLOCK + 37
    for n in (40, 100, 400):
        g = np.round(2 * r.standard_normal((n, d))) / 2
        u = r.random((n, d))
        g[u < 0.02] = np.inf
        g[(u >= 0.02) & (u < 0.04)] = -np.inf
        g[(u >= 0.04) & (u < 0.05)] = np.nan
        g[(u >= 0.05) & (u < 0.15)] = -0.0
        g[:, :3] = r.standard_normal(3)  # columns without a NaN
        yield g


def test_trimmed_mean_equals_np_sort_trim():
    # the sorting network's trimmed mean is the sorted rows f..n-f-1 added
    # in order and divided by n-2f, as numpy's sort-and-mean, at every f
    # for n up to 13 and at three f for the wide n
    with np.errstate(invalid="ignore"):
        for g in [*median_cases(), *wide_cases()]:
            n = g.shape[0]
            for f in range(1, (n + 1) // 2) if n < 40 else (1, n // 4, (n - 1) // 2):
                assert_same_bits(agg_trimmed_mean(g, f), np.sort(g, axis=0)[f : n - f].mean(axis=0))


def test_wide_median_equals_np_median():
    with np.errstate(invalid="ignore"):
        for g in wide_cases():
            assert_same_bits(agg_coord_median(g), np.median(g, axis=0))


def test_mean_equals_np_stack_mean():
    # the mean added row by row onto zeros has the bits of numpy's axis-0
    # mean of the stacked rows, zero signs included, for a list or an
    # array, at every d >= 2 (at d=1 numpy sums the column pairwise instead)
    r = rng(64)
    cases = [r.standard_normal((n, d)) for n in (*range(1, 42, 4), 100, 400) for d in (2, 3, 17, 33)]
    with np.errstate(invalid="ignore"):
        for g in [*cases, *(g for g in median_cases() if g.shape[1] >= 2)]:
            want = np.stack(list(g)).mean(axis=0).tobytes()
            assert agg_mean(g).tobytes() == agg_mean(list(g)).tobytes() == want


@pytest.mark.parametrize("kind", ["median", "trimmed_mean"])
def test_sorted_columns_read_every_row_layout_alike(kind):
    # a list of rows, a C array, a Fortran array, a strided view and float32
    # rows (converted to float64 first) give one output, bit for bit
    r = rng(62)
    g = r.standard_normal((11, SORT_BLOCK + 5)).astype(np.float32).astype(np.float64)
    wide = np.zeros((11, 2 * g.shape[1]))
    wide[:, ::2] = g
    spec = AggregatorSpec(kind, 0 if kind == "median" else 3)
    want = aggregate(spec, g).tobytes()
    layouts = [list(g.copy()), np.asfortranarray(g), wide[:, ::2], list(wide[:, ::2]), list(g.astype(np.float32))]
    for grads in layouts:
        assert aggregate(spec, grads).tobytes() == want


def test_bulyan_closeness_keys_ignore_the_median_zero_sign():
    # a median of either zero sign gives |sel - med| the same bits, so the
    # sign the network leaves on a zero median never reaches Bulyan
    r = rng(63)
    sel = r.choice([0.0, -0.0, 1.5, -1.5, np.inf, -np.inf], size=(8, 60))
    assert np.abs(sel - 0.0).tobytes() == np.abs(sel - -0.0).tobytes()


class TestHandCases:
    def test_krum_tie_breaks_to_lowest_index(self):
        g = [np.array([1.0, 1.0])] * 4
        idx, _vec = agg_krum(g, 0)
        assert idx == 0

    def test_krum_picks_cluster_member(self):
        g = [np.array([0.0]), np.array([0.1]), np.array([0.05]), np.array([100.0])]
        idx, _ = agg_krum(g, 1)
        assert idx in (0, 1, 2)

    def test_median_even_n_averages_middles(self):
        g = [np.array([1.0]), np.array([2.0]), np.array([10.0]), np.array([20.0])]
        assert agg_coord_median(g)[0] == 6.0

    def test_trimmed_mean_hand(self):
        g = [np.array([0.0, 5.0]), np.array([1.0, 6.0]), np.array([2.0, 7.0]), np.array([100.0, -50.0])]
        assert np.array_equal(agg_trimmed_mean(g, 1), [1.5, 5.5])

    def test_trimmed_mean_f0_is_mean(self):
        g = [np.array([1.0]), np.array([3.0])]
        assert agg_trimmed_mean(g, 0)[0] == 2.0

    def test_mean(self):
        g = [np.array([1.0, 0.0]), np.array([3.0, 2.0])]
        assert np.array_equal(agg_mean(g), [2.0, 1.0])

    def test_bulyan_all_identical(self):
        g = [np.array([2.0, -1.0])] * 7
        assert np.array_equal(agg_bulyan(g, 1), [2.0, -1.0])

    def test_bulyan_rejects_outlier(self):
        r = rng(55)
        g = [np.array([1.0]) + 0.01 * r.standard_normal(1) for _ in range(6)]
        g.append(np.array([1000.0]))
        out = agg_bulyan(g, 1)
        assert abs(out[0] - 1.0) < 0.1


class TestPreconditions:
    def test_krum_needs_f_plus_3(self):
        with pytest.raises(ValueError, match=r"krum at n=4 accepts f_count <= 1, got 2"):
            agg_krum([np.zeros(1)] * 4, 2)

    def test_trimmed_mean_needs_survivors(self):
        with pytest.raises(ValueError, match=r"trimmed_mean at n=4 accepts f_count <= 1, got 2"):
            agg_trimmed_mean([np.zeros(1)] * 4, 2)

    def test_bulyan_needs_4f_plus_3(self):
        with pytest.raises(ValueError, match=r"bulyan at n=6 accepts f_count <= 0, got 1"):
            agg_bulyan([np.zeros(1)] * 6, 1)

    def test_spec_checks(self):
        with pytest.raises(ValueError, match=r"bulyan at n=10 accepts f_count <= 1, got 2"):
            AggregatorSpec("bulyan", 2).check_preconditions(10)
        AggregatorSpec("bulyan", 1).check_preconditions(7)
        with pytest.raises(ValueError):
            AggregatorSpec("geometric_median")
        with pytest.raises(ValueError):
            AggregatorSpec("krum", -1)


@pytest.mark.parametrize("kind", ["mean", "krum", "median", "trimmed_mean", "bulyan"])
class TestInputValidation:
    def test_empty(self, kind):
        with pytest.raises(ValueError, match="no gradients to aggregate"):
            aggregate(AggregatorSpec(kind), [])

    def test_ragged(self, kind):
        grads = [np.zeros(2)] * 6 + [np.zeros(3)]
        with pytest.raises(ValueError, match="length mismatch: expected 2, got 3"):
            aggregate(AggregatorSpec(kind, 1), grads)


def test_aggregate_dispatch_matches_direct():
    r = rng(60)
    grads = [r.standard_normal(3) for _ in range(7)]
    assert np.array_equal(aggregate(AggregatorSpec("mean"), grads), agg_mean(grads))
    assert np.array_equal(aggregate(AggregatorSpec("krum", 1), grads), agg_krum(grads, 1)[1])
    assert np.array_equal(aggregate(AggregatorSpec("median"), grads), agg_coord_median(grads))
    assert np.array_equal(aggregate(AggregatorSpec("trimmed_mean", 2), grads), agg_trimmed_mean(grads, 2))
    assert np.array_equal(aggregate(AggregatorSpec("bulyan", 1), grads), agg_bulyan(grads, 1))


@pytest.mark.parametrize("kind", ["mean", "krum", "median", "trimmed_mean", "bulyan"])
def test_array_input_equals_list_of_rows(kind):
    # a read-only (n, d) array is aggregated as it is, to the bytes of the
    # list of its rows, and neither input is written to
    r = rng(61)
    g = r.standard_normal((11, 40))
    g[:, :5] = r.choice([0.0, -0.0, 1.0, -1.0], size=(11, 5))
    g[3] = g[7]
    g.flags.writeable = False
    before = g.tobytes()
    rows = [row.copy() for row in g]
    spec = AggregatorSpec(kind, 0 if kind in ("mean", "median") else 2)
    assert aggregate(spec, g).tobytes() == aggregate(spec, rows).tobytes()
    assert g.tobytes() == before
    assert np.stack(rows).tobytes() == before
