"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All sampling is seeded, so every run checks the identical instances.
"""

import itertools
import json
import math
import re

import numpy as np
import pytest

import protoqubo as pq
from protoqubo.cli import main
from protoqubo.qubo import _gamma


def report(cid, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {cid} {name}: {status}{suffix}")


def random_normalized_kernel(rng, n, allow_precomputed=False):
    roll = rng.random()
    if allow_precomputed and roll < 0.2:
        # correlation matrix: PSD with unit diagonal
        x = rng.normal(size=(n + 5, n))
        c = np.corrcoef(x, rowvar=False)
        return pq.KernelMatrix((c + c.T) / 2.0)
    data = pq.Dataset(rng.normal(size=(n, int(rng.integers(1, 5)))))
    h = float(rng.uniform(0.3, 5.0))
    spec = pq.RbfKernel(h) if roll < 0.6 else pq.LaplacianKernel(h)
    return pq.kernel_matrix(spec, data)


def feasible_indicators(n, k):
    combos = list(itertools.combinations(range(n), k))
    z = np.zeros((len(combos), n))
    for row, idx in enumerate(combos):
        z[row, list(idx)] = 1.0
    return z


def clustered_rbf_kernel(rng, n=3000, d=8):
    """RBF kernel (h = 2d) of n seeded points around six Gaussian centres in d dimensions."""
    centres = rng.normal(scale=3.0, size=(6, d))
    data = pq.Dataset(centres[rng.integers(0, 6, size=n)] + rng.normal(size=(n, d)))
    return pq.kernel_matrix(pq.RbfKernel(2.0 * d), data)


def test_criterion_1_qubo_matrix_identity():
    rng = np.random.default_rng(31337)
    worst = 0.0
    for t in range(200):
        n = int(rng.integers(2, 51))
        d = int(rng.integers(1, 6))
        data = pq.Dataset(rng.normal(size=(n, d)))
        h = float(rng.uniform(0.1, 10.0))
        spec = pq.RbfKernel(h) if t % 2 == 0 else pq.LaplacianKernel(h)
        K = pq.kernel_matrix(spec, data)
        k = int(rng.integers(1, n + 1))
        lam = float(rng.uniform(1.0, 100.0))
        if lam <= 1.0:
            lam = 1.0 + 1e-9
        rep = pq.verify_equivalence(K, k, lam, tolerance=1e-12)
        worst = max(worst, rep.max_abs_diff)
    ok = worst <= 1e-12
    report(1, "med/kde qubo matrix identity", ok, f"worst max_abs_diff={worst:.3e}")
    assert ok


@pytest.fixture(scope="module")
def kernel_3000():
    return clustered_rbf_kernel(np.random.default_rng(7))


ONE_ULP_AT_2LK = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 2: diagonal entries of the two folds land one ulp "
                        "apart at 2*lambda*k, and one ulp there exceeds 1e-12")


@pytest.mark.parametrize("k, lam", [
    (10, 2.0),
    (300, 2.0),
    pytest.param(50, 100.0, marks=ONE_ULP_AT_2LK),
    pytest.param(10, 1000.0, marks=ONE_ULP_AT_2LK),
])
def test_criterion_1_at_n_3000(kernel_3000, k, lam):
    rep = pq.verify_equivalence(kernel_3000, k, lam, tolerance=1e-12)
    report(1, f"med/kde qubo matrix identity at n=3000, k={k}, lambda={lam:g}", rep.passed,
           f"max_abs_diff={rep.max_abs_diff:.3e}")
    assert rep.passed


def test_criterion_2_constrained_objective_gap():
    rng = np.random.default_rng(202)
    worst_gap_dev = 0.0
    worst_argmin_dev = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        K = random_normalized_kernel(rng, n, allow_precomputed=True)
        k = int(rng.integers(1, n + 1))
        med = pq.build_med_qbp(pq.kernel_to_distance(K), 2.0 * k / n, k)
        kde = pq.build_kde_qbp(K, k)
        z = feasible_indicators(n, k)
        e_med = np.einsum("ij,jk,ik->i", z, med.quadratic, z) + z @ med.linear
        e_kde = np.einsum("ij,jk,ik->i", z, kde.quadratic, z) + z @ kde.linear
        worst_gap_dev = max(worst_gap_dev, np.abs((e_med - e_kde) - k**2).max())
        sel_med = pq.solve_constrained_exhaustive(med).best
        rep_kde = pq.solve_constrained_exhaustive(kde)
        worst_argmin_dev = max(
            worst_argmin_dev, abs(pq.qbp_energy(kde, sel_med) - rep_kde.objective)
        )
    ok = worst_gap_dev <= 1e-9 and worst_argmin_dev <= 1e-9
    report(2, "constrained objective gap k^2 and argmin transfer", ok,
           f"gap dev={worst_gap_dev:.3e}, argmin dev={worst_argmin_dev:.3e}")
    assert ok


def objective_gap_rounding_bound(n, k):
    """Bound on |qbp_energy(med) - qbp_energy(kde) - k^2| on a feasible z, for 0 <= K_ij <= 1.

    The programs are built from one kernel K with ``D = fl(1 - K)`` and
    ``gamma = fl(2k/n)``; ``u = 2**-53`` and ``g(m) = m*u / (1 - m*u)``.  With
    exact arithmetic, ``D = 1 - K`` and ``gamma = 2k/n``, the objectives on a
    selection S of k points are ``-P + gamma*V_D`` and ``W - gamma*V_K``, with
    P and W the sums of D and K over S x S and V_D and V_K the sums of their
    selected rows; ``P + W = k^2`` and ``V_D + V_K = k*n``, so they differ by
    exactly k^2.  Recursive summation (Higham, ch. 3-4): a sum of m terms, in
    any order, is within ``g(m)`` times the sum of the terms' magnitudes, and
    ``(1 + g(a))(1 + g(b)) <= 1 + g(a + b)``.  `qbp_energy` computes
    ``z @ A @ z + b @ z``, each term as its exact value times ``1 + t``:

    * P and W through the rounding of D (med only), two sums of n terms and
      the final addition, so ``|t| <= g(2n + 2)``;
    * gamma*V_D and gamma*V_K through the rounding of D, a row sum of n terms,
      the rounding of gamma, the product, the sum over z of n terms and the
      final addition, so ``|t| <= g(2n + 4)``.

    Every term is nonnegative, so the two energies are off by at most
    ``g(2n + 4)*(P + W + gamma*(V_D + V_K)) = 3k^2*g(2n + 4)`` together.  Their
    difference rounds once more, by at most ``u*(k^2 + 3k^2*g(2n + 4)) <=
    g(2)*k^2``, and subtracting k^2 from a value within a factor of 2 of it is
    exact (Sterbenz).  Hence ``k^2*(3*g(2n + 4) + g(2))``.
    """
    return k * k * (3.0 * _gamma(2 * n + 4) + _gamma(2))


def test_criterion_2_at_n_3000():
    # the k^2 objective gap on seeded feasible selections of the 3000-point
    # kernel of criterion 4, against the derived rounding bound
    rng = np.random.default_rng(404)
    n = 3000
    K = clustered_rbf_kernel(rng, n)
    D = pq.kernel_to_distance(K)
    ok, details = True, []
    for k in (10, 50, 300):
        med = pq.build_med_qbp(D, 2.0 * k / n, k)
        kde = pq.build_kde_qbp(K, k)
        bound = objective_gap_rounding_bound(n, k)
        worst = 0.0
        for _ in range(20):
            sel = pq.Selection.from_indices(n, rng.choice(n, size=k, replace=False))
            worst = max(worst, abs(pq.qbp_energy(med, sel) - pq.qbp_energy(kde, sel) - k**2))
        ok &= worst <= bound
        details.append(f"k={k}: worst dev={worst:.2e}, {worst / bound:.1e} of bound")
    report(2, "constrained objective gap k^2 at n=3000", ok, "; ".join(details))
    assert ok


def test_criterion_3_penalty_exactness():
    rng = np.random.default_rng(203)
    worst = 0.0
    all_feasible = True
    for _ in range(100):
        n = int(rng.integers(2, 15))
        k = int(rng.integers(1, n + 1))
        a = rng.normal(size=(n, n))
        p = pq.QbpInstance((a + a.T) / 2.0, rng.normal(size=n), k)
        rep_q = pq.solve_exhaustive(pq.qbp_to_qubo(p, pq.sufficient_penalty(p)))
        rep_c = pq.solve_constrained_exhaustive(p)
        all_feasible &= rep_q.best.size == k
        worst = max(worst, abs(pq.qbp_energy(p, rep_q.best) - rep_c.objective))
    ok = all_feasible and worst <= 1e-9
    report(3, "penalty fold solves the constrained program exactly", ok,
           f"all feasible={all_feasible}, worst objective dev={worst:.3e}")
    assert ok


def flip_rounding_bound(n, lam, row_abs):
    """Bound on how far a computed single-flip change of z^T Q z can sit above -1.

    ``Q`` folds a program (A, b, k) at ``lam = fl(1 + S)``, S = sum|A_ij| + sum|b_i|,
    and ``row_abs`` holds the computed ``R_i = sum_j |Q_ij|``; ``u = 2**-53``
    and ``g(m) = m*u / (1 - m*u)``.  Proof step of `sufficient_penalty`: for z
    with |z| = m != k, flipping a bit i toward k (adding one when m < k,
    removing one when m > k) changes the penalty ``lam*((m - k)**2 - k**2)`` by
    ``lam*(1 - 2|m - k|) <= -lam`` and the objective z^T A z + b^T z by at most
    ``S_i = |A_ii| + 2*sum_{j != i}|A_ij| + |b_i| <= S``, so its exact change
    is at most ``S - lam``.  numpy sums the n*n + n + 2 terms of lam, so
    ``lam >= (1 + S)*(1 - g(n*n + n + 2))`` and the exact change is at most
    ``-1 + g'*lam`` with ``g' = g(n*n + n + 2) / (1 - g(n*n + n + 2))``: the
    exact margin is at least 1 up to that rounding of lam.

    The test computes the change as ``Q_ii + 2*h_i`` (adding) or
    ``Q_ii - 2*h_i`` (removing), with ``h = Q z`` from a matrix product.
    Each stored entry is the correctly rounded A_ij + lam (or fold diagonal),
    off by at most u|Q_ij|, and the change weighs them by at most 2R_i in
    total: ``2u*R_i``.  The product h_i, a sum of at most n of row i's
    entries, is off by at most ``g(n)*R_i``, doubled: ``2g(n)*R_i``.  The final
    addition rounds a value of size at most ``(3 + 2g(n))*R_i``.  In all, the
    computed change is within ``(2g(n + 1) + g(5))*R_i`` of the exact one, and
    the computed R_i is at least ``(1 - g(n))`` times the exact one.
    So every computed change toward k is at most
    ``-1 + g'*lam + (2g(n + 1) + g(5))*R_i / (1 - g(n))``.
    """
    g_lam = _gamma(n * n + n + 2) / (1.0 - _gamma(n * n + n + 2))
    return -1.0 + g_lam * lam + (2.0 * _gamma(n + 1) + _gamma(5)) * row_abs / (1.0 - _gamma(n))


def test_criterion_3_at_n_3000():
    # the proof step of the sufficient penalty on a 3000-point kde program: from
    # seeded infeasible z, every single flip toward k lowers z^T Q z by about 1 or more
    rng = np.random.default_rng(303)
    n, k = 3000, 10
    p = pq.build_kde_qbp(clustered_rbf_kernel(rng, n), k)
    lam = pq.sufficient_penalty(p)
    Q = pq.qbp_to_qubo(p, lam).matrix
    sizes = [0, k - 1, k + 1, n]
    while len(sizes) < 20:
        m = int(rng.integers(0, n + 1))
        sizes += [m] if m != k else []
    Z = np.zeros((n, len(sizes)))
    for col, m in enumerate(sizes):
        Z[rng.choice(n, size=m, replace=False), col] = 1.0
    H = Q @ Z
    change = Q.diagonal()[:, None] + 2.0 * np.where(Z == 0.0, H, -H)
    toward_k = np.where(Z.sum(axis=0) < k, Z == 0.0, Z == 1.0)
    ceiling = flip_rounding_bound(n, lam, np.abs(Q).sum(axis=1))[:, None]
    ok = bool(np.all((change <= ceiling) | ~toward_k)) and ceiling.max() < 0.0
    worst = max(float(change[:, c][toward_k[:, c]].min()) for c in range(len(sizes)))
    report(3, "every flip toward k lowers the penalized objective at n=3000", ok,
           f"lambda={lam:.3e}, worst best flip={worst:.3e}, ceiling <= {ceiling.max():.3f}")
    assert ok


def test_criterion_4_scaled_mmd_matches_program_energy():
    rng = np.random.default_rng(204)
    worst = 0.0
    for _ in range(60):
        n = int(rng.integers(2, 13))
        K = random_normalized_kernel(rng, n)
        k = int(rng.integers(1, n + 1))
        p = pq.build_kde_qbp(K, k)
        const = (k / n) ** 2 * K.entries.sum()
        for idx in itertools.combinations(range(n), k):
            sel = pq.Selection.from_indices(n, idx)
            lhs = k**2 * pq.mmd_squared(K, sel).mmd_squared
            worst = max(worst, abs(lhs - (pq.qbp_energy(p, sel) + const)))
    ok = worst <= 1e-9
    report(4, "k^2-scaled mmd equals program energy plus constant", ok,
           f"worst dev={worst:.3e}")
    assert ok


def scaled_mmd_rounding_bound(n, k, W, V, T):
    """Bound on |k^2 * mmd_squared - (qbp_energy + (k/n)^2 * sum K)| for a nonnegative K.

    With the exact sums of the stored entries, W over selected pairs, V of the
    selected rows' sums and T of all entries, both sides equal
    ``W - (2k/n)*V + (k/n)^2*T``.  Recursive summation (Higham, ch. 3-4): a
    sum or dot product of m terms, in any order, is within ``g(m)`` times the
    sum of the terms' magnitudes, and ``(1 + g(a))(1 + g(b)) <= 1 + g(a + b)``.
    Each side computes each of the three terms as the exact term times
    ``1 + t``:

    * the W and V terms through two sums of at most n terms (a row or column
      sum, then its sum over the selection) and at most four single
      roundings (the coefficient 2k/n, the divisions or scalings, and the two
      additions), so ``|t| <= g(2n + 4)``;
    * the T term through one sum of n^2 entries and at most eight single
      roundings (k/n, its square counted as two, the division by n^2 or the
      product, the scaling by k^2 and the additions), so ``|t| <= g(n^2 + 8)``.

    The two sides therefore differ by at most
    ``2*(g(2n + 4)*(W + 2k*V/n) + g(n^2 + 8)*(k/n)^2*T)``.  The caller's W, V
    and T are numpy sums of the same nonnegative entries, each at least
    ``1 - g(n^2)`` times the exact one, so the bound divides by that factor.
    """
    per_pair = _gamma(2 * n + 4) * (W + 2.0 * k * V / n)
    grand = _gamma(n * n + 8) * (k / n) ** 2 * T
    return 2.0 * (per_pair + grand) / (1.0 - _gamma(n * n))


def test_criterion_4_at_n_3000():
    # scaled MMD = program energy + constant on seeded feasible selections of
    # a 3000-point kernel, against the derived rounding bound of both sides
    rng = np.random.default_rng(404)
    n = 3000
    K = clustered_rbf_kernel(rng, n)
    rows = K.entries.sum(axis=1)
    total = float(K.entries.sum())
    ok, details = True, []
    for k in (10, 50, 300):
        p = pq.build_kde_qbp(K, k)
        const = (k / n) ** 2 * total
        worst, worst_ratio = 0.0, 0.0
        for _ in range(20):
            idx = np.sort(rng.choice(n, size=k, replace=False))
            sel = pq.Selection.from_indices(n, idx)
            lhs = k**2 * pq.mmd_squared(K, sel).mmd_squared
            residual = abs(lhs - (pq.qbp_energy(p, sel) + const))
            W = float(K.entries[np.ix_(idx, idx)].sum())
            bound = scaled_mmd_rounding_bound(n, k, W, float(rows[idx].sum()), total)
            ok &= residual <= bound
            worst, worst_ratio = max(worst, residual), max(worst_ratio, residual / bound)
        details.append(f"k={k}: worst dev={worst:.2e}, {worst_ratio:.1e} of bound")
    report(4, "k^2-scaled mmd equals program energy plus constant at n=3000", ok,
           "; ".join(details))
    assert ok


def test_criterion_5_complement_distance_properties():
    rng = np.random.default_rng(205)
    worst = 0.0
    ok = True
    for _ in range(1000):
        d = int(rng.integers(1, 6))
        x, y = rng.normal(size=d), rng.normal(size=d)
        h = float(rng.uniform(0.1, 10.0))
        spec = pq.RbfKernel(h) if rng.random() < 0.5 else pq.LaplacianKernel(h)
        kxy = pq.eval_kernel(spec, x, y)
        dxy = 1.0 - kxy
        ok &= dxy >= 0.0
        ok &= dxy == 1.0 - pq.eval_kernel(spec, y, x)  # symmetric
        ok &= 1.0 - pq.eval_kernel(spec, x, x) == 0.0  # zero diagonal
        half_sq_feature = 0.5 * (2.0 - 2.0 * kxy)
        worst = max(worst, abs(dxy - half_sq_feature))
    ok = bool(ok) and worst <= 1e-12
    report(5, "complement distance is half the squared feature distance", ok,
           f"worst dev={worst:.3e}")
    assert ok


def test_criterion_6_welsch_identity():
    rng = np.random.default_rng(206)
    worst = 0.0
    for _ in range(20):
        n, d = int(rng.integers(2, 30)), int(rng.integers(1, 6))
        X = rng.normal(size=(n, d)) * float(rng.uniform(0.2, 2.0))
        D = pq.kernel_to_distance(pq.kernel_matrix(pq.RbfKernel(2.0), pq.Dataset(X)))
        for i in range(n):
            for j in range(n):
                sq = 0.0
                for t in range(d):
                    sq += (X[i, t] - X[j, t]) ** 2
                worst = max(worst, abs(D.entries[i, j] - (1.0 - math.exp(-sq / 2.0))))
    ok = worst <= 1e-15
    report(6, "rbf bandwidth-2 distance is the Welsch loss", ok, f"worst dev={worst:.3e}")
    assert ok


def test_criterion_7_lloyd_baseline():
    def medoid_set_scatter(D, medoids):
        return float(D.entries[:, medoids].min(axis=1).sum())

    def brute_force_scatter(D, k):
        return min(
            medoid_set_scatter(D, list(m)) for m in itertools.combinations(range(D.n), k)
        )

    rng = np.random.default_rng(207)
    monotone = True
    never_beats_global = True
    for trial in range(100):
        n = int(rng.integers(2, 11))
        D = pq.euclidean_distance_matrix(pq.Dataset(rng.normal(size=(n, 2))))
        k = int(rng.integers(1, n + 1))
        medoids = np.sort(rng.choice(n, size=k, replace=False))
        prev = medoid_set_scatter(D, medoids)
        for _ in range(60):
            _, medoids_next = pq.lloyd_iteration(D, medoids)
            cur = medoid_set_scatter(D, medoids_next)
            monotone &= cur <= prev + 1e-12
            prev = cur
            if np.array_equal(medoids_next, medoids):
                break
            medoids = medoids_next
        result = pq.lloyd_kmedoids(D, k, seed=trial)
        never_beats_global &= result.scatter >= brute_force_scatter(D, k) - 1e-12

    pairs = pq.euclidean_distance_matrix(
        pq.Dataset(np.array([[0.0], [1.0], [10.0], [11.0]]))
    )
    reaches_optimum = all(
        pq.lloyd_kmedoids(pairs, 2, seed=s).scatter == brute_force_scatter(pairs, 2)
        for s in range(20)
    )
    ok = monotone and never_beats_global and reaches_optimum
    report(7, "lloyd baseline descends and never beats brute force", ok,
           f"monotone={monotone}, bounded={never_beats_global}, two-cluster optimum={reaches_optimum}")
    assert ok


def test_criterion_8_sa_calibration():
    rng = np.random.default_rng(1234)
    hits = 0
    worst_gap = 0.0
    for i in range(100):
        a = rng.normal(size=(12, 12))
        q = pq.QuboInstance((a + a.T) / 2.0)
        opt = pq.solve_exhaustive(q).objective
        got = pq.solve_sa(q, seed=i).objective  # default schedule: 8 restarts
        if abs(got - opt) <= 1e-9:
            hits += 1
        else:
            worst_gap = max(worst_gap, (got - opt) / abs(opt))
    ok = hits >= 95 and worst_gap <= 0.05
    report(8, "sa matches exhaustive on random 12-var instances", ok,
           f"hits={hits}/100, worst relative gap={worst_gap:.3%}")
    assert ok


def test_criterion_9_cli_determinism_and_schema(tmp_path):
    rng = np.random.default_rng(209)
    pts = np.vstack([rng.normal(0, 0.4, (6, 2)), rng.normal(4, 0.4, (6, 2))])
    fixture = tmp_path / "fixture.csv"
    fixture.write_text("\n".join(f"{float(a)!r},{float(b)!r}" for a, b in pts) + "\n")

    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = ["select", "--input", str(fixture), "--kernel", "rbf:2.0", "--k", "2",
            "--formulation", "kde", "--solver", "sa", "--seed", "11"]
    code1 = main(argv + ["--output", str(out1)])
    code2 = main(argv + ["--output", str(out2)])

    def strip_wall_time(text):
        return re.sub(r'^\s*"wall_time_s": [^,\n]+,?\n', "", text, flags=re.M)

    identical = strip_wall_time(out1.read_text()) == strip_wall_time(out2.read_text())
    doc = json.loads(out1.read_text())
    schema_ok = set(doc) == {
        "selected_indices", "objective", "feasible", "mmd_squared",
        "within_scatter", "equivalence", "provenance",
    }

    verify_out = tmp_path / "verify.json"
    verify_code = main(["verify", "--input", str(fixture), "--kernel", "rbf:2.0",
                        "--k", "2", "--lambda", "2.0", "--tolerance", "1e-12",
                        "--output", str(verify_out)])
    verify_doc = json.loads(verify_out.read_text())
    diff = verify_doc["equivalence"]["max_abs_diff"]

    ok = (code1 == code2 == 0 and identical and schema_ok
          and verify_code == 0 and diff <= 1e-12)
    report(9, "cli determinism, schema, and verification", ok,
           f"identical={identical}, schema={schema_ok}, verify exit={verify_code}, "
           f"max_abs_diff={diff:.3e}")
    assert ok
