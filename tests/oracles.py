"""Independent reference implementations used to cross-check the library.

Everything here is written with plain loops on top of the ``math`` module so
that it shares no code path with the package: the special functions are a
recurrence-plus-asymptotic-series digamma and ``math.lgamma``, the counting
statistics come from explicit nested loops, and the enumeration oracle walks
``itertools.product``.  Agreement between these and the vectorized
implementations is evidence for both sides.

The dense sweep at the end (:func:`dense_fit`) is a differential reference
of another kind: the update loop as the library ran it on N x N type masks
before the sweep moved to sparse neighbour sums.  It shares the unchanged
bound and mixing and presence updates with the package, so it checks the
sparse ``xi`` update and responsibility sweep alone.
"""

import itertools
import math

import numpy as np
from scipy.special import digamma as scipy_digamma

from rsm import VariationalState, elbo, m_step_alpha, m_step_gamma


def digamma(x):
    """Scalar digamma via upward recurrence plus the asymptotic series.

    The argument is shifted above 12 with psi(x) = psi(x + 1) - 1/x, then the
    expansion through the x**-8 term is applied; the truncation error is
    below 2e-13 on that range.
    """
    x = float(x)
    if x <= 0:
        raise ValueError(f"positive argument required, got {x}")
    value = 0.0
    while x < 12.0:
        value -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = inv2 * (1.0 / 12 - inv2 * (1.0 / 120 - inv2 * (1.0 / 252 - inv2 / 240)))
    return value + math.log(x) - 0.5 / x - series


def log_beta(a, b):
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def log_dirichlet_norm(vec):
    out = 0.0
    total = 0.0
    for v in vec:
        out += math.lgamma(v)
        total += v
    return out - math.lgamma(total)


def presence_counts(x, sub, n_subgraphs):
    """(present, absent) ordered-pair counts per subgraph pair, by loops."""
    x = np.asarray(x)
    n = x.shape[0]
    present = np.zeros((n_subgraphs, n_subgraphs))
    absent = np.zeros((n_subgraphs, n_subgraphs))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if x[i, j] != 0:
                present[sub[i], sub[j]] += 1.0
            else:
                absent[sub[i], sub[j]] += 1.0
    return present, absent


def validation_violations(x, sub, n_types, n_subgraphs):
    """The violations ``validate_network`` reports, from a scan of the dense
    input matrix: off-diagonal entries outside ``0..n_types`` in row-major
    order, then subgraph labels outside ``0..n_subgraphs - 1``; at most 20
    of each kind are itemized and the rest summarized."""
    x = np.array(x, copy=True)
    if x.size:
        np.fill_diagonal(x, 0)
    sub = np.asarray(sub)
    violations = []
    bad = np.argwhere((x < 0) | (x > n_types))
    for i, j in bad[:20]:
        violations.append(f"edge type {x[i, j]} at ({i}, {j}) outside 0..{n_types}")
    if len(bad) > 20:
        violations.append(f"... and {len(bad) - 20} more edge-type violations")
    bad_sub = np.nonzero((sub < 0) | (sub >= n_subgraphs))[0]
    for i in bad_sub[:20]:
        violations.append(
            f"subgraph label {sub[i]} at vertex {i} outside 0..{n_subgraphs - 1}")
    if len(bad_sub) > 20:
        violations.append(f"... and {len(bad_sub) - 20} more subgraph-label violations")
    return violations


def mixing_counts(sub, tau, n_subgraphs):
    """Responsibility mass per (subgraph, cluster) cell, by loops."""
    tau = np.asarray(tau, dtype=float)
    n, k = tau.shape
    out = np.zeros((n_subgraphs, k))
    for i in range(n):
        for kk in range(k):
            out[sub[i], kk] += tau[i, kk]
    return out


def type_counts(x, tau, n_types):
    """Expected edge-type counts per ordered cluster pair, by loops."""
    x = np.asarray(x)
    tau = np.asarray(tau, dtype=float)
    n, k = tau.shape
    out = np.zeros((k, k, n_types))
    for i in range(n):
        for j in range(n):
            if i == j or x[i, j] == 0:
                continue
            c = x[i, j] - 1
            for kk in range(k):
                for ll in range(k):
                    out[kk, ll, c] += tau[i, kk] * tau[j, ll]
    return out


def responsibilities(x, sub, tau, chi, xi):
    """One synchronous responsibility sweep, by loops and the local digamma."""
    x = np.asarray(x)
    tau = np.asarray(tau, dtype=float)
    chi = np.asarray(chi, dtype=float)
    xi = np.asarray(xi, dtype=float)
    n, k = tau.shape
    n_types = xi.shape[2]

    elog_alpha = np.zeros_like(chi)
    for s in range(chi.shape[0]):
        row_total = digamma(sum(chi[s]))
        for kk in range(k):
            elog_alpha[s, kk] = digamma(chi[s, kk]) - row_total
    elog_pi = np.zeros_like(xi)
    for kk in range(k):
        for ll in range(k):
            cell_total = digamma(sum(xi[kk, ll]))
            for c in range(n_types):
                elog_pi[kk, ll, c] = digamma(xi[kk, ll, c]) - cell_total

    new_tau = np.zeros((n, k))
    for i in range(n):
        scores = []
        for kk in range(k):
            score = elog_alpha[sub[i], kk]
            for j in range(n):
                if j == i:
                    continue
                if x[i, j] != 0:
                    c = x[i, j] - 1
                    for ll in range(k):
                        score += tau[j, ll] * elog_pi[kk, ll, c]
                if x[j, i] != 0:
                    c = x[j, i] - 1
                    for ll in range(k):
                        score += tau[j, ll] * elog_pi[ll, kk, c]
            scores.append(score)
        top = max(scores)
        weights = [math.exp(s - top) for s in scores]
        total = sum(weights)
        for kk in range(k):
            new_tau[i, kk] = weights[kk] / total
    return new_tau


def bound_value(tau, chi, a, b, xi, chi0, a0, b0, xi0):
    """The variational lower bound, term by term with math.lgamma."""
    tau = np.asarray(tau, dtype=float)
    chi = np.asarray(chi, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    xi = np.asarray(xi, dtype=float)
    total = 0.0
    n_sub = chi.shape[0]
    for r in range(n_sub):
        for s in range(n_sub):
            total += log_beta(a[r, s], b[r, s]) - log_beta(a0[r][s], b0[r][s])
    for s in range(n_sub):
        total += log_dirichlet_norm(chi[s]) - log_dirichlet_norm(chi0[s])
    for kk in range(xi.shape[0]):
        for ll in range(xi.shape[1]):
            total += log_dirichlet_norm(xi[kk, ll]) - log_dirichlet_norm(xi0[kk][ll])
    for row in tau:
        for p in row:
            if p > 0.0:
                total -= p * math.log(p)
    return total


def init_distance(net, i, j):
    """Discordance between vertices i and j, by a loop over third vertices.

    Counts each h where both i->h and j->h exist with different types, plus
    each h where both h->i and h->j exist likewise.  Diagonal entries of the
    edge matrix are never read.
    """
    n = net.n_vertices
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"vertex index out of range for n_vertices={n}")
    x = net.edge_types

    def discordant(p, q):
        return p != 0 and q != 0 and p != q

    total = 0
    for h in range(n):
        if h == i or h == j:
            continue
        total += discordant(x[i, h], x[j, h])
        total += discordant(x[h, i], x[h, j])
    return total


def kmedoid_labels(net, n_clusters, seed, max_rounds=50):
    """Hard k-medoid labels, cluster by cluster and member by member.

    Follows the initializer's documented alternation: singleton clusters at
    centers drawn without replacement, assignment to the smallest mean
    distance to the members (to the center itself while a cluster is empty),
    each nonempty cluster's center moved to the member with the smallest
    summed distance to its fellow members, and a stop once centers (as a
    set) and labels are both unchanged.  Every tie goes to the lowest index.
    """
    n = net.n_vertices
    if n == 0:
        return []
    k_used = min(n_clusters, n)
    rng = np.random.default_rng(seed)
    centers = [int(c) for c in rng.choice(n, size=k_used, replace=False)]
    d = [[init_distance(net, i, j) for j in range(n)] for i in range(n)]

    def first_min(values):
        best = 0
        for idx in range(1, len(values)):
            if values[idx] < values[best]:
                best = idx
        return best

    labels = [first_min([d[i][c] for c in centers]) for i in range(n)]
    for _ in range(max_rounds):
        cost = [[0.0] * k_used for _ in range(n)]
        for k in range(k_used):
            members = [j for j in range(n) if labels[j] == k]
            for i in range(n):
                if members:
                    cost[i][k] = sum(d[i][j] for j in members) / len(members)
                else:
                    cost[i][k] = float(d[i][centers[k]])
        new_labels = [first_min(cost[i]) for i in range(n)]
        new_centers = list(centers)
        for k in range(k_used):
            members = [j for j in range(n) if new_labels[j] == k]
            if members:
                within = [sum(d[i][j] for j in members) for i in members]
                new_centers[k] = members[first_min(within)]
        stable = sorted(new_centers) == sorted(centers) and new_labels == labels
        centers, labels = new_centers, new_labels
        if stable:
            break
    return labels


def pair_counting_ari(labels_a, labels_b):
    """Adjusted Rand index straight from its definition over item pairs."""
    labels_a = list(labels_a)
    labels_b = list(labels_b)
    n = len(labels_a)
    together_both = together_a = together_b = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_a = labels_a[i] == labels_a[j]
            same_b = labels_b[i] == labels_b[j]
            together_a += same_a
            together_b += same_b
            together_both += same_a and same_b
    total = n * (n - 1) / 2.0
    if total == 0.0:
        return 1.0
    expected = together_a * together_b / total
    maximum = (together_a + together_b) / 2.0
    if maximum == expected:
        return 1.0
    return (together_both - expected) / (maximum - expected)


def enumeration_evidence(x, sub, n_clusters, chi0, a0, b0, xi0):
    """Exact log evidence by looping over every hard assignment.

    Unlike the library routine, every factor is recomputed inside the loop,
    including the assignment-independent edge-presence factor; the two can
    only agree if hoisting that factor out of the sum is legitimate.
    """
    x = np.asarray(x)
    n = x.shape[0]
    n_subgraphs = len(chi0)
    xi0 = np.asarray(xi0, dtype=float)
    k = int(n_clusters)

    log_terms = []
    for z in itertools.product(range(k), repeat=n):
        term = 0.0
        present, absent = presence_counts(x, sub, n_subgraphs)
        for r in range(n_subgraphs):
            for s in range(n_subgraphs):
                term += log_beta(a0[r][s] + present[r, s], b0[r][s] + absent[r, s])
                term -= log_beta(a0[r][s], b0[r][s])
        chi = [list(chi0[s]) for s in range(n_subgraphs)]
        for i in range(n):
            chi[sub[i]][z[i]] += 1.0
        for s in range(n_subgraphs):
            term += log_dirichlet_norm(chi[s]) - log_dirichlet_norm(chi0[s])
        xi = np.array(xi0, copy=True)
        for i in range(n):
            for j in range(n):
                if i != j and x[i, j] != 0:
                    xi[z[i], z[j], x[i, j] - 1] += 1.0
        for kk in range(k):
            for ll in range(k):
                term += log_dirichlet_norm(xi[kk, ll]) - log_dirichlet_norm(xi0[kk, ll])
        log_terms.append(term)
    top = max(log_terms)
    return top + math.log(sum(math.exp(t - top) for t in log_terms))


def dense_type_masks(net):
    """One float64 N x N indicator per edge type 1..n_types."""
    x = net.edge_types
    return [(x == c).astype(np.float64) for c in range(1, net.n_types + 1)]


def dense_update_xi(masks, tau, xi0):
    """xi0 plus the expected type counts, one N x N mask product per type."""
    xi = np.array(xi0, dtype=np.float64, copy=True)
    for c, m in enumerate(masks):
        xi[:, :, c] += tau.T @ m @ tau
    return xi


def dense_scores(masks, tau, chi, xi, subgraph_of):
    """Log responsibility scores before normalization, from the dense masks:
    out-edges read xi[k, l, :] and in-edges xi[l, k, :]."""
    chi = np.asarray(chi, dtype=np.float64)
    xi = np.asarray(xi, dtype=np.float64)
    elog_alpha = scipy_digamma(chi) - scipy_digamma(chi.sum(axis=1, keepdims=True))
    elog_pi = scipy_digamma(xi) - scipy_digamma(xi.sum(axis=2, keepdims=True))
    scores = elog_alpha[np.asarray(subgraph_of, dtype=np.int64)].copy()
    for c, m in enumerate(masks):
        e = elog_pi[:, :, c]
        scores += (m @ tau) @ e.T
        scores += (m.T @ tau) @ e
    return scores


def normalize_scores(scores):
    """Row-wise softmax, shifted by each row's maximum."""
    if scores.shape[0] == 0:
        return np.zeros_like(scores)
    ex = np.exp(scores - scores.max(axis=1, keepdims=True))
    return ex / ex.sum(axis=1, keepdims=True)


def dense_fit(net, tau0, priors, max_iterations, epsilon_converge=1e-6):
    """``fit_single``'s loop on the dense masks: (state, trace, converged)."""
    masks = dense_type_masks(net)
    tau = np.asarray(tau0, dtype=np.float64)
    a, b = m_step_gamma(net, priors)
    previous = np.concatenate([priors.chi0.ravel(), priors.a0.ravel(),
                               priors.b0.ravel(), priors.xi0.ravel()])
    trace = []
    converged = False
    for _ in range(max_iterations):
        chi = m_step_alpha(net.subgraph_of, tau, priors)
        xi = dense_update_xi(masks, tau, priors.xi0)
        state = VariationalState(tau=tau, chi=chi, a=a, b=b, xi=xi)
        trace.append(elbo(net, state, priors))
        current = np.concatenate([chi.ravel(), a.ravel(), b.ravel(), xi.ravel()])
        if np.max(np.abs(current - previous), initial=0.0) < epsilon_converge:
            converged = True
            break
        previous = current
        tau = normalize_scores(dense_scores(masks, tau, chi, xi, net.subgraph_of))
    return state, np.asarray(trace), converged
