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

:func:`agree_scatter` and :func:`differ_scatter` are the k-medoid
discordance's two factors as they were written before they were regrouped
from the network's typed operator: scattered from the edge list.

:func:`structured_scenario` expands a structured scenario into its
tables and subgraph labels entry by entry, to check
:func:`rsm.generate.scenario_params`.

Two more are the data path as it was before it moved to edge lists:
:func:`dense_sample`, the sampler that draws every uniform in one N x N call
and keeps the whole type matrix (a draw of the same distribution as the
block-wise sampler, from another stream, so the distribution checks hold it
to the same tolerances), and :func:`read_network_loop`, the network
file reader that checks one line at a time into a dense matrix.
:func:`read_pairs_loop` and :func:`read_labels_loop` are the partition and
label file readers as they were before every format went through one
vectorized pass: one line at a time, into a length-N array or a dict.
:func:`format_rows_loop` is the edge-list writer as it was before it filled
a byte buffer: one f-string per row.
"""

import itertools
import math
import re
from pathlib import Path

import numpy as np
import scipy.sparse
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
    """Every range fault of a network, from a scan of the dense input
    matrix: off-diagonal entries outside ``0..n_types`` in row-major order,
    then subgraph labels outside ``0..n_subgraphs - 1``."""
    x = np.array(x, copy=True)
    if x.size:
        np.fill_diagonal(x, 0)
    sub = np.asarray(sub)
    violations = []
    bad = np.argwhere((x < 0) | (x > n_types))
    for i, j in bad:
        violations.append(f"edge type {x[i, j]} at ({i}, {j}) outside 0..{n_types}")
    for i in np.nonzero((sub < 0) | (sub >= n_subgraphs))[0]:
        violations.append(
            f"subgraph label {sub[i]} at vertex {i} outside 0..{n_subgraphs - 1}")
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
    """Softmax over the last axis, shifted by each row's maximum, with
    numpy's reductions over that axis."""
    ex = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return ex / ex.sum(axis=-1, keepdims=True)


def neighbour_sums_loop(net, tau):
    """Per-type neighbour sums of an N x K tau, one vertex at a time: row i
    of the first N x (C K) array adds tau[j] into its block c - 1 for each
    out-neighbour j of i along an edge of type c, in ascending j; the second
    does the same over the in-neighbours."""
    x = net.edge_types
    n, k = tau.shape
    out_sums = np.zeros((n, net.n_types * k))
    in_sums = np.zeros((n, net.n_types * k))
    for i in range(n):
        for j in range(n):
            if x[i, j]:
                out_sums[i, (x[i, j] - 1) * k:x[i, j] * k] += tau[j]
            if x[j, i]:
                in_sums[i, (x[j, i] - 1) * k:x[j, i] * k] += tau[j]
    return out_sums, in_sums


def agree_scatter(net):
    """The discordance's ``agree`` factor (N x 2 C N) as
    ``rsm.medoids._factors`` wrote it before it regrouped the network's
    typed operator: CSR scattered straight from the row-major edge list and
    its column-major order, with int64 indices.

    Row i holds, for each out-edge i -> j of type t, column (t - 1) N + j,
    in edge-list order, then for each in-edge h -> i of type t, column
    (C + t - 1) N + h, in column-major order, so its columns need not
    ascend.
    """
    n, c, e = net.n_vertices, net.n_types, len(net.src)
    src, dst, types = net.src, net.dst, net.types
    by_dst = np.argsort(dst, kind="stable")
    out_degree = np.bincount(src, minlength=n)
    in_degree = np.bincount(dst, minlength=n)
    # row i's out-edges fill its first out_degree[i] places and its
    # in-edges the rest
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(out_degree + in_degree, out=indptr[1:])
    indices = np.empty(2 * e, dtype=np.int64)
    indices[np.arange(e) + (np.cumsum(in_degree) - in_degree)[src]] = (types - 1) * n + dst
    indices[np.cumsum(out_degree)[dst[by_dst]] + np.arange(e)] = (
        (c + types[by_dst] - 1) * n + src[by_dst])
    return scipy.sparse.csr_array((np.ones(2 * e), indices, indptr), shape=(n, 2 * c * n))


def differ_scatter(net):
    """The discordance's ``differ`` factor (2 C N x N) as
    ``rsm.medoids._factors`` wrote it before it regrouped the network's
    typed operator: CSR written straight from the row-major edge list and
    its stable order by destination.

    Row (t - 1) N + j holds the h with an edge h -> j whose type is not t,
    and row (C + t - 1) N + h the j with an edge h -> j whose type is not
    t, so the columns of every row ascend.
    """
    n, c, e = net.n_vertices, net.n_types, len(net.src)
    src, dst, types = net.src, net.dst, net.types
    by_dst = np.argsort(dst, kind="stable")
    out_degree = np.bincount(src, minlength=n)
    in_degree = np.bincount(dst, minlength=n)
    row_sizes = np.concatenate([
        in_degree - np.bincount((types - 1) * n + dst, minlength=c * n).reshape(c, n),
        out_degree - np.bincount((types - 1) * n + src, minlength=c * n).reshape(c, n)])
    indptr = np.zeros(2 * c * n + 1, dtype=np.int64)
    np.cumsum(row_sizes, out=indptr[1:])
    indices = np.concatenate([
        ends[typed != t]
        for ends, typed in ((src[by_dst], types[by_dst]), (dst, types))
        for t in range(1, c + 1)])
    return scipy.sparse.csr_array((np.ones(2 * e * (c - 1)), indices, indptr),
                                  shape=(2 * c * n, n))


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


def dense_sample(params, subgraph_of, seed):
    """``(src, dst, types, labels)`` of one sample, drawn with one N x N
    call per draw: presence row-major, memberships, then a type for every
    ordered pair, kept where an edge is present.  This is the stream the
    sampler drew before it drew each subgraph block's edges directly."""
    subgraph_of = np.asarray(subgraph_of, dtype=np.int64)
    n = subgraph_of.shape[0]
    k = params.alpha.shape[1]
    c = params.n_types
    rng = np.random.default_rng(seed)

    p_edge = params.gamma[subgraph_of][:, subgraph_of]
    present = rng.random((n, n)) < p_edge
    np.fill_diagonal(present, False)

    cum_alpha = np.cumsum(params.alpha[subgraph_of], axis=1)
    z = np.minimum((rng.random(n)[:, None] >= cum_alpha).sum(axis=1), k - 1)

    cum_pi = np.cumsum(params.pi[z][:, z], axis=2)
    types = np.minimum((rng.random((n, n))[..., None] >= cum_pi).sum(axis=2) + 1, c)
    src, dst = np.nonzero(present)
    return src, dst, types[src, dst], z


def structured_scenario(alpha, type_probs_within, type_probs_between,
                        edge_prob_within, edge_prob_between, subgraph_sizes):
    """``(gamma, pi, subgraph_of)`` of a structured scenario, one entry at a
    time: ``gamma[r, s]`` takes the within-subgraph probability when
    r == s and the between one otherwise, ``pi[k, l]`` the within-cluster
    type distribution when k == l and the between one otherwise, and the
    vertices fill subgraph 0 first, then subgraph 1, and so on."""
    s, k, c = len(alpha), len(alpha[0]), len(type_probs_within)
    gamma = np.zeros((s, s))
    for r in range(s):
        for t in range(s):
            gamma[r, t] = edge_prob_within if r == t else edge_prob_between
    pi = np.zeros((k, k, c))
    for a in range(k):
        for b in range(k):
            for t in range(c):
                pi[a, b, t] = (type_probs_within[t] if a == b
                               else type_probs_between[t])
    subgraph_of = []
    for r, size in enumerate(subgraph_sizes):
        subgraph_of.extend([r] * size)
    return gamma, pi, np.array(subgraph_of, dtype=np.int64)


class LoopFormatError(ValueError):
    """Raised by :func:`read_network_loop`; the message names the line."""


def read_network_loop(path):
    """``(N, S, C, x)`` of a network file, with ``x`` the dense N x N type
    matrix, parsed one line at a time; the first bad line raises
    :class:`LoopFormatError` with ``"<path>:<line>: <message>"``."""
    def fail(lineno, message):
        raise LoopFormatError(f"{path}:{lineno}: {message}")

    text = Path(path).read_text(encoding="utf-8")
    lines = [(lineno, raw.strip())
             for lineno, raw in enumerate(text.split("\n"), start=1) if raw.strip()]
    if not lines:
        fail(1, "missing header line 'rsm v1 N=<n> S=<s> C=<c>'")
    lineno, header = lines[0]
    match = re.match(r"^rsm v1 N=(\d+) S=(\d+) C=(\d+)$", header)
    if match is None:
        fail(lineno, f"bad header {header!r}, expected 'rsm v1 N=<n> S=<s> C=<c>'")
    n, s, c = (int(g) for g in match.groups())
    if s < 1 or c < 1:
        fail(lineno, f"S and C must be >= 1, got S={s} C={c}")

    x = np.zeros((n, n), dtype=np.int64)
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != 3:
            fail(lineno, f"expected 'src dst type', got {line!r}")
        try:
            src, dst, typ = (int(p) for p in parts)
        except ValueError:
            fail(lineno, f"non-integer field in {line!r}")
        if not 1 <= src <= n:
            fail(lineno, f"source vertex {src} outside 1..{n}")
        if not 1 <= dst <= n:
            fail(lineno, f"destination vertex {dst} outside 1..{n}")
        if src == dst:
            fail(lineno, "self-loops are not allowed")
        if not 1 <= typ <= c:
            fail(lineno, f"edge type {typ} outside 1..{c}")
        if x[src - 1, dst - 1] != 0:
            fail(lineno, f"duplicate edge {src} -> {dst}")
        x[src - 1, dst - 1] = typ
    return n, s, c, x


def _data_lines(text):
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if line:
            yield lineno, line


def read_pairs_loop(path, n_vertices, max_value, what):
    """The 0-indexed values of a ``vertex value`` file covering every vertex
    of ``1..n_vertices`` once, parsed one line at a time; the first bad line
    raises :class:`LoopFormatError` with ``"<path>:<line>: <message>"``."""
    def fail(lineno, message):
        raise LoopFormatError(f"{path}:{lineno}: {message}")

    text = Path(path).read_text(encoding="utf-8")
    values = np.full(n_vertices, -1, dtype=np.int64)
    for lineno, line in _data_lines(text):
        parts = line.split()
        if len(parts) != 2:
            fail(lineno, f"expected 'vertex {what}', got {line!r}")
        try:
            vertex, value = int(parts[0]), int(parts[1])
        except ValueError:
            fail(lineno, f"non-integer field in {line!r}")
        if not 1 <= vertex <= n_vertices:
            fail(lineno, f"vertex {vertex} outside 1..{n_vertices}")
        if not 1 <= value <= max_value:
            fail(lineno, f"{what} {value} outside 1..{max_value}")
        if values[vertex - 1] != -1:
            fail(lineno, f"vertex {vertex} listed twice")
        values[vertex - 1] = value - 1
    missing = np.nonzero(values == -1)[0]
    if missing.size:
        fail(len(text.split("\n")), f"no {what} given for vertex {missing[0] + 1}")
    return values


def read_labels_loop(path):
    """``{vertex: cluster}``, both 0-indexed, of a label file parsed one line
    at a time; the first bad line raises :class:`LoopFormatError`."""
    def fail(lineno, message):
        raise LoopFormatError(f"{path}:{lineno}: {message}")

    text = Path(path).read_text(encoding="utf-8")
    out = {}
    for lineno, line in _data_lines(text):
        parts = line.split()
        if len(parts) != 2:
            fail(lineno, f"expected 'vertex cluster', got {line!r}")
        try:
            vertex, value = int(parts[0]), int(parts[1])
        except ValueError:
            fail(lineno, f"non-integer field in {line!r}")
        if vertex < 1:
            fail(lineno, f"vertex {vertex} outside 1..")
        if value < 1:
            fail(lineno, f"cluster {value} must be >= 1")
        if vertex - 1 in out:
            fail(lineno, f"vertex {vertex} listed twice")
        out[vertex - 1] = value - 1
    if not out:
        fail(1, "no labels found")
    return out


def format_rows_loop(columns):
    """The ASCII bytes of space-separated integer ``columns``, one f-string
    per row, each row ending in one LF."""
    rows = zip(*(np.asarray(column).tolist() for column in columns))
    return "".join(" ".join(f"{v}" for v in row) + "\n" for row in rows).encode("ascii")
