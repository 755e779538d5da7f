"""Output checks, computed apart from the program.

Every reference here is rebuilt from the raw inputs with numpy and scipy, or
is a property the method must have; none is a stored copy of an earlier
output. Each check raises :class:`CheckFailed` with the first discrepancy.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.optimize
import scipy.sparse
import scipy.sparse.csgraph
import scipy.sparse.linalg
import scipy.special

# Per-dataset AUC floor of the acceptance suite's sgcn-2 gates.
SGCN2_AUC_FLOOR = {"bitcoin_alpha": 0.75, "soc-sign-bitcoinotc": 0.77}

# A column counts as a null-space column below this Rayleigh quotient.
_ZERO = 1e-9

# L2 weight of the logistic probe: run_experiment's default ``l2``.
LOGREG_L2 = 1.0


class CheckFailed(AssertionError):
    """An output disagrees with the benchmark's own reference."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class RefGraph:
    """Undirected signed edges ``(u, v, sign)``, ``u < v``, sorted by ``(u, v)``."""

    n: int
    edges: np.ndarray

    @property
    def num_pos(self) -> int:
        return int((self.edges[:, 2] > 0).sum())

    @property
    def num_neg(self) -> int:
        return int((self.edges[:, 2] < 0).sum())


def parse_weighted_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``SOURCE,TARGET,RATING[,...]`` lines to raw ids and rating signs."""
    src, dst, sign = [], [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            src.append(int(row[0]))
            dst.append(int(row[1]))
            sign.append(1 if float(row[2]) > 0 else -1)
    return np.array(src, np.int64), np.array(dst, np.int64), np.array(sign, np.int64)


def fold_sum_sign(src, dst, sign) -> RefGraph:
    """Compact raw ids in ascending order and keep the sign of each pair's sum."""
    raw = np.unique(np.concatenate([src, dst]))
    n = len(raw)
    u, v = np.searchsorted(raw, src), np.searchsorted(raw, dst)
    keep = u != v
    a, b = np.minimum(u, v)[keep], np.maximum(u, v)[keep]
    keys, inverse = np.unique(a * n + b, return_inverse=True)
    total = np.zeros(len(keys), np.int64)
    np.add.at(total, inverse, sign[keep])
    nonzero = total != 0
    keys = keys[nonzero]
    return RefGraph(n, np.column_stack([keys // n, keys % n, np.sign(total[nonzero])]))


def reference_graph(path) -> RefGraph:
    return fold_sum_sign(*parse_weighted_csv(path))


def edge_array(edges) -> np.ndarray:
    """``(u, v, sign)`` rows oriented ``u < v`` and sorted, from any iterable."""
    arr = np.array([tuple(e) for e in edges], dtype=np.int64).reshape(-1, 3)
    lo, hi = np.minimum(arr[:, 0], arr[:, 1]), np.maximum(arr[:, 0], arr[:, 1])
    arr = np.column_stack([lo, hi, arr[:, 2]])
    return arr[np.lexsort((arr[:, 1], arr[:, 0]))]


def check_ingest(n: int, num_pos: int, num_neg: int, ref: RefGraph) -> None:
    _require(n == ref.n, f"ingest: n={n}, own parse gives {ref.n}")
    _require(num_pos == ref.num_pos, f"ingest: {num_pos} positive edges, own fold gives {ref.num_pos}")
    _require(num_neg == ref.num_neg, f"ingest: {num_neg} negative edges, own fold gives {ref.num_neg}")


def check_split(train, test, ref: RefGraph, test_fraction: float, n_test_pos: int) -> None:
    """Disjoint halves whose union is the full graph, with the stated test size."""
    train, test = edge_array(train), edge_array(test)
    n = ref.n
    train_keys, test_keys = train[:, 0] * n + train[:, 1], test[:, 0] * n + test[:, 1]
    leaked = np.intersect1d(train_keys, test_keys)
    _require(len(leaked) == 0, f"split: {len(leaked)} held-out pairs are also train edges")
    union = edge_array(np.vstack([train, test]))
    _require(
        union.shape == ref.edges.shape and np.array_equal(union, ref.edges),
        "split: train and test together differ from the full graph",
    )
    want = round(test_fraction * len(ref.edges))
    _require(len(test) == want, f"split: {len(test)} test edges, want round({test_fraction}*E)={want}")
    own_pos = int((test[:, 2] > 0).sum())
    _require(n_test_pos == own_pos, f"split: report n_test_pos={n_test_pos}, own count {own_pos}")


def signed_adjacency(n: int, edges: np.ndarray) -> scipy.sparse.csr_matrix:
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
    rows = np.concatenate([e[:, 0], e[:, 1]])
    cols = np.concatenate([e[:, 1], e[:, 0]])
    vals = np.concatenate([e[:, 2], e[:, 2]]).astype(np.float64)
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


def normalized_laplacian(n: int, edges: np.ndarray) -> scipy.sparse.csr_matrix:
    """``I - D^{-1/2} A D^{-1/2}`` with absolute degrees; isolated rows stay identity."""
    adj = signed_adjacency(n, edges)
    deg = np.asarray(abs(adj).sum(axis=1)).ravel()
    scale = np.divide(1.0, np.sqrt(deg), out=np.zeros(n), where=deg > 0)
    d = scipy.sparse.diags(scale)
    return (scipy.sparse.identity(n) - d @ adj @ d).tocsr()


def balanced_components(n: int, edges: np.ndarray) -> list[np.ndarray]:
    """Node sets of the balanced components with at least two nodes.

    Counted on the signed double cover: node ``i`` has copies ``i`` and
    ``i + n``; a positive edge joins equal copies, a negative edge opposite
    ones. A component is balanced exactly when no path joins a node's two
    copies. Ordered by each component's smallest node id.
    """
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
    u, v, pos = e[:, 0], e[:, 1], e[:, 2] > 0
    cover_u = np.concatenate([u, u + n])
    cover_v = np.concatenate([np.where(pos, v, v + n), np.where(pos, v + n, v)])
    cover = scipy.sparse.coo_matrix((np.ones(len(cover_u)), (cover_u, cover_v)), shape=(2 * n, 2 * n))
    _, cover_label = scipy.sparse.csgraph.connected_components(cover, directed=False)
    plain = scipy.sparse.coo_matrix((np.ones(len(u)), (u, v)), shape=(n, n))
    count, label = scipy.sparse.csgraph.connected_components(plain, directed=False)
    balanced = cover_label[:n] != cover_label[n:]
    out = []
    for c in range(count):
        members = np.flatnonzero(label == c)
        if len(members) >= 2 and balanced[members[0]]:
            out.append(members)
    return sorted(out, key=lambda m: m[0])


def check_features(x: np.ndarray, n: int, train_edges) -> None:
    """Orthonormal eigenvector columns of the normalized signed Laplacian.

    Rayleigh quotients ascend in [0, 2] with small residuals; the zero
    columns are one per balanced component of two or more nodes, each
    supported on its component, in order of the component's smallest node;
    the quotients equal the eigenvalues of a sparse shift-invert solve of the
    same operator.
    """
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[1]
    _require(x.shape[0] == n, f"features: {x.shape[0]} rows for {n} nodes")
    gram_err = float(np.abs(x.T @ x - np.eye(d)).max())
    _require(gram_err < 1e-8, f"features: columns not orthonormal (max |X'X - I| = {gram_err:.2e})")
    train = edge_array(train_edges)
    lap = normalized_laplacian(n, train)
    lx = lap @ x
    rayleigh = np.einsum("ij,ij->j", x, lx)
    residual = float(np.linalg.norm(lx - x * rayleigh, axis=0).max())
    _require(residual < 1e-8, f"features: eigen-residual {residual:.2e}")
    _require(
        rayleigh.min() > -1e-10 and rayleigh.max() < 2 + 1e-10,
        f"features: Rayleigh quotients leave [0, 2]: {rayleigh.min():.3g}..{rayleigh.max():.3g}",
    )
    step = np.diff(rayleigh)
    _require(step.min() > -1e-10, f"features: Rayleigh quotients not ascending at column {int(step.argmin()) + 1}")
    components = balanced_components(n, train)
    zero = np.flatnonzero(rayleigh < _ZERO)
    want = min(len(components), d)
    _require(len(zero) == want, f"features: {len(zero)} zero columns, {want} balanced components")
    for k in range(want):
        support = np.flatnonzero(np.abs(x[:, k]) > 1e-12)
        _require(
            np.array_equal(support, components[k]),
            f"features: null column {k} is not supported on balanced component {k}",
        )
    vals = scipy.sparse.linalg.eigsh(lap.tocsc(), k=d, sigma=-0.01, which="LM", return_eigenvectors=False)
    gap = float(np.abs(np.sort(vals) - rayleigh).max())
    _require(gap < 1e-8, f"features: eigenvalues differ from a sparse solve by {gap:.2e}")


def _trace3(a, b, c) -> float:
    """``trace(a @ b @ c)`` for sparse symmetric matrices."""
    return float((a @ b).multiply(c.T).sum())


def check_census(census: dict, n: int, edges) -> None:
    """Triangle buckets against closed-walk counts on the signed adjacency.

    ``trace(A^3)/6`` is balanced minus unbalanced and ``trace(|A|^3)/6`` the
    total; splitting ``A`` into positive ``P`` and negative ``N`` parts,
    ``trace(P^3)/6``, ``trace(PPN)/2``, ``trace(NNP)/2`` and ``trace(N^3)/6``
    are the four buckets.
    """
    e = edge_array(edges)
    adj = signed_adjacency(n, e)
    pos, neg = adj.multiply(adj > 0).tocsr(), (-adj).multiply(adj < 0).tocsr()
    absolute = abs(adj)
    balanced = census["all_positive"] + census["two_negative"]
    unbalanced = census["one_negative"] + census["all_negative"]
    want = {
        "balanced - unbalanced": (_trace3(adj, adj, adj) / 6, balanced - unbalanced),
        "total": (_trace3(absolute, absolute, absolute) / 6, balanced + unbalanced),
        "all_positive": (_trace3(pos, pos, pos) / 6, census["all_positive"]),
        "one_negative": (_trace3(pos, pos, neg) / 2, census["one_negative"]),
        "two_negative": (_trace3(neg, neg, pos) / 2, census["two_negative"]),
        "all_negative": (_trace3(neg, neg, neg) / 6, census["all_negative"]),
    }
    for name, (expected, got) in want.items():
        _require(abs(expected - got) < 0.5, f"triangles: {name} is {got}, trace formula gives {expected:.0f}")


def check_history(rows, epochs: int) -> None:
    """``rows`` holds each epoch's loss parts, the total first."""
    rows = np.asarray(rows, dtype=np.float64)
    _require(len(rows) == epochs, f"training: {len(rows)} loss rows for {epochs} epochs")
    _require(bool(np.isfinite(rows).all()), "training: non-finite loss")
    _require(rows[-1, 0] < rows[0, 0], f"training: last loss {rows[-1, 0]:.4f} not below first {rows[0, 0]:.4f}")


def pair_auc(scores, labels) -> float:
    """Share of (positive, negative) pairs ranked correctly, ties counted half."""
    scores, labels = np.asarray(scores, dtype=np.float64), np.asarray(labels)
    pos, neg = scores[labels == 1], np.sort(scores[labels == 0])
    below = np.searchsorted(neg, pos, side="left")
    ties = np.searchsorted(neg, pos, side="right") - below
    return float((below.sum() + 0.5 * ties.sum()) / (len(pos) * len(neg)))


def _pair_features(z, edges):
    e = edge_array(edges)
    return np.hstack([z[e[:, 0]], z[e[:, 1]]]), (e[:, 2] > 0).astype(np.float64)


def logistic_rescore(z, train_edges, test_edges) -> tuple[float, float]:
    """AUC and positive-class F1 at 0.5 from a logistic probe fit here.

    The probe minimizes the mean log-loss plus ``LOGREG_L2 * |w|^2 / m`` over the
    concatenated endpoint rows of the train edges, intercept unpenalized.
    """
    x, y = _pair_features(z, train_edges)
    m, d = x.shape

    def objective(beta):
        margin = x @ beta[:d] + beta[d]
        p = scipy.special.expit(margin)
        value = np.mean(np.logaddexp(0.0, margin) - y * margin) + LOGREG_L2 * beta[:d] @ beta[:d] / m
        grad = np.append(x.T @ (p - y) / m + 2 * LOGREG_L2 * beta[:d] / m, np.mean(p - y))
        return value, grad

    fit = scipy.optimize.minimize(
        objective, np.zeros(d + 1), jac=True, method="L-BFGS-B", options={"gtol": 1e-9, "maxiter": 5000}
    )
    xt, yt = _pair_features(z, test_edges)
    decision = xt @ fit.x[:d] + fit.x[d]
    predicted = decision >= 0
    tp = int((predicted & (yt == 1)).sum())
    fp = int((predicted & (yt == 0)).sum())
    fn = int((~predicted & (yt == 1)).sum())
    f1 = 2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0
    return pair_auc(decision, yt), f1


def check_scores(auc, f1, z, train_edges, test_edges, floor: float | None = None) -> None:
    """AUC in (0.5, 1], above ``floor``, and reproduced by an own probe."""
    _require(0.5 < auc <= 1.0, f"scores: AUC {auc} outside (0.5, 1]")
    if floor is not None:
        _require(auc >= floor, f"scores: AUC {auc:.4f} below the acceptance floor {floor}")
    own_auc, own_f1 = logistic_rescore(z, train_edges, test_edges)
    _require(abs(own_auc - auc) < 1e-3, f"scores: AUC {auc:.5f}, own probe {own_auc:.5f}")
    _require(abs(own_f1 - f1) < 2e-3, f"scores: F1 {f1:.5f}, own probe {own_f1:.5f}")


def blob_sha1(path) -> str:
    data = Path(path).read_bytes()
    return hashlib.sha1(b"blob " + str(len(data)).encode() + b"\0" + data).hexdigest()


def check_manifest(path, base: Path) -> None:
    """Input hashes recomputed here; every listed output present beside it."""
    manifest = json.loads(Path(path).read_text())
    _require(manifest["inputs"], f"manifest {Path(path).name}: no inputs")
    for name, digest in manifest["inputs"].items():
        own = blob_sha1(base / name)
        _require(digest == own, f"manifest {Path(path).name}: {name} hash {digest}, own {own}")
    for name in manifest["outputs"]:
        _require((Path(path).parent / name).is_file(), f"manifest {Path(path).name}: {name} missing")
