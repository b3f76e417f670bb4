"""Perfect fractional matchings: entropy, normality, scaling, shifts.

A perfect fractional matching assigns nonnegative weights to the arcs of a
digraph so that every vertex has unit outgoing and unit incoming weight.
The maximum-entropy matching is computed by alternating proportional
scaling of the rows and columns of the support matrix, so the weights
factor as x_{vw} = r_v * c_w.  The factors give a Lagrangian dual value U
that bounds the entropy of every perfect fractional matching on the
support; the gap U - h(x) is zero exactly at the optimum, and the solver
reports it as its optimality certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InputError, ParseError, ProcedureError, read_body, read_header
from .graphs import Digraph

ROWSUM_TOL = 1e-9
SOLVER_TOL = 1e-10
SHIFT_ENTROPY_TOL = 1e-12


class PerfectFractionalMatching:
    """Immutable arc weighting with unit out- and in-sums at every vertex.

    ``residual`` is the worst deviation of an out- or in-sum from 1.
    """

    __slots__ = ("host", "weights", "residual", "_entropy")

    def __init__(self, host: Digraph, weights: np.ndarray, tol: float = ROWSUM_TOL):
        w = np.array(weights, dtype=float)
        n = host.n
        if w.shape != (n, n):
            raise InputError(f"weight matrix must be {n}x{n}, got {w.shape}")
        # a NaN weight would pass every comparison below
        if not np.isfinite(w).all():
            raise InputError("arc weights must be finite")
        if np.any(w < -1e-15):
            raise InputError("negative arc weight")
        w[w < 0] = 0.0
        off = ~host.mask
        if np.any(w[off] != 0.0):
            raise InputError("nonzero weight on a non-arc")
        worst = 0.0
        if n > 0:
            # out-sums then in-sums, so k < n names an out-sum
            residual = np.abs(np.concatenate([w.sum(axis=1), w.sum(axis=0)]) - 1.0)
            k = int(residual.argmax())
            worst = float(residual[k])
            if worst > tol:
                raise InputError(
                    f"unit-sum invariant violated at vertex {k % n} "
                    f"({'out' if k < n else 'in'}): "
                    f"max residual {worst:.3e} > {tol}"
                )
        w.setflags(write=False)
        self.host = host
        self.weights = w
        self.residual = worst
        self._entropy = None

    @property
    def n(self) -> int:
        return self.host.n

    def __repr__(self) -> str:
        return f"PerfectFractionalMatching(n={self.n}, m={self.host.m})"


PFM = PerfectFractionalMatching


def matching_entropy(x: PFM) -> float:
    """h(x) = sum over arcs of x_e log2(1/x_e), in bits, computed once per matching."""
    if x._entropy is None:
        w = x.weights
        pos = w > 0
        x._entropy = float(-(w[pos] * np.log2(w[pos])).sum())
    return x._entropy


def vertex_entropy(x: PFM, v: int, side: str) -> float:
    """Entropy of the outgoing (or incoming) weight distribution at v."""
    if not (0 <= v < x.n):
        raise InputError(f"unknown vertex id {v}")
    if side == "out":
        row = x.weights[v]
    elif side == "in":
        row = x.weights[:, v]
    else:
        raise InputError(f"side must be 'out' or 'in', got {side!r}")
    pos = row > 0
    return float(-(row[pos] * np.log2(row[pos])).sum())


@dataclass(frozen=True)
class NormalityReport:
    """Smallest b with 1/(bn) <= x_e <= b/n on every arc of the host."""

    b_min: float
    attaining: tuple[tuple[int, int], ...]
    support_gaps: tuple[tuple[int, int], ...]  # host arcs carrying zero weight


def normality(x: PFM) -> NormalityReport:
    """Arcs are visited row-major, the ascending order of (u, v) pairs."""
    rows, cols = np.nonzero(x.host.mask)
    w = x.weights[rows, cols]
    gap = w == 0.0
    if gap.any():
        gaps = tuple(zip(rows[gap].tolist(), cols[gap].tolist()))
        return NormalityReport(b_min=math.inf, attaining=gaps, support_gaps=gaps)
    nw = x.n * w
    b_e = np.maximum(nw, 1.0 / nw)
    b_min = max(1.0, float(b_e.max())) if b_e.size else 1.0
    top = b_e >= b_min * (1 - 1e-12)
    attaining = tuple(zip(rows[top].tolist(), cols[top].tolist()))
    return NormalityReport(b_min=b_min, attaining=attaining, support_gaps=())


@dataclass(frozen=True)
class ScalingCertificate:
    row_factors: tuple[float, ...]
    col_factors: tuple[float, ...]
    dual_gap: float              # U - h(x) in bits; 0 at the optimum
    iterations: int


def max_entropy_matching(
    g: Digraph, tol: float = SOLVER_TOL, max_iters: Optional[int] = None
) -> tuple[PFM, ScalingCertificate]:
    """Maximum-entropy perfect fractional matching via alternating scaling.

    Raises ProcedureError (with the last residual) if the iteration does
    not converge, which signals that the support admits no perfect
    fractional matching or is ill-conditioned.
    """
    n = g.n
    if n == 0:
        raise InputError("empty graph has no matching")
    isolated = np.flatnonzero(~g.mask.any(axis=1) | ~g.mask.any(axis=0))
    if isolated.size:
        raise InputError(f"vertex {isolated[0]} has no out- or in-neighbors")
    if max_iters is None:
        max_iters = max(1000, int(10 * n * math.log(max(n, 2))) + 100)
    A = g.mask.astype(float)
    r = np.ones(n)
    c = np.ones(n)
    residual = math.inf
    iters = 0
    for iters in range(1, max_iters + 1):
        rows = (A * c[None, :]).sum(axis=1) * r
        r /= rows
        cols = (A * r[:, None]).sum(axis=0) * c
        c /= cols
        w = r[:, None] * A * c[None, :]
        residual = float(
            max(np.abs(w.sum(axis=1) - 1.0).max(), np.abs(w.sum(axis=0) - 1.0).max())
        )
        if residual < tol:
            break
    else:
        raise ProcedureError(
            f"scaling did not converge in {max_iters} iterations",
            residual=residual,
            iterations=max_iters,
        )
    x = PFM(g, w, tol=max(ROWSUM_TOL, 10 * tol))
    # the Lagrangian dual of max h(x) at multipliers -ln r - 1/2 and
    # -ln c - 1/2; by weak duality U >= h of every feasible matching
    upper = (w.sum() - np.log(r).sum() - np.log(c).sum() - n) / math.log(2)
    cert = ScalingCertificate(
        row_factors=tuple(float(v) for v in r),
        col_factors=tuple(float(v) for v in c),
        dual_gap=float(upper) - matching_entropy(x),
        iterations=iters,
    )
    return x, cert


# ---------------------------------------------------------------------------
# 4-cycle shifts
# ---------------------------------------------------------------------------

def _product_alpha(a: float, b: float, c: float, d: float) -> float:
    """Shift equating the products of a 4-cycle's losing (a, b) and gaining (c, d) arcs."""
    denom = a + b + c + d
    return (a * b - c * d) / denom if denom > 0 else 0.0


def max_shift(x: PFM, cycle: tuple[int, int, int, int]) -> float:
    """Largest alpha keeping the product inequality valid after the shift."""
    v, w, u, z = cycle
    a, b_ = x.weights[v, w], x.weights[u, z]
    alpha = _product_alpha(a, b_, x.weights[u, w], x.weights[v, z])
    return float(max(0.0, min(alpha, a, b_)))


def fourcycle_shift(
    x: PFM, cycle: tuple[int, int, int, int], alpha: float
) -> PFM:
    """Move alpha around the bipartite 4-cycle v+ w- u+ z-.

    Decreases arcs (v,w) and (u,z), increases arcs (u,w) and (v,z); all
    vertex sums are preserved exactly and entropy never decreases while
    the product inequality holds.
    """
    v, w, u, z = cycle
    if len({v, u}) < 2 or len({w, z}) < 2:
        raise InputError("cycle endpoints must be distinct on each side")
    for (a, b_) in ((v, w), (u, z), (u, w), (v, z)):
        if not x.host.has_arc(a, b_):
            raise InputError(f"arc ({a},{b_}) not in host: not a 4-cycle")
    if alpha < 0:
        raise InputError(f"alpha must be nonnegative, got {alpha}")
    xvw, xuz = x.weights[v, w], x.weights[u, z]
    xuw, xvz = x.weights[u, w], x.weights[v, z]
    if xvw * xuz < xuw * xvz - 1e-15:
        raise InputError(
            f"product inequality fails before shift: "
            f"x[{v},{w}]*x[{u},{z}] = {xvw * xuz:.6e} < "
            f"x[{u},{w}]*x[{v},{z}] = {xuw * xvz:.6e}"
        )
    if alpha > min(xvw, xuz) + 1e-15:
        raise InputError(
            f"alpha = {alpha} exceeds available weight min({xvw}, {xuz})"
        )
    nvw, nuz, nuw, nvz = xvw - alpha, xuz - alpha, xuw + alpha, xvz + alpha
    if nvw * nuz < nuw * nvz - 1e-12:
        raise InputError(
            f"product inequality fails after shift: "
            f"{nvw * nuz:.6e} < {nuw * nvz:.6e}"
        )
    if max(nuw, nvz) > 1.0 + 1e-12:
        raise InputError("shift would push a weight above 1")
    before = matching_entropy(x)
    wmat = np.array(x.weights)
    wmat[v, w] = max(nvw, 0.0)
    wmat[u, z] = max(nuz, 0.0)
    wmat[u, w] = nuw
    wmat[v, z] = nvz
    out = PFM(x.host, wmat)
    after = matching_entropy(out)
    if after < before - SHIFT_ENTROPY_TOL:
        raise ProcedureError(
            "entropy decreased across a legal shift",
            before=before, after=after,
        )
    return out


def heavy_mass(x: PFM, b: float) -> float:
    """Total weight on arcs with x_e >= b/n.

    When h(x) >= n log2(n/2) additionally asserts the 4n/log2(b) cap.
    """
    if b <= 1:
        raise InputError(f"b must exceed 1, got {b}")
    n = x.n
    mass = float(x.weights[x.weights >= b / n].sum())
    if matching_entropy(x) >= n * math.log2(n / 2.0):
        cap = 4.0 * n / math.log2(b)
        if mass > cap + 1e-9:
            raise ProcedureError(
                "heavy mass exceeds its cap under the entropy hypothesis",
                mass=mass, cap=cap,
            )
    return mass


# ---------------------------------------------------------------------------
# rebalancing after vertex removal
# ---------------------------------------------------------------------------

# the pass cap of each side's row redistribution in rebalance_after_removal
_REDISTRIBUTE_PASSES = 500


@dataclass(frozen=True)
class RebalanceReport:
    entropy: float
    target: float
    slack: float
    meets_target: bool
    passes: int


@dataclass(frozen=True)
class RebalanceResult:
    matching: PFM
    new_vertex: Optional[int]
    report: RebalanceReport


def _redistribute_rows(
    w: np.ndarray, mask: np.ndarray, tol: float, max_passes: int
) -> int:
    """Equalize row sums by moving weight between rows inside one column.

    Moving weight from arc (d, z) to (t, z) changes only the out-sums of
    d and t, so column sums are untouched.  ``w`` must be zero off
    ``mask``; moves keep it so, since they land only on the taker's mask,
    so a donor's positive cells are all on its mask.

    Each (taker, donor) pair moves its deltas on all common columns at
    once, since every column touches only its own two cells; the running
    sums ``s`` and ``moved`` then take the deltas one by one, left to
    right, so they round exactly as a per-column loop would.

    A row within ``tol / 4`` of unit sum neither takes nor gives.  That
    floor picks the takers and donors at the start of each pass; applied
    inside the pass too, it ends a row's trading once earlier pairs bring
    it that close, where it would otherwise trade rounding residues of
    1e-16 to 1e-15 at the cost of a full pair each.  Rows still off by
    more than the floor keep trading, and the final check is against
    ``tol``, four times the floor.
    """
    rows, mask_rows = list(w), list(mask)   # row views, also of a transpose
    floor = tol / 4
    passes = 0
    while passes < max_passes:
        s = w.sum(axis=1)
        if np.abs(s - 1.0).max() <= tol:
            return passes
        takers = np.flatnonzero(s < 1.0 - floor).tolist()
        donors = np.flatnonzero(s > 1.0 + floor).tolist()
        s = s.tolist()
        moved = 0.0
        for t in takers:
            need = 1.0 - s[t]
            for d in donors:
                if need <= floor:
                    break
                avail = s[d] - 1.0
                if avail <= floor:
                    continue
                w_d = rows[d]
                common = (mask_rows[t] & (w_d > 0)).nonzero()[0]
                if common.size == 0:
                    continue
                share = min(need, avail) / common.size
                from_d = w_d[common]
                delta = np.minimum(share, from_d)
                w_d[common] = from_d - delta
                rows[t][common] += delta
                s_d, s_t = s[d], s[t]
                for dz in delta.tolist():
                    moved += dz
                    s_d -= dz
                    s_t += dz
                s[d], s[t] = s_d, s_t
                need = 1.0 - s_t
        passes += 1
        if moved <= tol / 16:
            break
    s = w.sum(axis=1)
    if np.abs(s - 1.0).max() > tol:
        raise ProcedureError(
            "row redistribution stalled",
            residual=float(np.abs(s - 1.0).max()), passes=passes,
        )
    return passes


def rebalance_after_removal(
    x: PFM,
    removed: Iterable[int],
    attach_out: Optional[Sequence[int]] = None,
    attach_in: Optional[Sequence[int]] = None,
) -> RebalanceResult:
    """Rebuild a matching after deleting vertices, optionally attaching a
    fresh vertex whose neighborhoods are given in surviving (old) ids.

    Surviving weights are kept, the fresh vertex starts uniform on its
    arcs, everything is rescaled to total n', and residual unit-sum
    deviations are pushed along length-2 paths (out- and in-side repairs
    are independent because each preserves the other side's sums) until
    every sum is within ``ROWSUM_TOL`` of 1.  The entropy target is computed
    from ``matching_entropy(x)``, which the matching keeps once computed.
    """
    g = x.host
    removed = set(removed)
    for v in removed:
        if not (0 <= v < g.n):
            raise InputError(f"unknown vertex id {v}")
    if (attach_out is None) != (attach_in is None):
        raise InputError("attach_out and attach_in must be given together")
    keep = [v for v in range(g.n) if v not in removed]
    if not keep:
        raise InputError("cannot remove every vertex")
    relabel = {old: new for new, old in enumerate(keep)}
    attach = attach_out is not None
    entropy = matching_entropy(x)
    if not removed and not attach:
        rep = RebalanceReport(
            entropy=entropy, target=entropy,
            slack=0.0, meets_target=True, passes=0,
        )
        return RebalanceResult(matching=x, new_vertex=None, report=rep)
    kept = len(keep)
    n_new = kept + (1 if attach else 0)
    block = np.ix_(keep, keep)
    mask = np.zeros((n_new, n_new), dtype=bool)
    mask[:kept, :kept] = g.mask[block]
    u_id = None
    w = np.zeros((n_new, n_new))
    w[:kept, :kept] = np.where(mask[:kept, :kept], x.weights[block], 0.0)
    if attach:
        outs = sorted({relabel[v] for v in attach_out if v in relabel})
        ins = sorted({relabel[v] for v in attach_in if v in relabel})
        if len(outs) != len(set(attach_out)) or len(ins) != len(set(attach_in)):
            raise InputError("attachment neighborhoods must survive the removal")
        if not outs or not ins:
            raise InputError("attachment neighborhoods must be nonempty")
        u_id = n_new - 1
        mask[u_id, outs] = True
        mask[ins, u_id] = True
        w[u_id, outs] = 1.0 / len(outs)
        w[ins, u_id] = 1.0 / len(ins)
    lost = np.flatnonzero(~mask.any(axis=1) | ~mask.any(axis=0))
    if lost.size:
        raise ProcedureError(
            "semidegree collapse: a vertex lost all out- or in-neighbors",
            vertex=int(lost[0]),
        )
    host = Digraph._from_mask(mask)
    total = float(w.sum())
    if total <= 0:
        raise ProcedureError("no surviving weight to rescale", total=total)
    w *= n_new / total
    p1 = _redistribute_rows(w, mask, ROWSUM_TOL, _REDISTRIBUTE_PASSES)
    p2 = _redistribute_rows(w.T, mask.T, ROWSUM_TOL, _REDISTRIBUTE_PASSES)
    out = PFM(host, w, tol=2 * ROWSUM_TOL)
    h_new = matching_entropy(out)
    target = (kept / g.n) * entropy - kept * math.log2(g.n / kept)
    rep = RebalanceReport(
        entropy=h_new, target=target, slack=h_new - target,
        meets_target=h_new >= target - 1e-9, passes=p1 + p2,
    )
    return RebalanceResult(matching=out, new_vertex=u_id, report=rep)


# ---------------------------------------------------------------------------
# text format: "pfm <n> <m>" then "<u> <v> <weight>" per host arc
# ---------------------------------------------------------------------------

def write_pfm_text(x: PFM) -> str:
    lines = [f"pfm {x.n} {x.host.m}"]
    for u, v in zip(*np.nonzero(x.host.mask)):
        lines.append(f"{u} {v} {x.weights[u, v]:.17g}")
    return "\n".join(lines) + "\n"


def parse_pfm_text(text: str) -> PFM:
    """Read a matching; a refusal of the whole matching names no line."""
    lines, _, n, m = read_header(text, ("pfm",), "'pfm <n> <m>'", "vertex/arc count")
    if n < 0 or m < 0:
        raise ParseError(1, "negative vertex/arc count")
    body = read_body(lines, m, "arc", "<u> <v> <weight>")
    mask = np.zeros((n, n), dtype=bool)
    w = np.zeros((n, n))
    for idx, parts in body:
        try:
            u, v = int(parts[0]), int(parts[1])
            wt = float(parts[2])
        except ValueError:
            raise ParseError(idx, "malformed arc line") from None
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ParseError(idx, "bad arc endpoints")
        if mask[u, v]:
            raise ParseError(idx, f"duplicate arc {u} {v}")
        if wt < 0:
            raise ParseError(idx, "negative weight")
        if not math.isfinite(wt):
            raise ParseError(idx, "arc weights must be finite")
        mask[u, v] = True
        w[u, v] = wt
    return PFM(Digraph._from_mask(mask), w)
