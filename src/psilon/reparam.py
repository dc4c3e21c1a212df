"""Weight reparameterizations: L1/L2 weight normalization, L1-sphere
projection, the CReLU paired projection, and the alpha-blended pruning form.

One row-normalizer kernel serves every layer.  It takes a tuple of raw
matrices, (V,) for a dense layer or (V+, V-) for a CReLU pair, and divides
(or projects) their rows by a normalizer taken from the rows of one source
matrix: the elementwise max of |V| over the tuple, which is |V| itself for
a single matrix.  Where the pair ties, the first matrix owns the entry and
receives its gradient (`row_source`).  The kernel's manual backward
(vector-Jacobian product) is used by the network backward pass and is
checked against central finite differences in the tests.  What the kernel
derives from the raw matrices before it scales them (the source's owners,
the row norms, and for a projection the source and its thresholds) is one
`NormState`: the forward entry points fill an empty one, and the backward
entry points given it recompute none of it, so a training step takes the
row norms and the projection's threshold sort once per layer.  The
pruning blend at alpha = 0 is L1 weight normalization up to the sign of a
zero, so it runs the L1WN kernel alone, forward and backward.

Sign conventions, kept deliberately distinct:
  * the weight-normalization subgradient uses sign(0) = 0 (a valid
    subgradient selection);
  * the projection operators use sign(w + eps) with eps = 1e-8, which is
    never zero, so projected points land on the sphere even from the
    interior of the ball.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

PROJ_EPS = 1e-8

__all__ = [
    "DegenerateInputError",
    "NormMode",
    "NormState",
    "L1WN",
    "L2WN",
    "L1PROJ",
    "NONE",
    "blend",
    "proj_l1_sphere",
    "rows_threshold",
    "row_source",
    "zero_norm_rows",
    "rows_effective",
    "rows_backward",
    "pair_effective",
    "pair_backward",
]


class DegenerateInputError(ValueError):
    """Zero direction vector under a weight-normalization mode."""


@dataclass(frozen=True)
class NormMode:
    """Normalization tag; `alpha` is only meaningful for the blend."""

    tag: str  # "l1wn" | "l2wn" | "l1proj" | "blend" | "none"
    alpha: float = 0.0

    def __post_init__(self):
        if self.tag not in ("l1wn", "l2wn", "l1proj", "blend", "none"):
            raise ValueError(f"unknown normalization mode {self.tag!r}")
        if self.tag == "blend" and not 0.0 <= self.alpha <= 1.0:
            raise ValueError("blend alpha must lie in [0, 1]")

    def encode(self) -> str:
        return f"blend:{self.alpha!r}" if self.tag == "blend" else self.tag

    @staticmethod
    def decode(s: str) -> "NormMode":
        if s.startswith("blend:"):
            return NormMode("blend", float(s.split(":", 1)[1]))
        return NormMode(s)


L1WN = NormMode("l1wn")
L2WN = NormMode("l2wn")
L1PROJ = NormMode("l1proj")
NONE = NormMode("none")


def blend(alpha: float) -> NormMode:
    return NormMode("blend", float(alpha))


def proj_l1_sphere(w: np.ndarray) -> np.ndarray:
    """Euclidean projection of w onto the unit L1 sphere."""
    return rows_effective(np.asarray(w, dtype=np.float64)[None, :], np.ones(1), L1PROJ)[0]


# --- the row-normalizer kernel used by the network layers ----------------------
#
# A layer hands the kernel a tuple of raw matrices: (V,) for a dense layer,
# (V+, V-) for a CReLU pair.  Each is (h, d) with one direction vector per
# row; g is (1,) for a shared length or (h,) per-row.  All matrices of the
# tuple share the row normalizer of one source matrix (`row_source`).
# Upstream gradients come as a tuple of the effective matrices' shapes.


def rows_threshold(v: np.ndarray) -> np.ndarray:
    """Per-row shifts that project each row onto the unit L1 sphere.

    Per row: descending sort of |v|, running (cumsum - 1)/k, taken at the
    largest k where it still sits below the k-th magnitude.  Negative for a
    row inside the unit ball (the projection then inflates onto the sphere).
    """
    u = -np.sort(-np.abs(v), axis=1)
    d = v.shape[1]
    c = (np.cumsum(u, axis=1) - 1.0) / np.arange(1, d + 1)
    idx = np.sum(c < u, axis=1)
    return c[np.arange(v.shape[0]), idx - 1]


def row_source(vs: tuple) -> tuple:
    """Row-normalizer source of one or two raw matrices, and its owners.

    Returns (S, owners): S is the elementwise max of |V| over the tuple
    (|V| itself for one matrix) and owners[i] masks the entries of S that
    vs[i] supplies.  In a tie the first matrix owns the entry, so gradient
    through S goes to exactly one matrix; a single matrix owns every entry
    (its mask is plain True).
    """
    if len(vs) == 1:
        return np.abs(vs[0]), (True,)
    ap, am = np.abs(vs[0]), np.abs(vs[1])
    first = ap >= am
    return np.maximum(ap, am), (first, ~first)


@dataclass
class NormState:
    """What the kernel derives from a layer's raw matrices before it scales
    them, kept so that the VJP recomputes none of it: the `row_source`
    owners, the weight-normalization divisors of the rows (l1wn, l2wn and
    the blend's L1 part), and for a projection (l1proj, blend) the source
    and its `rows_threshold` shifts.  The forward kernel fills an empty
    one; a filled one belongs to the raw matrices and mode it was filled
    from.  Under l1wn it holds the row norms and, for a pair, the two owner
    masks, but no matrix of magnitudes."""

    owners: tuple | None = None
    norms: np.ndarray | None = None  # (h,)
    source: np.ndarray | None = None  # (h, d), projections only
    tau: np.ndarray | None = None  # (h,), projections only


def _owned(x: np.ndarray, owner) -> np.ndarray:
    # x on the entries this matrix supplies to the source, 0 elsewhere
    return x if owner is True else np.where(owner, x, 0.0)


def _row_sum(mats: list) -> np.ndarray:
    # per-row sums of each matrix, added across the tuple in order
    return functools.reduce(np.add, [m.sum(axis=1) for m in mats])


def _norms(s: np.ndarray, mode_tag: str) -> np.ndarray:
    # the weight-normalization divisor of each row of the source s: its L2
    # norm under l2wn, else its L1 norm
    return np.sqrt((s * s).sum(axis=1)) if mode_tag == "l2wn" else s.sum(axis=1)


def _row_norms(s: np.ndarray, mode_tag: str) -> np.ndarray:
    # the divisor, for the forward kernel and its VJP
    n = _norms(s, mode_tag)
    if (n == 0.0).any():
        raise DegenerateInputError("zero direction row under weight normalization")
    return n


def _fill(state: NormState | None, vs: tuple, mode: NormMode) -> NormState:
    """`state` (a new one for None) holding the normalizer of the raw
    matrices `vs` under `mode` (l1wn, l2wn, l1proj or blend), computed here
    unless it already does."""
    if state is None:
        state = NormState()
    if state.owners is None:
        s, state.owners = row_source(vs)
        if mode.tag != "l1proj":
            state.norms = _row_norms(s, mode.tag)
        if mode.tag in ("l1proj", "blend"):
            state.source, state.tau = s, rows_threshold(s)
    return state


def zero_norm_rows(vs: tuple, mode: NormMode) -> np.ndarray:
    """Indices of the rows of the raw matrices `vs` that the kernel cannot
    normalize under `mode`: those whose divisor is 0, the L1 norm of the
    `row_source` row under l1wn and blend, its L2 norm under l2wn.  An L2
    norm is 0 also for a nonzero row whose squares underflow.  Empty for
    the modes that divide by no norm."""
    if mode.tag not in ("l1wn", "l2wn", "blend"):
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(_norms(row_source(vs)[0], mode.tag) == 0.0)


def _g_col(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    # broadcast shared scalar or per-row lengths to a column
    if g.shape == (1,):
        return np.full((v.shape[0], 1), g[0])
    return g[:, None]


def _at_blend_zero(mode: NormMode) -> NormMode:
    # blend(0) weighs the projection by 0: it is L1WN up to the sign of a
    # zero, so it runs only the L1WN kernel (which also keeps rejecting a
    # zero direction row)
    return L1WN if mode.tag == "blend" and mode.alpha == 0.0 else mode


def _project(vs: tuple, gc: np.ndarray, st: NormState) -> list:
    # gc * max(0, |v| - tau) * sign(v + eps), one output per matrix
    tau = st.tau[:, None]
    out = []
    for v in vs:
        w = np.abs(v)
        w -= tau
        np.maximum(0.0, w, out=w)
        s_eps = v + PROJ_EPS
        w *= np.sign(s_eps, out=s_eps)
        w *= gc
        out.append(w)
    return out


def _normalize(vs: tuple, gc: np.ndarray, st: NormState) -> list:
    # gc * v / n, one output per matrix
    n = st.norms[:, None]
    out = []
    for v in vs:
        w = gc * v
        w /= n
        out.append(w)
    return out


def _effective(vs: tuple, g: np.ndarray, mode: NormMode, state: NormState | None = None) -> list:
    """Effective matrices for a tuple of raw matrices sharing one normalizer;
    an empty `state` is filled with it."""
    mode = _at_blend_zero(mode)
    if mode.tag == "none":
        return [v.copy() for v in vs]
    st = _fill(state, vs, mode)
    gc = _g_col(vs[0], g)
    if mode.tag == "l1proj":
        return _project(vs, gc, st)
    wn = _normalize(vs, gc, st)
    if mode.tag == "blend":
        # convex combination of the L1-normalized and projected forms
        a = mode.alpha
        for w1, w2 in zip(wn, _project(vs, gc, st)):
            w1 *= 1.0 - a
            w2 *= a
            w1 += w2
    return wn


def _vjp_mode(vs: tuple, gc: np.ndarray, tag: str, us, st: NormState) -> tuple:
    """(dV per matrix, per-row dg) through one of l1wn, l2wn, l1proj."""
    if tag == "l1proj":
        s, tau = st.source, st.tau[:, None]
        k = np.maximum((s > tau).sum(axis=1), 1)
        mags = [np.abs(v) for v in vs]
        acts = [m > tau for m in mags]
        s_eps = [np.sign(v + PROJ_EPS) for v in vs]
        q_eps = [gc * u * se for u, se in zip(us, s_eps)]
        # total sensitivity of the projected mass to the shared threshold,
        # spread over the active entries of the source
        coef = (_row_sum([np.where(act, q, 0.0) for act, q in zip(acts, q_eps)]) / k)[:, None]
        dvs = []
        for v, act, q, owner in zip(vs, acts, q_eps, st.owners):
            sv = np.sign(v)
            dvs.append(np.where(act, q * sv - _owned(sv, owner) * coef, 0.0))
        dg_rows = _row_sum([np.maximum(0.0, m - tau) * se * u for m, se, u in zip(mags, s_eps, us)])
        return dvs, dg_rows
    n = st.norms
    c = _row_sum([v * u for v, u in zip(vs, us)])
    # gc/n * (u - coef * dn), with dn the row norm's derivative, up to its
    # 1/n factor for l2wn, on the entries each matrix owns
    coef = (c / n)[:, None] if tag == "l1wn" else (c / (n * n))[:, None]
    scale = gc / n[:, None]
    dvs = []
    for v, u, owner in zip(vs, us, st.owners):
        if tag == "l1wn":
            d = _owned(np.sign(v), owner)
            d *= coef
        else:
            d = _owned(v, owner) * coef
        np.subtract(u, d, out=d)
        d *= scale
        dvs.append(d)
    return dvs, c / n


def _vjp(vs: tuple, g: np.ndarray, mode: NormMode, us: tuple, state: NormState | None = None) -> tuple:
    """Vector-Jacobian product through `_effective`: (dV per matrix, dg),
    dg shaped like g (summed over rows for a shared length).  `state` is
    the forward's, or None to compute it here."""
    mode = _at_blend_zero(mode)
    if mode.tag == "none":
        return [u.copy() for u in us], np.zeros_like(g)
    st = _fill(state, vs, mode)
    gc = _g_col(vs[0], g)
    if mode.tag == "blend":
        a = mode.alpha
        dvs, dg_rows = _vjp_mode(vs, gc, "l1wn", [(1.0 - a) * u for u in us], st)
        dv2, dg2 = _vjp_mode(vs, gc, "l1proj", [a * u for u in us], st)
        for x, y in zip(dvs, dv2):
            x += y
        dg_rows += dg2
    else:
        dvs, dg_rows = _vjp_mode(vs, gc, mode.tag, us, st)
    return dvs, (np.array([dg_rows.sum()]) if g.shape == (1,) else dg_rows)


# --- entry points: a dense layer is one matrix, a CReLU pair is two ----------
#
# Each takes an optional NormState: the forward entry points fill an empty
# one, and the backward entry points given the forward's state use it.


def rows_effective(v: np.ndarray, g: np.ndarray, mode: NormMode,
                   state: NormState | None = None) -> np.ndarray:
    """Effective weight matrix for self-normalized rows."""
    return _effective((v,), g, mode, state)[0]


def rows_backward(v: np.ndarray, g: np.ndarray, mode: NormMode, u: np.ndarray,
                  state: NormState | None = None):
    """(dV, dg) for upstream dL/dW = u; dg matches the shape of g."""
    (dv,), dg = _vjp((v,), g, mode, (u,), state)
    return dv, dg


def pair_effective(vp: np.ndarray, vm: np.ndarray, g: np.ndarray, mode: NormMode,
                   state: NormState | None = None):
    """Effective (W+, W-) for a pair normalized by the rows of max(|V+|, |V-|)."""
    wp, wm = _effective((vp, vm), g, mode, state)
    return wp, wm


def pair_backward(vp, vm, g, mode: NormMode, up, um, state: NormState | None = None):
    """(dV+, dV-, dg) for upstream gradients (up, um) of the pair."""
    (dvp, dvm), dg = _vjp((vp, vm), g, mode, (up, um), state)
    return dvp, dvm, dg
