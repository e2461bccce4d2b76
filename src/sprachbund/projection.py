"""2-D projection of the similarity matrix via exact t-SNE, plus plotting.

The t-SNE here is the exact O(M^2) algorithm, not a tree approximation:
Gaussian conditional affinities with a per-row bandwidth found by binary
search so every conditional distribution hits the target perplexity, a
symmetrized joint distribution, and gradient descent on KL(P || Q) against a
Student-t Q with early exaggeration, momentum, and per-coordinate adaptive
gains. The starting points are N(0, 1) draws times a small scale from
``random.Random(seed)``, the generator sampling uses, so a fixed seed
reproduces the embedding bit for bit and no run loads ``numpy.random``.

Both hot loops work on arrays, not single rows. The bandwidth search
bisects a block of rows at a time, each with the arithmetic a one-row
search would use, so P matches that search to the bit; it forms each
block's distances from the similarities and counts the rows that miss
their target as it goes, so the only M x M array it makes is P. The
descent holds the joint P and two M x M buffers: no distances, no
conditional P and no exaggerated copy of P. A step gets every
1 + |y_i - y_j|^2 from one (M x 4) @ (4 x M) product and works in buffers
made once per run. W, scaled by sum(num), is formed in one pass over P
with the exaggeration folded in, and Q's clamp at 1e-12 enters only when a
bound on max |y_i|^2 cannot rule it out. The kernel's sum, W y and W's row
sums are ``np.vecdot`` dot products over rows of M entries, which OpenBLAS
takes on one thread up to 10,000, so no bit depends on the thread count.
The KL(P || Q) that a run reports is computed once, at the last step, in
the buffer of W that the step then overwrites, so it adds only P's support
mask and one gather of the terms.

The input is the :class:`simmatrix.SimilarityMatrix` that clustering uses;
t-SNE's distances are 1 minus its values, so a run computes the cosine
matrix once.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field
from typing import Annotated, Mapping

import numpy as np

from .errors import ValidationError
from .registry import Registry, check_document
from .simmatrix import SimilarityMatrix

_EPS = 1e-12
_TOL_BITS = 1e-6  # bandwidth search: entropy tolerance in bits
# entries of the M x M distances in one row block of the bandwidth search:
# 64 KiB of float64, so a block's distances and the search's arrays over
# them stay small beside P
_SEARCH_BLOCK = 1 << 13


@dataclass(frozen=True)
class TsneParams:
    """The t-SNE settings, checked against their annotations, which also
    declare the config's ``tsne`` keys: ``tsne.<key> must be ...``."""

    perplexity: Annotated[float, "> 1"] = 30.0
    iterations: Annotated[int, "in [1, 10**5]"] = 1000
    learning_rate: Annotated[float, "> 0"] = 200.0
    early_exaggeration: Annotated[float, "> 0"] = 12.0
    exaggeration_iters: Annotated[int, ">= 0"] = 250
    initial_momentum: Annotated[float, "in [0, 1)"] = 0.5
    final_momentum: Annotated[float, "in [0, 1)"] = 0.8
    momentum_switch_iter: Annotated[int, ">= 0"] = 250
    seed: Annotated[int, "in [0, 2**64)"] = 0
    init_scale: Annotated[float, "> 0"] = 1e-4
    min_gain: Annotated[float, ">= 0"] = 0.01

    def __post_init__(self):
        check_document(vars(self), TsneParams, where="tsne")


@dataclass(eq=False)
class TsneResult:
    points: np.ndarray  # float64, shape (M, 2), unnormalized
    # ((iterations, KL(P || Q) at the last step),): the run's final KL
    kl_trace: tuple[tuple[int, float], ...]
    params: TsneParams
    unconverged_rows: int  # rows of P whose bandwidth search missed its target


def _entropy_bits(p: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits of each row of ``p``.

    Each row's sum of p*log(p) runs over its nonzero entries in index order,
    so a row's entropy does not depend on the other rows it is computed with.
    A row where some entry underflowed to 0 is summed over its nonzero
    entries alone, because a 0 term in the row would regroup numpy's pairwise
    sum and move the last bits.
    """
    nz = p > 0
    terms = p * np.log(np.where(nz, p, 1.0))
    nats = terms.sum(axis=1)
    for i in np.flatnonzero(~nz.all(axis=1)):
        nats[i] = np.sum(terms[i, nz[i]])
    return -nats / math.log(2.0)


def _gaussian_rows(rows: np.ndarray,
                   beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entropies (bits) and conditional distributions of the Gaussian kernel
    exp(-d * beta_i) over each row of distances."""
    logits = -rows * beta[:, None]
    logits -= logits.max(axis=1, keepdims=True)
    p = np.exp(logits)
    p /= p.sum(axis=1, keepdims=True)
    return _entropy_bits(p), p


def _bandwidth_search(rows: np.ndarray, target_bits: float,
                      max_steps: int) -> tuple[np.ndarray, int]:
    """The conditional distributions of a block of ``rows`` (each one
    point's distances to the others), and how many of them end the search
    more than :data:`_TOL_BITS` bits from ``target_bits``."""
    n = len(rows)
    beta = np.ones(n)
    beta_lo = np.zeros(n)
    beta_hi = np.full(n, math.inf)
    entropy, cond = _gaussian_rows(rows, beta)
    todo = np.arange(n)  # the rows still searching; entropy holds theirs
    for step in range(max_steps + 1):
        diff = entropy - target_bits
        missed = ~(np.abs(diff) <= _TOL_BITS)  # NaN misses, as a scalar test
        todo, diff = todo[missed], diff[missed]
        if not todo.size or step == max_steps:
            return cond, len(todo)
        b, lo, hi = beta[todo], beta_lo[todo], beta_hi[todo]
        flat = diff > 0  # too flat: sharpen
        beta_lo[todo] = np.where(flat, b, lo)
        beta_hi[todo] = np.where(flat, hi, b)
        beta[todo] = np.where(flat,
                              np.where(np.isinf(hi), b * 2.0, (b + hi) / 2.0),
                              (b + lo) / 2.0)
        entropy, cond[todo] = _gaussian_rows(rows[todo], beta[todo])


def conditional_affinities(matrix: SimilarityMatrix, perplexity: float, *,
                           max_steps: int = 200) -> tuple[np.ndarray, int]:
    """Row-stochastic conditional affinities P over the distances
    d = 1 - ``matrix.values``, with per-row bandwidth search, and the number
    of rows that ended the search more than :data:`_TOL_BITS` bits from
    their target.

    For each row i the precision beta_i of the Gaussian kernel
    exp(-d_ij * beta_i) over the other points is bisected until the
    conditional distribution's Shannon entropy matches log2(perplexity)
    within :data:`_TOL_BITS` bits: beta doubles until some step
    overshoots, then moves to the midpoint of its bracket. The rows are
    searched a block of about :data:`_SEARCH_BLOCK` entries at a time, their
    distances formed with the block, and within a block a row drops out of
    the search once it is within the tolerance; each row's arithmetic is
    that of a search of the row alone. A row whose entropy cannot reach the
    target (all its distances equal, say) stops after ``max_steps`` steps.
    The diagonal is zero.
    """
    values = matrix.values
    m = len(values)
    if not 1.0 < perplexity <= m - 1:
        raise ValidationError(
            f"perplexity must lie in (1, {m - 1}] for {m} points, "
            f"got {perplexity}")
    target_bits = math.log2(perplexity)
    p = np.zeros((m, m), dtype=np.float64)
    misses = 0
    step = max(1, _SEARCH_BLOCK // m)
    for start in range(0, m, step):
        rows = 1.0 - values[start:start + step]
        off = np.ones(rows.shape, dtype=bool)
        off[np.arange(len(rows)), np.arange(start, start + len(rows))] = False
        cond, missed = _bandwidth_search(rows[off].reshape(len(rows), m - 1),
                                         target_bits, max_steps)
        p[start:start + len(rows)][off] = cond.ravel()
        misses += missed
    return p, misses


def joint_affinities(conditional: np.ndarray) -> np.ndarray:
    """Symmetrized joint distribution: (P + P^T) / 2M. Sums to 1."""
    joint = conditional + conditional.T
    joint /= 2.0 * conditional.shape[0]
    return joint


def _kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL(P || Q) in nats, worked out in ``q``'s buffer, which it
    overwrites; ``q`` is clamped at _EPS, so no term divides by 0.

    Each term p * log(p / q) is formed in place where p > 0 and the terms
    are gathered in index order and summed, so the sum holds the support
    mask and one gathered array: the same arithmetic, and the same bits, as
    gathering p and q over the support and dividing those.
    """
    support = p > 0
    np.divide(p, q, out=q, where=support)
    np.log(q, out=q, where=support)
    np.multiply(p, q, out=q, where=support)
    return float(np.sum(q[support]))


class _Buffers:
    """The arrays a descent step works in, made once per run: the kernel
    ``num`` and ``w`` (M x M); the factors [y, |y|^2, 1] (M x 4) and
    [-2y, 1, 1 + |y|^2] (4 x M) of the kernel's product, their ones set
    here; |y|^2; the kernel's row sums; [y_x; y_y; 1] (3 x M), its ones
    set here; W y and W 1 (M x 3); and the gradient."""

    def __init__(self, m: int):
        self.num = np.empty((m, m))
        self.w = np.empty((m, m))
        self.left = np.empty((m, 4))
        self.left[:, 3] = 1.0
        self.right = np.empty((4, m))
        self.right[2] = 1.0
        self.sq = np.empty(m)
        self.num_sums = np.empty(m)
        self.y1 = np.empty((3, m))
        self.y1[2] = 1.0
        self.wy1 = np.empty((m, 3))
        self.grad = np.empty((m, 2))


def _student_t(y: np.ndarray, b: _Buffers) -> tuple[float, bool]:
    """Fill ``b.num`` with the Student-t kernel 1 / (1 + |y_i - y_j|^2),
    zero on the diagonal. Return sum(num), whose reciprocal turns it into
    Q, and whether Q needs its clamp below at _EPS.

    The squared distances plus one come from a single (M x 4) @ (4 x M)
    product: [y, |y|^2, 1] . [-2y, 1, 1 + |y|^2] = 1 + |y_i|^2 - 2 y_i.y_j
    + |y_j|^2, four products an entry however BLAS splits the product. The
    sum adds up each row's ``vecdot`` with ones.

    The clamp is skipped when a bound proves it would change no
    off-diagonal entry: with R^2 = max |y_i|^2, every |y_i - y_j|^2 is at
    most 4 R^2, so every off-diagonal q is at least 1 / ((1 + 4 R^2) sum(num))
    up to a few roundings, which the factor 2 in the test covers. A NaN or
    infinite R^2 or sum fails the test, and Q is clamped.
    """
    m = len(y)
    num, sq = b.num, b.sq
    np.einsum("ij,ij->i", y, y, out=sq)
    b.left[:, :2] = y
    b.left[:, 2] = sq
    np.multiply(y.T, -2.0, out=b.right[:2])
    np.add(sq, 1.0, out=b.right[3])
    np.matmul(b.left, b.right, out=num)
    np.reciprocal(num, out=num)
    num.reshape(-1)[::m + 1] = 0.0
    total = float(np.add.reduce(np.vecdot(num, b.y1[2], out=b.num_sums)))
    return total, not (1.0 + 4.0 * np.maximum.reduce(sq)) * total <= 0.5 / _EPS


def _q(num: np.ndarray, total: float, clamp: bool,
       out: np.ndarray) -> np.ndarray:
    """Q = num / total, clamped below at _EPS if ``clamp``, into ``out``."""
    np.multiply(num, 1.0 / total, out=out)
    if clamp:
        np.maximum(out, _EPS, out=out)
    return out


def _gradient(p: np.ndarray, y: np.ndarray, b: _Buffers, total: float,
              clamp: bool, exaggeration: float) -> np.ndarray:
    """Gradient of KL(P' || Q) at ``y``, with P' = ``exaggeration`` * p:
    4 * sum_j w_ij (y_i - y_j) with w = (p' - q) * num, from the kernel and
    sum of :func:`_student_t`, into ``b.grad``.

    With s = 1 / sum(num), w = s w' for w' = (e sum(num) p - num) * num,
    formed in ``b.w`` in one pass over P. Where Q's clamp may act,
    max(num, _EPS sum(num)) = q / s is subtracted instead of num. One
    ``vecdot`` of each row of w' with y_x, y_y and 1 gives w' y and w' 1.
    """
    w = np.multiply(p, exaggeration * total, out=b.w)
    w -= np.maximum(b.num, _EPS * total) if clamp else b.num
    w *= b.num
    b.y1[:2] = y.T
    wy1 = np.vecdot(w[:, None, :], b.y1, out=b.wy1)
    grad = np.multiply(y, wy1[:, 2:], out=b.grad)
    grad -= wy1[:, :2]
    grad *= 4.0 / total
    return grad


def _initial_points(m: int, params: TsneParams) -> np.ndarray:
    """The descent's M starting points: 2 M draws of N(0, 1), row by row,
    from ``random.Random(params.seed)``, the generator that sampling and
    the random baseline use, times ``params.init_scale``."""
    gauss = random.Random(params.seed).gauss
    y = np.array([gauss(0.0, 1.0) for _ in range(2 * m)]).reshape(m, 2)
    y *= params.init_scale
    return y


def check_tsne_bounds(m: int, perplexity: float) -> None:
    """Reject M points that t-SNE cannot embed at ``perplexity``: it needs
    at least 4 points and perplexity < (M - 1) / 3."""
    if m < 4:
        raise ValidationError(f"t-SNE needs at least 4 points, got {m}")
    if perplexity >= (m - 1) / 3.0:
        raise ValidationError(
            f"perplexity {perplexity} too large for {m} points; "
            f"needs perplexity < {(m - 1) / 3.0:.2f}")


def tsne(matrix: SimilarityMatrix,
         params: TsneParams = TsneParams()) -> TsneResult:
    """Exact t-SNE of a similarity matrix's languages down to 2-D.

    The distances are ``1.0 - matrix.values``; row i of the result is
    ``matrix.languages[i]``. Requires at least 4 points and
    perplexity < (M - 1) / 3.
    """
    m = len(matrix)
    check_tsne_bounds(m, params.perplexity)
    # the largest distance 1 - v is 1 - min(v): rounding is monotonic
    if float(matrix.values.min()) == 1.0:
        raise ValidationError("degenerate input: all points are identical")

    cond, misses = conditional_affinities(matrix, params.perplexity)
    p = joint_affinities(cond)
    del cond  # the descent needs only the joint P

    y = _initial_points(m, params)
    b = _Buffers(m)
    velocity = np.zeros((m, 2))
    gains = np.ones((m, 2))
    # the update's buffers: the signs of grad and velocity, whether they
    # agree, the shrunk gains, the step and the mean of y
    sign_grad, sign_velocity = np.empty((m, 2)), np.empty((m, 2))
    same_sign = np.empty((m, 2), dtype=bool)
    shrunk, step, mean = np.empty((m, 2)), np.empty((m, 2)), np.empty(2)

    for it in range(params.iterations):
        total, clamp = _student_t(y, b)
        if it == params.iterations - 1:  # Q at the last step, in w
            final_kl = _kl_divergence(p, _q(b.num, total, clamp, b.w))
        exaggeration = (params.early_exaggeration
                        if it < params.exaggeration_iters else 1.0)
        grad = _gradient(p, y, b, total, clamp, exaggeration)

        momentum = (params.initial_momentum
                    if it < params.momentum_switch_iter
                    else params.final_momentum)
        np.equal(np.sign(grad, out=sign_grad),
                 np.sign(velocity, out=sign_velocity), out=same_sign)
        # gains * 0.8 where the signs agree, gains + 0.2 where they differ
        np.multiply(gains, 0.8, out=shrunk)
        gains += 0.2
        np.copyto(gains, shrunk, where=same_sign)
        np.maximum(gains, params.min_gain, out=gains)
        # velocity = momentum * velocity - learning_rate * gains * grad
        np.multiply(gains, params.learning_rate, out=step)
        step *= grad
        velocity *= momentum
        velocity -= step
        y += velocity
        y -= np.divide(np.add.reduce(y, axis=0, out=mean), m, out=mean)

    return TsneResult(points=y, kl_trace=((params.iterations, final_kl),),
                      params=params, unconverged_rows=misses)


def minmax_normalize(points: np.ndarray) -> np.ndarray:
    """Per-axis (x - min) / (max - min) into [0, 1]; constant axes map to 0.5."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValidationError("need a non-empty (n, d) array of points")
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = hi - lo
    out = np.empty_like(pts)
    for axis in range(pts.shape[1]):
        if span[axis] == 0.0:
            out[:, axis] = 0.5
        else:
            out[:, axis] = (pts[:, axis] - lo[axis]) / span[axis]
    return out


@dataclass(eq=False)
class Projection2D:
    """Normalized 2-D coordinates per language, with the run's parameters
    and, from :func:`project`, the t-SNE fit they came from (its final KL
    and bandwidth misses are diagnostics for the run log, not part of the
    artifact)."""

    languages: tuple[str, ...]
    points: np.ndarray  # float64, shape (M, 2), in [0, 1]^2
    params: Mapping[str, object] = field(default_factory=dict)
    fit: TsneResult | None = None

    def __post_init__(self):
        self.languages = tuple(self.languages)
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.shape != (len(self.languages), 2):
            raise ValidationError(
                f"need one (x, y) point per language, got shape "
                f"{self.points.shape} for {len(self.languages)} languages")
        if not np.all(np.isfinite(self.points)):
            raise ValidationError(
                "projection coordinates are not finite: t-SNE diverged")
        if np.any(self.points < 0.0) or np.any(self.points > 1.0):
            raise ValidationError("projection coordinates must lie in [0, 1]")
        self.params = dict(self.params)

    def to_json(self) -> dict:
        return {
            "languages": list(self.languages),
            "xy": [[float(x), float(y)] for x, y in self.points],
            "params": dict(self.params),
        }


def project(matrix: SimilarityMatrix,
            params: TsneParams = TsneParams()) -> Projection2D:
    """t-SNE of ``matrix`` then min-max normalization, packaged with its
    language codes."""
    result = tsne(matrix, params)
    return Projection2D(
        languages=matrix.languages,
        points=minmax_normalize(result.points),
        params=asdict(params),
        fit=result,
    )


# 24 visually distinct fills; categories are assigned in sorted order and the
# palette wraps if there are ever more categories than colors
PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#aec7e8", "#ffbb78",
    "#98df8a", "#ff9896", "#c5b0d5", "#c49c94", "#f7b6d2", "#dbdb8d",
    "#9edae5", "#393b79", "#637939", "#8c6d31", "#843c39", "#7b4173",
)
MISSING_COLOR = "#999999"


def check_plot_settings(registry: Registry, color_by: str) -> None:
    """Reject a ``color_by`` that is neither "family" nor a syntax feature."""
    if color_by != "family" and color_by not in registry.feature_names:
        raise ValidationError(
            f"unknown color_by attribute {color_by!r}; expected 'family' or "
            f"one of {', '.join(registry.feature_names)}")


def emit_plot(projection: Projection2D, registry: Registry,
              color_by: str = "family", *,
              point_radius: float = 5.0, font_size: int = 11,
              size: int = 1000) -> tuple[str, dict]:
    """Labeled SVG scatter plot plus its JSON data.

    Every point is labeled with its language code and colored by the chosen
    attribute ("family" or a syntax feature name); languages missing the
    attribute are gray. Attribute values are XML-escaped (codes are
    [a-z]{2,4} by construction). Output bytes are deterministic for fixed
    inputs.
    """
    from html import escape  # only plotting pays for this import

    check_plot_settings(registry, color_by)
    attrs = registry.labels(projection.languages, color_by)
    categories = sorted({v for v in attrs.values() if v is not None})
    colors = {cat: PALETTE[i % len(PALETTE)] for i, cat in enumerate(categories)}

    margin = 60.0
    span = size - 2 * margin
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size} {size}" '
        f'width="{size}" height="{size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for code, (x, y) in zip(projection.languages, projection.points):
        px = margin + float(x) * span
        py = size - margin - float(y) * span
        fill = colors.get(attrs[code], MISSING_COLOR)
        parts.append(
            f'<circle cx="{px:.2f}" cy="{py:.2f}" r="{point_radius:g}" '
            f'fill="{fill}" fill-opacity="0.85"/>')
        parts.append(
            f'<text x="{px + point_radius + 2:.2f}" y="{py + font_size / 3:.2f}" '
            f'font-size="{font_size}" font-family="sans-serif">{code}</text>')
    legend_y = margin / 2
    for i, cat in enumerate(categories):
        ly = legend_y + i * (font_size + 6)
        parts.append(
            f'<rect x="{size - margin * 3:.2f}" y="{ly:.2f}" width="12" '
            f'height="12" fill="{colors[cat]}"/>')
        parts.append(
            f'<text x="{size - margin * 3 + 16:.2f}" y="{ly + 10:.2f}" '
            f'font-size="{font_size}" font-family="sans-serif">'
            f'{escape(cat, quote=False)}</text>')
    parts.append("</svg>")
    svg = "\n".join(parts) + "\n"

    data = projection.to_json()
    data["color_by"] = color_by
    data["categories"] = categories
    return svg, data
