"""2-D projection of the similarity matrix via exact t-SNE, plus plotting.

The t-SNE here is the exact O(M^2) algorithm, not a tree approximation:
Gaussian conditional affinities with a per-row bandwidth found by binary
search so every conditional distribution hits the target perplexity, a
symmetrized joint distribution, and gradient descent on KL(P || Q) against a
Student-t Q with early exaggeration, momentum, and per-coordinate adaptive
gains. Everything is seeded and pure numpy, so a fixed seed reproduces the
embedding bit for bit.

Both hot loops work on arrays, not single rows. The bandwidth search
bisects a block of rows at a time, each with the arithmetic a one-row
search would use, so P matches that search to the bit; it forms each
block's distances from the similarities and counts the rows that miss
their target as it goes, so the only M x M array it makes is P. The
descent holds the joint P and two buffers: no distances, no conditional P
and no exaggerated copy of P. A step gets every 1 + |y_i - y_j|^2 from
one (M x 4) @ (4 x M) product and keeps its M x M work in the two buffers.
The kernel's sum and the product W y run over the whole buffers; Q, W and
W's row sums are formed a cache-sized block of rows at a time, P's block
is exaggerated there, and Q's clamp at 1e-12 is skipped when a bound on
max |y_i|^2 proves it would change nothing. None of this moves a bit of
the result. The KL(P || Q) that a run reports is computed once, at the
last step.

The input is the :class:`simmatrix.SimilarityMatrix` that clustering uses;
t-SNE's distances are 1 minus its values, so a run computes the cosine
matrix once.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Mapping

import numpy as np

from .errors import ValidationError
from .registry import Registry
from .simmatrix import SimilarityMatrix

_EPS = 1e-12
_TOL_BITS = 1e-6  # bandwidth search: entropy tolerance in bits
# entries of the M x M distances in one row block of the bandwidth search:
# 64 KiB of float64, so a block's distances and the search's arrays over
# them stay small beside P
_SEARCH_BLOCK = 1 << 13
# entries of an M x M array in one row block of a descent step: 512 KiB of
# float64, so the blocks of the kernel, P and w that a step works on
# together stay in a 2 MiB L2 cache
_BLOCK = 1 << 16


@dataclass(frozen=True)
class TsneParams:
    perplexity: float = 30.0
    iterations: int = 1000
    learning_rate: float = 200.0
    early_exaggeration: float = 12.0
    exaggeration_iters: int = 250
    initial_momentum: float = 0.5
    final_momentum: float = 0.8
    momentum_switch_iter: int = 250
    seed: int = 0
    init_scale: float = 1e-4
    min_gain: float = 0.01

    def __post_init__(self):
        if not 0 <= self.seed < 2 ** 64:
            raise ValidationError("seed must be an unsigned 64-bit integer")
        # each rule is written so that NaN fails it
        for key, rule, holds in (
                ("perplexity", "> 1", self.perplexity > 1),
                ("iterations", ">= 1", self.iterations >= 1),
                ("learning_rate", "> 0", self.learning_rate > 0),
                ("early_exaggeration", "> 0", self.early_exaggeration > 0),
                ("exaggeration_iters", ">= 0", self.exaggeration_iters >= 0),
                ("initial_momentum", "in [0, 1)",
                 0 <= self.initial_momentum < 1),
                ("final_momentum", "in [0, 1)", 0 <= self.final_momentum < 1),
                ("momentum_switch_iter", ">= 0",
                 self.momentum_switch_iter >= 0),
                ("init_scale", "> 0", self.init_scale > 0),
                ("min_gain", ">= 0", self.min_gain >= 0)):
            if not holds:
                raise ValidationError(
                    f"tsne.{key} must be {rule}, got {getattr(self, key)!r}")

    def to_json(self) -> dict:
        return asdict(self)


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
    """KL(P || Q) in nats; ``q`` is clamped at _EPS, so no term divides
    by 0."""
    support = p > 0
    terms = p[support]
    # one buffer for the ratio, its log and the products: the KL holds two
    # gathered arrays at a time, not four
    ratio = np.divide(terms, q[support])
    np.log(ratio, out=ratio)
    return float(np.sum(np.multiply(terms, ratio, out=ratio)))


def _student_t(y: np.ndarray, num: np.ndarray) -> tuple[float, bool]:
    """Fill ``num`` with the Student-t kernel 1 / (1 + |y_i - y_j|^2), zero
    on the diagonal. Return the scale 1 / sum(num) that turns it into Q, and
    whether Q needs its clamp below at _EPS.

    The squared distances plus one come from a single (M x 4) @ (4 x M)
    product: [y, |y|^2, 1] . [-2y, 1, 1 + |y|^2] = 1 + |y_i|^2 - 2 y_i.y_j
    + |y_j|^2.

    The clamp is skipped when a bound proves it would change no
    off-diagonal entry: with R^2 = max |y_i|^2, every |y_i - y_j|^2 is at
    most 4 R^2, so every off-diagonal q is at least 1 / ((1 + 4 R^2) sum(num))
    up to a few roundings, which the factor 2 in the test covers. A NaN or
    infinite R^2 or sum fails the test, and Q is clamped.
    """
    m = len(y)
    sq = np.einsum("ij,ij->i", y, y)
    left = np.empty((m, 4))
    left[:, :2] = y
    left[:, 2] = sq
    left[:, 3] = 1.0
    right = np.empty((4, m))
    np.multiply(y.T, -2.0, out=right[:2])
    right[2] = 1.0
    np.add(sq, 1.0, out=right[3])
    np.matmul(left, right, out=num)
    np.reciprocal(num, out=num)
    np.fill_diagonal(num, 0.0)
    total = num.sum()
    return 1.0 / total, not (1.0 + 4.0 * sq.max()) * total <= 0.5 / _EPS


def _q(num: np.ndarray, scale: float, clamp: bool,
       out: np.ndarray) -> np.ndarray:
    """Q = num * scale, clamped below at _EPS if ``clamp``, into ``out``."""
    np.multiply(num, scale, out=out)
    if clamp:
        np.maximum(out, _EPS, out=out)
    return out


def _gradient(p: np.ndarray, y: np.ndarray, num: np.ndarray, w: np.ndarray,
              scale: float, clamp: bool, exaggeration: float) -> np.ndarray:
    """Gradient of KL(P' || Q) at ``y``, with P' = ``exaggeration`` * p:
    4 * sum_j w_ij (y_i - y_j) with w = (p' - q) * num, from the kernel and
    scale of :func:`_student_t`.

    ``w`` is filled with w a block of rows at a time, each block small
    enough to stay in cache from Q and P' to its row sums; P' exists only a
    block at a time. A row's sum does not depend on the block it is in, and
    ``w @ y`` runs over the whole buffer, so the gradient's bits do not
    depend on the block size.
    """
    m = len(y)
    rows = max(1, _BLOCK // m)
    row_sums = np.empty(m)
    for start in range(0, m, rows):
        block = slice(start, start + rows)
        wb = w[block]
        _q(num[block], scale, clamp, out=wb)
        pb = p[block] if exaggeration == 1.0 else p[block] * exaggeration
        np.subtract(pb, wb, out=wb)
        wb *= num[block]
        wb.sum(axis=1, out=row_sums[block])
    return 4.0 * (row_sums[:, None] * y - w @ y)


def tsne(matrix: SimilarityMatrix,
         params: TsneParams = TsneParams()) -> TsneResult:
    """Exact t-SNE of a similarity matrix's languages down to 2-D.

    The distances are ``1.0 - matrix.values``; row i of the result is
    ``matrix.languages[i]``. Requires at least 4 points and
    perplexity < (M - 1) / 3.
    """
    m = len(matrix)
    if m < 4:
        raise ValidationError(f"t-SNE needs at least 4 points, got {m}")
    if params.perplexity >= (m - 1) / 3.0:
        raise ValidationError(
            f"perplexity {params.perplexity} too large for {m} points; "
            f"needs perplexity < {(m - 1) / 3.0:.2f}")
    # the largest distance 1 - v is 1 - min(v): rounding is monotonic
    if float(matrix.values.min()) == 1.0:
        raise ValidationError("degenerate input: all points are identical")

    cond, misses = conditional_affinities(matrix, params.perplexity)
    p = joint_affinities(cond)
    del cond  # the descent needs only the joint P

    rng = np.random.default_rng(params.seed)
    y = rng.standard_normal((m, 2)) * params.init_scale
    velocity = np.zeros_like(y)
    gains = np.ones_like(y)
    num = np.empty((m, m))
    w = np.empty((m, m))

    for it in range(params.iterations):
        scale, clamp = _student_t(y, num)
        if it == params.iterations - 1:  # Q at the last step, before w
            final_kl = _kl_divergence(p, _q(num, scale, clamp, w))
        exaggeration = (params.early_exaggeration
                        if it < params.exaggeration_iters else 1.0)
        grad = _gradient(p, y, num, w, scale, clamp, exaggeration)

        momentum = (params.initial_momentum
                    if it < params.momentum_switch_iter
                    else params.final_momentum)
        same_sign = np.sign(grad) == np.sign(velocity)
        gains = np.where(same_sign, gains * 0.8, gains + 0.2)
        np.maximum(gains, params.min_gain, out=gains)
        velocity = momentum * velocity - params.learning_rate * gains * grad
        y = y + velocity
        y = y - y.mean(axis=0)

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
        params=params.to_json(),
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


def check_plot_settings(registry: Registry, color_by: str,
                        point_radius: float, font_size: int) -> None:
    """Reject plot settings :func:`emit_plot` cannot draw: a radius or font
    size that is not positive and finite (NaN included), or a ``color_by``
    that is neither "family" nor one of the registry's syntax features."""
    for name, value in (("point_radius", point_radius), ("font_size", font_size)):
        if not 0 < value < math.inf:
            raise ValidationError(
                f"{name} must be positive and finite, got {value:g}")
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

    check_plot_settings(registry, color_by, point_radius, font_size)
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
