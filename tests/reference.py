"""Independent brute-force reference implementations used as test oracles.

Everything here recomputes from first principles (explicit member lists,
fresh means from the original matrix, direct formula evaluation) and shares
no code with the library paths it checks.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np

from sprachbund.corpus import CorpusShard, SamplingPolicy
from sprachbund.embedding import LanguageRepresentation, SentenceEmbeddingSet
from sprachbund.errors import ValidationError
from sprachbund.registry import Registry


def naive_average_linkage(dist: np.ndarray):
    """O(n^3) agglomeration that recomputes every inter-cluster mean from
    scratch each step. Returns (merge list, partition snapshots by k).

    Merge entries are (left id, right id, distance, new id); ties break on
    the smallest (min id, max id) pair. Snapshots map k -> set of frozensets
    of leaf indices.
    """
    m = len(dist)
    members: dict[int, list[int]] = {i: [i] for i in range(m)}
    merges = []
    snapshots = {m: {frozenset(v) for v in members.values()}}
    next_id = m
    while len(members) > 1:
        best = None
        for a in sorted(members):
            for b in sorted(members):
                if a >= b:
                    continue
                total = 0.0
                for x in members[a]:
                    for y in members[b]:
                        total += dist[x][y]
                avg = total / (len(members[a]) * len(members[b]))
                key = (avg, a, b)
                if best is None or key < best:
                    best = key
        avg, a, b = best
        merges.append((a, b, avg, next_id))
        members[next_id] = members.pop(a) + members.pop(b)
        snapshots[len(members)] = {frozenset(v) for v in members.values()}
        next_id += 1
    return merges, snapshots


def incremental_average_linkage(dist: np.ndarray):
    """Dict-based incremental average linkage: one dict entry per cluster
    pair holding the exact pairwise-distance sum, a full scan of every active
    pair per step. O(n^3), but with the same float64 sums and divisions as
    the library, so its merges must agree to the bit.

    Returns the merge list [(left id, right id, distance, new id)]; ties
    break on the smallest (min id, max id) pair.
    """
    m = len(dist)
    sums: dict[tuple[int, int], float] = {}
    sizes: dict[int, int] = {i: 1 for i in range(m)}
    for i in range(m):
        for j in range(i + 1, m):
            sums[(i, j)] = float(dist[i, j])

    active = list(range(m))
    merges = []
    next_id = m
    while len(active) > 1:
        best_key = None
        for ai in range(len(active)):
            a = active[ai]
            for bi in range(ai + 1, len(active)):
                b = active[bi]
                avg = sums[(a, b)] / (sizes[a] * sizes[b])
                key = (avg, a, b)
                if best_key is None or key < best_key:
                    best_key = key
        avg, a, b = best_key
        merges.append((a, b, avg, next_id))
        sizes[next_id] = sizes[a] + sizes[b]
        for o in active:
            if o == a or o == b:
                continue
            sums[(min(o, next_id), max(o, next_id))] = (
                sums[(min(a, o), max(a, o))] + sums[(min(b, o), max(b, o))])
        active.remove(a)
        active.remove(b)
        active.append(next_id)
        next_id += 1
    return merges


def direct_pearson(xs, ys) -> float:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    dx = sum((x - mx) ** 2 for x in xs)
    dy = sum((y - my) ** 2 for y in ys)
    return num / math.sqrt(dx * dy)


def direct_cosine(a, b) -> float:
    num = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    return num / (na * nb)


def direct_silhouette(dist: np.ndarray, clusters: list[list[int]]) -> float:
    scores = []
    for ci, own in enumerate(clusters):
        for i in own:
            if len(own) == 1:
                scores.append(0.0)
                continue
            a = sum(dist[i][j] for j in own if j != i) / (len(own) - 1)
            b = min(
                sum(dist[i][j] for j in other) / len(other)
                for cj, other in enumerate(clusters) if cj != ci
            )
            top = max(a, b)
            scores.append(0.0 if top == 0.0 else (b - a) / top)
    return sum(scores) / len(scores)


def entropy_bits(p: np.ndarray) -> float:
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def unit_vectors_with_cosines(sim: np.ndarray) -> np.ndarray:
    """Rows whose pairwise cosines equal the given PSD unit-diagonal matrix."""
    w, v = np.linalg.eigh(sim)
    x = v @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _loop_entropy_and_row(dist_row: np.ndarray,
                          beta: float) -> tuple[float, np.ndarray]:
    """Shannon entropy (bits) and the conditional distribution for one bandwidth."""
    logits = -dist_row * beta
    logits -= logits.max()
    p = np.exp(logits)
    total = p.sum()
    p /= total
    nz = p > 0
    entropy_nats = -float(np.sum(p[nz] * np.log(p[nz])))
    return entropy_nats / math.log(2.0), p


def loop_conditional_affinities(distances: np.ndarray, perplexity: float, *,
                                tol: float = 1e-6,
                                max_steps: int = 200) -> np.ndarray:
    """One row at a time, the Gaussian bandwidth bisection that
    ``projection.conditional_affinities`` runs on blocks of rows; its
    result must agree to the bit."""
    d = np.asarray(distances, dtype=np.float64)
    m = d.shape[0]
    target_bits = math.log2(perplexity)
    p = np.zeros((m, m), dtype=np.float64)
    others = np.arange(m)
    for i in range(m):
        row = d[i, others != i]
        beta, beta_lo, beta_hi = 1.0, 0.0, math.inf
        entropy, cond = _loop_entropy_and_row(row, beta)
        for _ in range(max_steps):
            diff = entropy - target_bits
            if abs(diff) <= tol:
                break
            if diff > 0:  # too flat: sharpen
                beta_lo = beta
                beta = beta * 2.0 if math.isinf(beta_hi) else (beta + beta_hi) / 2.0
            else:
                beta_hi = beta
                beta = (beta + beta_lo) / 2.0
            entropy, cond = _loop_entropy_and_row(row, beta)
        p[i, others != i] = cond
    return p


def unconverged_rows(conditional: np.ndarray, perplexity: float, *,
                     tol: float = 1e-6) -> int:
    """How many rows of a conditional affinity matrix miss the target
    entropy log2(perplexity) by more than ``tol`` bits, each row's entropy
    summed over its nonzero entries as :func:`loop_conditional_affinities`
    sums it: the count ``projection.conditional_affinities`` keeps while it
    searches, recomputed from P one row at a time."""
    m = len(conditional)
    target_bits = math.log2(perplexity)
    missed = 0
    for i in range(m):
        row = conditional[i, np.arange(m) != i]
        nz = row[row > 0]
        bits = -float(np.sum(nz * np.log(nz))) / math.log(2.0)
        missed += not abs(bits - target_bits) <= tol
    return missed


def diag_gradient(p: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The t-SNE gradient of KL(P || Q) at ``y`` written out as
    4 (diag(W 1) - W) y with W = (P - Q) * num, and the clamped Q.

    Every M x M intermediate is built afresh: no shared buffers, no GEMM
    for the squared distances.
    """
    sq = np.sum(np.square(y), axis=1)
    num = 1.0 / (1.0 + np.add(np.add(-2.0 * (y @ y.T), sq).T, sq))
    np.fill_diagonal(num, 0.0)
    q = np.maximum(num / num.sum(), 1e-12)
    grad_coeff = (p - q) * num
    grad = 4.0 * (np.diag(grad_coeff.sum(axis=1)) - grad_coeff) @ y
    return grad, q


def diag_tsne(matrix, params) -> tuple[np.ndarray, float]:
    """Exact t-SNE built on :func:`loop_conditional_affinities` and
    :func:`diag_gradient`, with the library's schedule: early exaggeration,
    momentum switch, per-coordinate gains. Returns (points, final KL)."""
    m = len(matrix)
    cond = loop_conditional_affinities(1.0 - matrix.values, params.perplexity)
    p_true = (cond + cond.T) / (2.0 * m)
    rng = np.random.default_rng(params.seed)
    y = rng.standard_normal((m, 2)) * params.init_scale
    velocity = np.zeros_like(y)
    gains = np.ones_like(y)
    for it in range(params.iterations):
        exaggerating = it < params.exaggeration_iters
        p = p_true * params.early_exaggeration if exaggerating else p_true
        grad, q = diag_gradient(p, y)
        momentum = (params.initial_momentum
                    if it < params.momentum_switch_iter
                    else params.final_momentum)
        same_sign = np.sign(grad) == np.sign(velocity)
        gains = np.where(same_sign, gains * 0.8, gains + 0.2)
        np.maximum(gains, params.min_gain, out=gains)
        velocity = momentum * velocity - params.learning_rate * gains * grad
        y = y + velocity
        y = y - y.mean(axis=0)
    mask = p_true > 0
    kl = float(np.sum(p_true[mask] * np.log(p_true[mask] / q[mask])))
    return y, kl


def loop_ingest_shard(path: str | Path, language: str,
                      registry: Registry) -> CorpusShard:
    """Corpus ingest as one Python loop over the lines, keeping a line when
    ``line.strip()`` is non-empty; ids run 0, 1, 2, ... over the kept lines.
    """
    if language not in registry:
        raise ValidationError(f"language {language!r} is not in the registry")
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{path}: invalid UTF-8 at byte offset {exc.start}") from exc
    sentences = []
    for line in text.splitlines():
        if line.strip():
            sentences.append((len(sentences), line))
    return CorpusShard(language=language, sentences=tuple(sentences))


def _child_seed(seed: int, language: str) -> int:
    digest = hashlib.sha256(f"{seed}:{language}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def floyd_sample(shard: CorpusShard, policy: SamplingPolicy) -> CorpusShard:
    """Floyd's subset draw with one ``random.Random.randrange`` call per
    draw, from the same per-(seed, language) SHA-256 child seed: for m =
    n - cap + 1, ..., n, add the draw j in [0, m), or m - 1 if j is already
    in the subset."""
    n = len(shard)
    cap = policy.cap
    if n <= cap:
        return shard
    rng = random.Random(_child_seed(policy.seed, shard.language))
    chosen = []
    for m in range(n - cap + 1, n + 1):
        j = rng.randrange(m)
        chosen.append(m - 1 if j in chosen else j)
    chosen.sort()
    return CorpusShard(language=shard.language,
                       sentences=tuple(shard.sentences[i] for i in chosen))


def json_write_representations(reps, path: str | Path) -> None:
    """Centroids as indented JSON text, one list of Python floats per
    language: ``{"v": 1, "representations": [{"lang", "vec",
    "sample_count"}]}``."""
    doc = {"v": 1, "representations": [
        {"lang": r.language, "vec": [float(x) for x in r.vector],
         "sample_count": r.sample_count} for r in reps]}
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def json_load_representations(path: str | Path) -> list[LanguageRepresentation]:
    """Parse :func:`json_write_representations`'s text back to float32."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return [LanguageRepresentation(language=r["lang"],
                                   vector=np.asarray(r["vec"], dtype=np.float32),
                                   sample_count=int(r["sample_count"]))
            for r in doc["representations"]]


def dump_write_json(path: str | Path, doc: dict) -> None:
    """``doc`` through the standard library's indented encoder, with the
    settings ``registry.write_json`` promises, and a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, ensure_ascii=False)
        fh.write("\n")


def line_load_embeddings(path: str | Path) -> list[SentenceEmbeddingSet]:
    """A JSON Lines embedding file read one line at a time: each line is
    parsed, checked and converted to float32 before the next is read."""
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"embedding file not found: {path}")
    grouped: dict[str, tuple[list[int], list[np.ndarray]]] = {}
    dim: int | None = None
    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            where = f"{path}: line {lineno}"
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                raise ValidationError(f"{where}: invalid UTF-8") from None
            if not line and lineno > 1:
                continue
            try:
                rec = json.loads(line) if line else None
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{where}: {exc.msg}") from exc
            if lineno == 1:
                header = rec if isinstance(rec, dict) else {}
                dim = header.get("dim")
                if header.get("v") != 1 or type(dim) is not int or dim < 1:
                    raise ValidationError(
                        f"{where}: expected the header {{\"v\": 1, "
                        f"\"dim\": D}} with D a positive integer")
                continue
            if not (isinstance(rec, dict) and {"lang", "id", "vec"} <= rec.keys()):
                raise ValidationError(f"{where}: record needs lang, id, vec")
            lang, sid, vec = rec["lang"], rec["id"], rec["vec"]
            if type(lang) is not str or type(sid) is not int:
                raise ValidationError(
                    f"{where}: lang must be a string and id an integer, "
                    f"got {json.dumps(lang)} and {json.dumps(sid)}")
            try:
                arr = np.asarray(vec, dtype=np.float32)
            except (TypeError, ValueError):
                arr = None
            if arr is None or arr.shape != (dim,):
                raise ValidationError(
                    f"{where}: vector for lang={lang} id={sid} must be a "
                    f"list of {dim} numbers, as the header says")
            if not np.isfinite(arr).all():
                raise ValidationError(
                    f"{where}: non-finite value in vector for "
                    f"lang={lang} id={sid}")
            ids, vecs = grouped.setdefault(lang, ([], []))
            ids.append(sid)
            vecs.append(arr)
    if dim is None:
        raise ValidationError(f"{path}: empty embedding file (no header)")
    return [
        SentenceEmbeddingSet(
            language=lang, dim=dim, ids=tuple(ids),
            matrix=np.vstack(vecs) if vecs else np.zeros((0, dim), np.float32))
        for lang, (ids, vecs) in grouped.items()
    ]


def clamped_student_t(y: np.ndarray, num: np.ndarray, q: np.ndarray,
                      eps: float = 1e-12) -> None:
    """The Student-t kernel into ``num`` (zero diagonal) and Q = num /
    sum(num) into ``q``, always clamped below at ``eps``, every pass over
    the whole M x M buffers."""
    sq = np.einsum("ij,ij->i", y, y)
    left = np.column_stack((y, sq, np.ones_like(sq)))
    right = np.vstack((-2.0 * y.T, np.ones_like(sq), 1.0 + sq))
    np.matmul(left, right, out=num)
    np.reciprocal(num, out=num)
    np.fill_diagonal(num, 0.0)
    np.multiply(num, 1.0 / num.sum(), out=q)
    np.maximum(q, eps, out=q)


def clamped_gradient(p: np.ndarray, y: np.ndarray, num: np.ndarray,
                     q: np.ndarray) -> np.ndarray:
    """The KL gradient 4 * sum_j w_ij (y_i - y_j), w = (p - q) * num, from
    the buffers of :func:`clamped_student_t`, whole-buffer passes only.
    Overwrites ``q`` with w."""
    w = np.subtract(p, q, out=q)
    w *= num
    return 4.0 * (w.sum(axis=1)[:, None] * y - w @ y)


def clamped_tsne(matrix, params, eps: float = 1e-12) -> tuple[np.ndarray, tuple]:
    """``projection.tsne``'s descent built on :func:`clamped_student_t` and
    :func:`clamped_gradient`, with the same P and schedule, and the KL at
    every 50th step, at the last exaggerated step and at the last step.
    Returns the points and that KL trace."""
    from sprachbund.projection import conditional_affinities, joint_affinities
    m = len(matrix)
    p_true = joint_affinities(
        conditional_affinities(matrix, params.perplexity)[0])
    p_exaggerated = p_true * params.early_exaggeration
    rng = np.random.default_rng(params.seed)
    y = rng.standard_normal((m, 2)) * params.init_scale
    velocity = np.zeros_like(y)
    gains = np.ones_like(y)
    num, q = np.empty((m, m)), np.empty((m, m))
    trace = []
    for it in range(params.iterations):
        p = p_exaggerated if it < params.exaggeration_iters else p_true
        clamped_student_t(y, num, q, eps)
        if ((it + 1) % 50 == 0 or it == params.exaggeration_iters - 1
                or it == params.iterations - 1):
            mask = p_true > 0
            trace.append((it + 1, float(np.sum(
                p_true[mask] * np.log(p_true[mask] / q[mask])))))
        grad = clamped_gradient(p, y, num, q)
        momentum = (params.initial_momentum
                    if it < params.momentum_switch_iter
                    else params.final_momentum)
        same_sign = np.sign(grad) == np.sign(velocity)
        gains = np.where(same_sign, gains * 0.8, gains + 0.2)
        np.maximum(gains, params.min_gain, out=gains)
        velocity = momentum * velocity - params.learning_rate * gains * grad
        y = y + velocity
        y = y - y.mean(axis=0)
    return y, tuple(trace)
