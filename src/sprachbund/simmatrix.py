"""Cosine similarity between language representations, plus Pearson utilities.

The similarity matrix is dense and symmetric by construction: each pair is
computed once and mirrored, the diagonal is set to exactly 1.0, and entries
are clamped into [-1, 1] so that the derived distance 1 - sim stays in [0, 2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .embedding import LanguageRepresentation
from .errors import ValidationError
from .registry import (LexicalSimilarityTable, check_document, naming,
                       read_json)


@dataclass(eq=False)
class SimilarityMatrix:
    """Symmetric cosine-similarity matrix over an ordered language list.

    Entries at most 1e-9 past -1 or 1 are rounding error and are clamped
    into [-1, 1]; an entry further out is an error naming its pair.
    """

    document = {"languages": list[str], "values": list[list[float]]}

    languages: tuple[str, ...]
    values: np.ndarray  # float64, shape (M, M)

    def __post_init__(self):
        self.languages = tuple(self.languages)
        self.values = np.asarray(self.values, dtype=np.float64)
        m = len(self.languages)
        if len(set(self.languages)) != m:
            raise ValidationError("duplicate language codes in matrix")
        if self.values.shape != (m, m):
            raise ValidationError(
                f"matrix shape {self.values.shape} does not match "
                f"{m} languages")
        if not np.array_equal(self.values, self.values.T):
            raise ValidationError("similarity matrix is not symmetric")
        if not np.all(np.diag(self.values) == 1.0):
            raise ValidationError("similarity matrix diagonal must be 1.0")
        magnitude = np.abs(self.values)
        outside = np.argwhere(magnitude > 1.0 + 1e-9)
        if len(outside):
            i, j = outside[0]
            raise ValidationError(
                f"similarity of ({self.languages[i]!r}, {self.languages[j]!r}) "
                f"is {float(self.values[i, j])!r}, outside [-1, 1]")
        if (magnitude > 1.0).any():  # within the tolerance: rounding error
            self.values = np.clip(self.values, -1.0, 1.0)
        self._index = {code: i for i, code in enumerate(self.languages)}

    def __len__(self) -> int:
        return len(self.languages)

    def index(self, code: str) -> int:
        try:
            return self._index[code]
        except KeyError:
            raise ValidationError(f"language {code!r} is not in the matrix")

    def get(self, a: str, b: str) -> float:
        return float(self.values[self.index(a), self.index(b)])

    def to_json(self) -> dict:
        """The matrix's document; ``values`` stays the float64 array, which
        :func:`registry.write_json` writes as nested lists of floats."""
        return {"languages": list(self.languages), "values": self.values}

    @classmethod
    def from_json(cls, doc: dict,
                  source: str | Path = "matrix JSON") -> "SimilarityMatrix":
        """A matrix from a document that :func:`load_matrix` has checked or
        :meth:`to_json` returned; ``source`` names it in error messages."""
        languages, values = doc["languages"], doc["values"]
        with naming(source):
            if set(map(len, values)) - {len(languages)}:
                raise ValidationError(f"values must be {len(languages)} rows "
                                      f"of {len(languages)} numbers")
            return cls(languages, np.asarray(values))


def cosine_matrix(vectors: np.ndarray,
                  names: Sequence[str] | None = None) -> np.ndarray:
    """Pairwise cosine of row vectors, through unit vectors.

    Each entry is one ``np.vecdot`` of two unit rows, so no bit depends on
    the BLAS thread count. Each row of the upper triangle is one call, and
    mirrored; the diagonal is exactly 1.0, and values are clamped into
    [-1, 1]. A zero row is an error naming it by ``names`` when given, else
    by its index.
    """
    v = np.asarray(vectors, dtype=np.float64)
    norms = np.linalg.norm(v, axis=1)
    if not norms.all():
        i = int(np.argmin(norms))  # the first zero row
        which = f"representation for {names[i]!r}" if names else f"row {i}"
        raise ValidationError(f"{which} has zero norm")
    unit = v / norms[:, None]
    values = np.eye(len(unit))
    for i, row in enumerate(unit[:-1]):  # each pair once, then mirrored
        values[i, i + 1:] = values[i + 1:, i] = np.vecdot(row, unit[i + 1:])
    np.clip(values, -1.0, 1.0, out=values)
    return values


def build_matrix(reps: Sequence[LanguageRepresentation]) -> SimilarityMatrix:
    """Pairwise cosine similarity of representations; see cosine_matrix."""
    if len(reps) < 2:
        raise ValidationError("need at least 2 representations for a matrix")
    dims = {r.dim for r in reps}
    if len(dims) > 1:
        raise ValidationError(
            f"representations disagree on dimension: {sorted(dims)}")
    languages = tuple(r.language for r in reps)
    vectors = np.vstack([r.vector for r in reps]).astype(np.float64)
    return SimilarityMatrix(languages, cosine_matrix(vectors, languages))


def load_matrix(path: str | Path) -> SimilarityMatrix:
    """Parse a matrix file, declared by :attr:`SimilarityMatrix.document`."""
    doc = read_json(path)
    check_document(doc, SimilarityMatrix.document, path)
    return SimilarityMatrix.from_json(doc, source=path)


def bundled_embedding_similarity() -> SimilarityMatrix:
    """The 8-language embedding-similarity matrix that pairs with the bundled
    lexical table."""
    from . import data
    return load_matrix(data.path("embedding_similarity.json"))


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation via the two-pass (mean first) formula,
    summed by numpy, not by BLAS, which threads a long dot product."""
    xa = np.asarray(xs, dtype=np.float64)
    ya = np.asarray(ys, dtype=np.float64)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValidationError(
            f"pearson needs two equal-length sequences, got shapes "
            f"{xa.shape} and {ya.shape}")
    if len(xa) < 3:
        raise ValidationError(f"pearson needs at least 3 points, got {len(xa)}")
    dx = xa - xa.mean()
    dy = ya - ya.mean()
    sx = float(np.add.reduce(dx * dx))
    sy = float(np.add.reduce(dy * dy))
    if sx == 0.0:
        raise ValidationError("pearson: first sequence is constant")
    if sy == 0.0:
        raise ValidationError("pearson: second sequence is constant")
    r = float(np.add.reduce(dx * dy)) / math.sqrt(sx * sy)
    return float(np.clip(r, -1.0, 1.0))


def paired_similarity_vectors(
        matrix: SimilarityMatrix,
        table: LexicalSimilarityTable) -> tuple[list[float], list[float]]:
    """Align matrix entries with lexical values over pairs present in both.

    The pairs come in the order of the matrix's off-diagonal pairs (i < j,
    in language order); self-pairs and pairs either source lacks are
    excluded. The table's entries are walked once, so the cost follows the
    table's size, not M^2.
    """
    position = matrix._index
    found = []
    # the table's own entries: its public API looks up one pair at a time
    for (a, b), lex in table._entries.items():
        i, j = position.get(a), position.get(b)
        if i is not None and j is not None and i != j:
            found.append((min(i, j), max(i, j), lex))
    found.sort()
    xs = matrix.values[[f[0] for f in found], [f[1] for f in found]].tolist()
    ys = [f[2] for f in found]
    if len(xs) < 3:
        raise ValidationError(
            f"only {len(xs)} pairs are present in both the matrix and the "
            f"lexical table; need at least 3")
    return xs, ys
