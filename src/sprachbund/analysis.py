"""Quantitative checks linking language representations to linguistics.

Three analyses: correlation between embedding similarity and lexical
similarity over the pairs both sides cover, how purely each cluster follows
one language family, and how strongly each cluster agrees on a categorical
syntax feature. Purity and agreement are majority fractions over the labeled
members; unlabeled members are excluded from the fraction but counted.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Mapping

from .cluster import SprachbundAssignment
from .errors import ValidationError
from .registry import LexicalSimilarityTable, Registry
from .simmatrix import SimilarityMatrix, paired_similarity_vectors, pearson


@dataclass(frozen=True)
class LexicalCorrelation:
    r: float
    pair_count: int


@dataclass(frozen=True)
class ClusterPurity:
    """Majority label and its share among the labeled members of one cluster."""

    majority_label: str | None
    purity: float | None
    labeled: int
    unlabeled: int


@dataclass(frozen=True)
class PurityReport:
    per_cluster: tuple[ClusterPurity, ...]
    macro_average: float | None


def lexical_correlation(matrix: SimilarityMatrix,
                        table: LexicalSimilarityTable) -> LexicalCorrelation:
    """Pearson r between embedding and lexical similarity on shared pairs."""
    xs, ys = paired_similarity_vectors(matrix, table)
    return LexicalCorrelation(r=pearson(xs, ys), pair_count=len(xs))


def _majority_report(assignment: SprachbundAssignment, registry: Registry,
                     attribute: str) -> PurityReport:
    labels = registry.labels(sorted(assignment.languages), attribute)
    clusters = []
    fractions = []
    for members in assignment.members:
        values = [labels[code] for code in members]
        present = [v for v in values if v is not None]
        if not present:
            clusters.append(ClusterPurity(None, None, 0, len(members)))
            continue
        counts = Counter(present)
        top = max(counts.values())
        label = min(lbl for lbl, c in counts.items() if c == top)
        purity = top / len(present)
        fractions.append(purity)
        clusters.append(ClusterPurity(label, purity, len(present),
                                      len(members) - len(present)))
    macro = sum(fractions) / len(fractions) if fractions else None
    return PurityReport(per_cluster=tuple(clusters), macro_average=macro)


def family_purity(assignment: SprachbundAssignment,
                  registry: Registry) -> PurityReport:
    """Per-cluster majority-family fraction over family-labeled members."""
    return _majority_report(assignment, registry, "family")


def syntax_agreement(assignment: SprachbundAssignment, registry: Registry,
                     feature: str) -> PurityReport:
    """Per-cluster majority fraction of one syntax feature's values."""
    if feature not in registry.feature_names:
        raise ValidationError(
            f"unknown syntax feature {feature!r}; registry knows "
            f"{', '.join(registry.feature_names)}")
    return _majority_report(assignment, registry, feature)


@dataclass(frozen=True)
class AnalysisReport:
    pearson_lexical: LexicalCorrelation | None = None
    family_purity: PurityReport | None = None
    syntax_agreement: Mapping[str, PurityReport] = field(default_factory=dict)

    def to_json(self) -> dict:
        return asdict(self)

    def format_table(self) -> str:
        """Human-readable summary, one section per analysis."""
        lines = []
        if self.pearson_lexical:
            lines.append(
                f"lexical correlation   r = {self.pearson_lexical.r:+.4f} "
                f"over {self.pearson_lexical.pair_count} pairs")
        sections = [("family purity per cluster:", self.family_purity)] + [
            (f"syntax agreement ({feature}):", rep)
            for feature, rep in self.syntax_agreement.items()]
        for title, rep in sections:
            if rep is None:
                continue
            lines.append(title)
            for i, c in enumerate(rep.per_cluster, start=1):
                shown = "n/a" if c.purity is None else f"{c.purity:.3f}"
                lines.append(
                    f"  #{i}: {shown}  majority={c.majority_label or '-'} "
                    f"(labeled {c.labeled}, unlabeled {c.unlabeled})")
            if rep.macro_average is not None:
                lines.append(f"  macro average: {rep.macro_average:.3f}")
        return "\n".join(lines) + ("\n" if lines else "")


def build_report(matrix: SimilarityMatrix,
                 table: LexicalSimilarityTable | None,
                 registry: Registry,
                 assignment: SprachbundAssignment | None = None,
                 features: tuple[str, ...] = ()) -> AnalysisReport:
    """Assemble every analysis the available inputs support."""
    correlation = lexical_correlation(matrix, table) if table else None
    purity = None
    agreement: dict[str, PurityReport] = {}
    if assignment is not None:
        purity = family_purity(assignment, registry)
        for feature in features:
            agreement[feature] = syntax_agreement(assignment, registry, feature)
    return AnalysisReport(pearson_lexical=correlation, family_purity=purity,
                          syntax_agreement=agreement)
