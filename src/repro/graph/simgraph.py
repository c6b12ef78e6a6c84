"""The similarity graph: Algorithm 1's output ``Sim``."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.data.model import PropertyRef
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - networkx is imported where it is used
    import networkx as nx


@dataclass(frozen=True)
class SimilarityEdge:
    """One scored property pair."""

    left: PropertyRef
    right: PropertyRef
    score: float

    @property
    def key(self) -> frozenset[PropertyRef]:
        """Unordered identity of the edge."""
        return frozenset((self.left, self.right))


class SimilarityGraph:
    """A weighted undirected graph of property-pair similarities.

    Stores every scored pair; :meth:`matches` filters by threshold, and
    :meth:`to_networkx` exports the graph for clustering.
    """

    def __init__(self, edges: list[SimilarityEdge] | None = None) -> None:
        self._edges: dict[frozenset[PropertyRef], SimilarityEdge] = {}
        for edge in edges or ():
            self.add(edge.left, edge.right, edge.score)

    def add(self, left: PropertyRef, right: PropertyRef, score: float) -> None:
        """Insert or overwrite a scored pair."""
        if left == right:
            raise ConfigurationError(f"self-edge on {left}")
        if not 0.0 <= score <= 1.0:
            raise ConfigurationError(f"score must be in [0, 1], got {score}")
        self._edges[frozenset((left, right))] = SimilarityEdge(left, right, score)

    def score(self, left: PropertyRef, right: PropertyRef) -> float | None:
        """Stored score of a pair, or None if the pair was never scored."""
        edge = self._edges.get(frozenset((left, right)))
        return edge.score if edge is not None else None

    def __len__(self) -> int:
        return len(self._edges)

    def __iter__(self) -> Iterator[SimilarityEdge]:
        return iter(self._edges.values())

    def edges(self) -> list[SimilarityEdge]:
        """All scored pairs, highest score first."""
        return sorted(self._edges.values(), key=lambda edge: -edge.score)

    def matches(self, threshold: float = 0.5) -> list[SimilarityEdge]:
        """Pairs whose score reaches the threshold, highest first."""
        return [edge for edge in self.edges() if edge.score >= threshold]

    def match_keys(self, threshold: float = 0.5) -> set[frozenset[PropertyRef]]:
        """Unordered pair keys of the matches (for set-based metrics)."""
        return {edge.key for edge in self.matches(threshold)}

    def properties(self) -> list[PropertyRef]:
        """All properties mentioned by at least one edge, sorted."""
        refs: set[PropertyRef] = set()
        for edge in self._edges.values():
            refs.add(edge.left)
            refs.add(edge.right)
        return sorted(refs)

    def to_networkx(self, threshold: float = 0.0) -> nx.Graph:
        """Export edges with score >= threshold as a weighted nx.Graph."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self.properties())
        for edge in self._edges.values():
            if edge.score >= threshold:
                graph.add_edge(edge.left, edge.right, weight=edge.score)
        return graph
