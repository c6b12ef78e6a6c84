"""Property clustering over the similarity graph (the paper's future work).

Section VI: "we plan to evaluate different methods for deriving clusters
of equivalent properties from the match results determined with LEAPME."
Three standard strategies from the entity-clustering literature are
implemented:

* **connected components** -- the simplest (and most recall-friendly):
  every component of the thresholded match graph is one cluster;
* **star clustering** -- repeatedly pick the node with the highest
  weighted degree as a centre and claim its unclaimed neighbours,
  breaking long error chains that plague connected components;
* **correlation clustering** (greedy pivot) -- treats scores above the
  threshold as attraction and below as repulsion, assigning each node to
  the pivot cluster with the highest net attraction.

:func:`clustering_metrics` scores a clustering against ground truth with
pairwise precision/recall/F1, the standard evaluation for match-based
clusters.
"""

from __future__ import annotations

from collections import defaultdict

from repro.data.model import Dataset, PropertyRef
from repro.errors import ConfigurationError
from repro.metrics import MatchQuality
from repro.graph.simgraph import SimilarityGraph


def cluster_connected_components(
    graph: SimilarityGraph, threshold: float = 0.5
) -> list[set[PropertyRef]]:
    """Each connected component of the match graph is one cluster."""
    import networkx as nx

    nx_graph = graph.to_networkx(threshold)
    return [set(component) for component in nx.connected_components(nx_graph)]


def cluster_star(
    graph: SimilarityGraph, threshold: float = 0.5
) -> list[set[PropertyRef]]:
    """Star clustering: greedy centres claim their unclaimed neighbours."""
    nx_graph = graph.to_networkx(threshold)
    weighted_degree = {
        node: sum(data["weight"] for _, _, data in nx_graph.edges(node, data=True))
        for node in nx_graph.nodes
    }
    unclaimed = set(nx_graph.nodes)
    clusters: list[set[PropertyRef]] = []
    for node in sorted(unclaimed, key=lambda n: (-weighted_degree[n], n)):
        if node not in unclaimed:
            continue
        members = {node}
        unclaimed.discard(node)
        for neighbor in nx_graph.neighbors(node):
            if neighbor in unclaimed:
                members.add(neighbor)
                unclaimed.discard(neighbor)
        clusters.append(members)
    return clusters


def cluster_correlation(
    graph: SimilarityGraph, threshold: float = 0.5
) -> list[set[PropertyRef]]:
    """Greedy pivot correlation clustering.

    Nodes are visited in decreasing weighted-degree order; each unassigned
    node becomes a pivot, and every other unassigned node joins the pivot
    whose edges attract it most (sum of ``score - threshold`` over edges
    to current members, counting missing edges as repulsion 0).
    """
    nodes = graph.properties()
    score_of: dict[frozenset[PropertyRef], float] = {
        edge.key: edge.score for edge in graph
    }
    weighted_degree: dict[PropertyRef, float] = defaultdict(float)
    for edge in graph:
        weighted_degree[edge.left] += edge.score
        weighted_degree[edge.right] += edge.score
    unassigned = set(nodes)
    clusters: list[set[PropertyRef]] = []
    for pivot in sorted(nodes, key=lambda n: (-weighted_degree[n], n)):
        if pivot not in unassigned:
            continue
        cluster = {pivot}
        unassigned.discard(pivot)
        for candidate in sorted(unassigned):
            attraction = 0.0
            for member in cluster:
                score = score_of.get(frozenset((candidate, member)))
                if score is not None:
                    attraction += score - threshold
            if attraction > 0:
                cluster.add(candidate)
        unassigned -= cluster
        clusters.append(cluster)
    return clusters


def _true_pairs(dataset: Dataset, refs: set[PropertyRef]) -> set[frozenset[PropertyRef]]:
    return {
        pair for pair in dataset.matching_pairs() if pair <= refs
    }


def clustering_metrics(
    clusters: list[set[PropertyRef]],
    dataset: Dataset,
    restrict_to: set[PropertyRef] | None = None,
) -> MatchQuality:
    """Pairwise precision/recall/F1 of a clustering against ground truth.

    Every unordered cross-source pair co-located in a cluster counts as a
    predicted match; ground truth comes from the dataset alignment.
    ``restrict_to`` limits evaluation to a property subset (e.g. the test
    properties).
    """
    seen: set[PropertyRef] = set()
    predicted: set[frozenset[PropertyRef]] = set()
    for cluster in clusters:
        overlap = seen & cluster
        if overlap:
            raise ConfigurationError(
                f"clusters overlap on {len(overlap)} properties"
            )
        seen |= cluster
        members = sorted(cluster)
        for i, left in enumerate(members):
            for right in members[i + 1 :]:
                if left.source != right.source:
                    predicted.add(frozenset((left, right)))
    universe = restrict_to if restrict_to is not None else seen
    predicted = {pair for pair in predicted if pair <= universe}
    actual = _true_pairs(dataset, universe)
    tp = len(predicted & actual)
    fp = len(predicted - actual)
    fn = len(actual - predicted)
    return MatchQuality(true_positives=tp, false_positives=fp, false_negatives=fn)
