"""Correctness checks for MIS and coloring outputs.

These are the oracles the whole test suite leans on: given a graph and a
claimed solution they either certify it or name a concrete violation.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set


def _adjacency(graph: Any) -> Dict[Any, Set[Any]]:
    if hasattr(graph, "adj"):
        return {v: set(graph.adj[v]) for v in graph.nodes()}
    return {v: set(nbrs) for v, nbrs in graph.items()}


def independence_violations(graph: Any, candidate: Iterable[Any]) -> List[tuple]:
    """Edges of the graph with both endpoints in ``candidate``."""
    members = set(candidate)
    adjacency = _adjacency(graph)
    violations = []
    for v in members:
        for u in adjacency.get(v, ()):
            if u in members and (u, v) not in violations:
                violations.append((v, u))
    return violations


def domination_violations(graph: Any, candidate: Iterable[Any]) -> List[Any]:
    """Nodes with no neighbor in ``candidate`` and not in it themselves."""
    members = set(candidate)
    adjacency = _adjacency(graph)
    return [
        v
        for v in adjacency
        if v not in members and not (adjacency[v] & members)
    ]


def is_independent_set(graph: Any, candidate: Iterable[Any]) -> bool:
    """Whether no two members of ``candidate`` are adjacent."""
    return not independence_violations(graph, candidate)


def is_dominating_set(graph: Any, candidate: Iterable[Any]) -> bool:
    """Whether every non-member has a neighbor in ``candidate``."""
    return not domination_violations(graph, candidate)


def is_maximal_independent_set(graph: Any, candidate: Iterable[Any]) -> bool:
    """Whether ``candidate`` is an MIS: independent **and** dominating."""
    return is_independent_set(graph, candidate) and is_dominating_set(
        graph, candidate
    )


def is_maximal_independent_set_arrays(arrays: Any, mis_mask: Any) -> bool:
    """Vectorized MIS oracle over a CSR graph view.

    ``arrays`` is a :class:`repro.graphs.csr.GraphArrays` (or
    anything exposing ``n`` and the CSR ``deg``/``dst`` arrays of a
    symmetric directed edge list); ``mis_mask`` a boolean membership
    column aligned with node indices.  Only the members' CSR rows are
    read, O(n + sum of the members' degrees) -- no adjacency dict is ever
    built.  A member found in a member's row breaks independence; a
    non-member that no member's row reaches breaks maximality.  That is
    exactly what :func:`is_maximal_independent_set` returns for the same
    graph and member set (undecided nodes are simply non-members, as in
    the dict oracle).
    """
    import numpy as np

    mask = np.asarray(mis_mask, dtype=bool)
    if mask.shape != (arrays.n,):
        raise ValueError(
            f"mis_mask has shape {mask.shape}, expected ({arrays.n},)"
        )
    deg = arrays.deg
    members = np.flatnonzero(mask)
    lens = deg[members]
    starts = (np.cumsum(deg) - deg)[members]
    # Entry positions of the members' rows, concatenated: each row's
    # start, shifted back by the entries of the rows before it, plus a
    # running index.
    shift = np.repeat(starts - (np.cumsum(lens) - lens), lens)
    neighbors = arrays.dst[shift + np.arange(len(shift))]
    if bool(mask[neighbors].any()):
        return False  # adjacent members: not independent
    covered = mask.copy()
    covered[neighbors] = True
    return bool(covered.all())  # non-members need a member neighbor


def assert_valid_mis(graph: Any, candidate: Iterable[Any]) -> None:
    """Raise ``AssertionError`` with a concrete witness if not an MIS."""
    bad_edges = independence_violations(graph, candidate)
    if bad_edges:
        raise AssertionError(
            f"not independent: adjacent pair(s) in set, e.g. {bad_edges[0]}"
        )
    undominated = domination_violations(graph, candidate)
    if undominated:
        raise AssertionError(
            f"not maximal: node(s) with no neighbor in set, "
            f"e.g. {undominated[0]}"
        )


def is_proper_coloring(graph: Any, colors: Dict[Any, Optional[int]]) -> bool:
    """Whether ``colors`` assigns every node a color differing from all
    neighbors' colors."""
    adjacency = _adjacency(graph)
    for v, nbrs in adjacency.items():
        color = colors.get(v)
        if color is None:
            return False
        if any(colors.get(u) == color for u in nbrs):
            return False
    return True


def coloring_palette_size(colors: Dict[Any, Optional[int]]) -> int:
    """Number of distinct colors used."""
    return len({c for c in colors.values() if c is not None})
