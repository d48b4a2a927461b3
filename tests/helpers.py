"""Shared test oracles, deliberately independent of the library internals.

`dp_closed_walks` counts closed walks by memoized recursion on the raw
neighbor function; it never builds a ball or an adjacency index, so it
cross-checks the production pipeline rather than re-running it.
`naive_ball` is a textbook queue BFS over the public ``neighbors`` method,
and `vector_walk_counts` iterates the full adjacency one step at a time.
"""

from __future__ import annotations

import random
from collections import deque

from latticewalks.graphs import FiniteGraph


def dp_closed_walks(g, root, m: int) -> int:
    """Number of closed m-walks at root, by top-down dynamic programming."""
    root = tuple(root)
    cache: dict[tuple[tuple[int, ...], int], int] = {}

    def walks_to_root(v: tuple[int, ...], steps: int) -> int:
        if steps == 0:
            return 1 if v == root else 0
        key = (v, steps)
        if key not in cache:
            cache[key] = sum(walks_to_root(u, steps - 1) for u in g.neighbors(v))
        return cache[key]

    return walks_to_root(root, m)


def naive_ball(g, root, radius: int):
    """(vertices, depths, adjacency, truncated) of the radius-r ball at root.

    Distances come from a queue BFS; vertices are then ordered by
    (distance, coordinates), and each adjacency row lists the sorted
    indices of the neighbors inside the ball.
    """
    root = tuple(root)
    dist = {root: 0}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        if dist[v] == radius:
            continue
        for w in g.neighbors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    vertices = sorted(dist, key=lambda v: (dist[v], v))
    index = {v: i for i, v in enumerate(vertices)}
    adjacency, truncated = [], False
    for v in vertices:
        nbrs = g.neighbors(v)
        truncated = truncated or any(w not in index for w in nbrs)
        adjacency.append(sorted(index[w] for w in nbrs if w in index))
    return vertices, [dist[v] for v in vertices], adjacency, truncated


def vector_walk_counts(adj: list[list[int]], i: int, m_max: int) -> list[int]:
    """(A^m)_{ii} for m = 0..m_max by m_max plain steps u <- A u."""
    u = [0] * len(adj)
    u[i] = 1
    out = [1]
    for _ in range(m_max):
        u = [sum(u[j] for j in row) for row in adj]
        out.append(u[i])
    return out


def int_matrix_power_diag(adj: list[list[int]], i: int, m: int) -> int:
    """(A^m)_{ii} for a 0/1 adjacency matrix given as neighbor index lists."""
    n = len(adj)
    mat = [[0] * n for _ in range(n)]
    for a, nbrs in enumerate(adj):
        for b in nbrs:
            mat[a][b] = 1
    acc = [[int(r == c) for c in range(n)] for r in range(n)]
    for _ in range(m):
        acc = [[sum(row[t] * mat[t][c] for t in range(n)) for c in range(n)]
               for row in acc]
    return acc[i][i]


def path_adjacency(n: int) -> list[list[int]]:
    return [[j for j in (i - 1, i + 1) if 0 <= j < n] for i in range(n)]


def random_graph(rng: random.Random, n_min: int = 2, n_max: int = 8) -> FiniteGraph:
    """Erdos-Renyi graph on vertices (0,), ..., (n-1,); may be disconnected."""
    n = rng.randint(n_min, n_max)
    p = rng.uniform(0.2, 0.8)
    vertices = [(i,) for i in range(n)]
    edges = [((i,), (j,)) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return FiniteGraph.from_edges(vertices, edges, root=(0,))


def random_connected_graph(rng: random.Random, n_min: int = 2,
                           n_max: int = 8) -> FiniteGraph:
    """Random tree plus extra random edges, so connectivity is structural."""
    n = rng.randint(n_min, n_max)
    edges = {((rng.randrange(i),), (i,)) for i in range(1, n)}
    extra = rng.randint(0, n)
    for _ in range(extra):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            edges.add(((min(i, j),), (max(i, j),)))
    return FiniteGraph.from_edges([(i,) for i in range(n)], sorted(edges),
                                  root=(0,))
