"""Small graph builders, permutation helpers and independent oracles shared
by the tests.  The library does not need any of them: they build fixtures,
or recompute by a second route what the library computes.
"""

import re
from collections import deque

from golay486.graph import Graph


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_bipartite_graph(a, b):
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def disjoint_union(g, h):
    edges = list(g.edges()) + [(u + g.n, v + g.n) for u, v in h.edges()]
    return Graph(g.n + h.n, edges)


def oracle_intersection_array(g):
    """Brute-force pair counting, fully independent of the library checker."""
    n = g.n
    dist = []
    for src in range(n):
        d = [-1] * n
        d[src] = 0
        queue = [src]
        while queue:
            u = queue.pop(0)
            for v in g.neighbors(u):
                if d[v] == -1:
                    d[v] = d[u] + 1
                    queue.append(v)
        if -1 in d:
            return "disconnected"
        dist.append(d)
    diameter = max(max(d) for d in dist)
    table = {}
    for u in range(n):
        for w in range(n):
            i = dist[u][w]
            counts = (
                sum(1 for x in g.neighbors(w) if dist[u][x] == i - 1),
                sum(1 for x in g.neighbors(w) if dist[u][x] == i),
                sum(1 for x in g.neighbors(w) if dist[u][x] == i + 1),
            )
            if table.setdefault(i, counts) != counts:
                return None
    return (
        tuple(table[i][2] for i in range(diameter)),
        tuple(table[i][0] for i in range(1, diameter + 1)),
    )


def petersen_graph():
    return Graph(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, 5 + i) for i in range(5)],
    )


def identity(degree):
    return tuple(range(degree))


def compose(p, q):
    """Apply p, then q."""
    if len(p) != len(q):
        raise ValueError(f"degree mismatch: {len(p)} vs {len(q)}")
    return tuple(q[i] for i in p)


def inverse(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def edge_orbit_graph(action, seed_pairs):
    """Undirected graph on the edge-closure of the seed pairs under the
    action: a pair-by-pair closure, independent of the stabilizer chain
    behind permaction.orbital_union_graph."""
    n = action.degree
    seen = set()
    queue = deque()
    for u, v in seed_pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"seed pair ({u},{v}) out of range")
        if u == v:
            raise ValueError("seed pairs must be off-diagonal")
        for pair in ((u, v), (v, u)):
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    while queue:
        i, j = queue.popleft()
        for g in action.generators:
            pair = (g[i], g[j])
            if pair not in seen:
                seen.add(pair)
                seen.add(pair[::-1])
                queue.append(pair)
                queue.append(pair[::-1])
    return Graph(n, [(u, v) for (u, v) in seen if u < v])


_DOT_STATEMENT = re.compile(
    r"^(\w+ \[label=\"[^\"]*\"\];|\w+ -- \w+ \[label=\"[^\"]*\"\];"
    r"|rankdir=\w+;|node \[shape=\w+\];)$"
)


def check_dot(text):
    """Minimal validity check for the DOT the CLI emits (header, statements,
    brace)."""
    lines = [ln.strip() for ln in text.strip().splitlines()]
    if len(lines) < 2:
        return False
    if not re.fullmatch(r"graph \w+ \{", lines[0]):
        return False
    if lines[-1] != "}":
        return False
    return all(_DOT_STATEMENT.fullmatch(ln) for ln in lines[1:-1])
