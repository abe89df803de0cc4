"""Regenerate data/community_534.edges.

The influence benchmarks call for a community-scale social graph with 534
nodes and 8158 edges.  The original community subgraph is not
redistributable, so this script builds a synthetic stand-in of the same
size: a powerlaw-cluster backbone (heavy-tailed degrees, triangles) topped
up with random extra edges to hit the edge count exactly.  Deterministic:
rerunning reproduces the file byte for byte.  Needs networkx, the package's
``scripts`` extra (``pip install -e '.[scripts]'``).
"""

import networkx as nx
import numpy as np

N_NODES = 534
N_EDGES = 8158
SEED = 7


def main() -> None:
    g = nx.powerlaw_cluster_graph(N_NODES, 15, 0.3, seed=SEED)
    rng = np.random.default_rng(SEED)
    while g.number_of_edges() < N_EDGES:
        u, v = rng.integers(0, N_NODES, size=2)
        if u != v and not g.has_edge(u, v):
            g.add_edge(int(u), int(v))
    assert g.number_of_edges() == N_EDGES
    with open("data/community_534.edges", "w") as fh:
        fh.write("# synthetic community-scale stand-in graph\n")
        fh.write(f"# {N_NODES} nodes, {N_EDGES} edges; regenerate with scripts/gen_graph.py\n")
        for u, v in sorted((min(e), max(e)) for e in g.edges()):
            fh.write(f"{u} {v}\n")


if __name__ == "__main__":
    main()
