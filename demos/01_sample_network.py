"""Sample a typed network and look at the structure the model plants.

Edge presence is governed by the subgraph pair of the endpoints, while the
edge type mix is governed by the latent cluster pair, so the two summaries
printed below pull apart the two halves of the generative story.
"""

import numpy as np

from rsm import demo_params, sample_network


def main():
    params, subgraph_of = demo_params()
    print(f"preset: {len(subgraph_of)} vertices, {params.n_subgraphs} subgraphs, "
          f"{params.n_clusters} clusters, {params.n_types} edge types")
    print(f"edge probability within a subgraph:  {params.gamma[0, 0]}")
    print(f"edge probability across subgraphs:   {params.gamma[0, 1]}")
    print(f"cluster profile per subgraph:\n{params.alpha}")

    sample = sample_network(params, subgraph_of, seed=7)
    net = sample.network
    x = net.edge_types
    present = x > 0
    off = ~np.eye(net.n_vertices, dtype=bool)
    n_pairs = int(off.sum())
    print()
    print(f"sampled {int(present.sum())} edges over {n_pairs} ordered pairs "
          f"(overall density {present.sum() / n_pairs:.3f})")

    sub = net.subgraph_of
    same_sub = sub[:, None] == sub[None, :]
    print(f"density within subgraphs:  {present[same_sub & off].mean():.3f}")
    print(f"density across subgraphs:  {present[~same_sub & off].mean():.3f}")

    labels = sample.true_labels
    same_cluster = labels[:, None] == labels[None, :]
    print()
    print("edge type frequencies among present edges:")
    for scope, mask in (("same cluster pair ", same_cluster & present),
                        ("cross cluster pair", ~same_cluster & present)):
        counts = np.bincount(x[mask], minlength=net.n_types + 1)[1:]
        freqs = counts / max(1, counts.sum())
        pretty = "  ".join(f"type {t}: {f:.2f}"
                           for t, f in enumerate(freqs, start=1))
        print(f"  {scope}  {pretty}")


if __name__ == "__main__":
    main()
