"""Drug repositioning with JMF (paper Section V-A, Fig. 9).

Reproduces the workflow of Zhang-Wang-Hu's Joint Matrix Factorization as
the platform hosts it: build three drug similarity networks (chemical
structure / targets / side effects, from the PubChem-, DrugBank-, and
SIDER-like knowledge bases) and three disease networks (phenotype /
ontology / disease genes, DisGeNet-like), hold out 20% of the known
drug-disease associations, then compare JMF against the cited baselines
and print the per-method scores, learned source weights, and the top
novel repositioning hypotheses.

The fits run inline on the caller; ``examples/rwe_delt.py`` shows the
same kind of analysis submitted as a ``/v1/compute`` job instead.

Run:  python examples/drug_repositioning.py
"""

import numpy as np

from repro.analytics import (
    DiseaseSimilarityBuilder,
    DrugSimilarityBuilder,
    GuiltByAssociation,
    JointMatrixFactorization,
    PlainMatrixFactorization,
    SideEffectKnn,
    evaluate_masked,
    holdout_mask,
)
from repro.knowledge import generate_universe


def main() -> None:
    print("generating synthetic biomedical universe "
          "(stand-in for PubChem/DrugBank/SIDER/DisGeNet)...")
    universe = generate_universe(n_drugs=100, n_diseases=70, seed=2024)

    drug_sources = DrugSimilarityBuilder(universe).all_sources()
    disease_sources = DiseaseSimilarityBuilder(universe).all_sources()
    print(f"  {len(universe.drugs)} drugs, {len(universe.diseases)} "
          f"diseases, association density "
          f"{universe.association_matrix.mean():.1%}")

    rng = np.random.default_rng(7)
    training, heldout = holdout_mask(universe.association_matrix, 0.2, rng)

    print("\nfitting JMF (rank 10, three drug + three disease sources)...")
    jmf = JointMatrixFactorization(rank=10, alpha=0.5, seed=1).fit(
        training, drug_sources, disease_sources)

    candidates = {
        "JMF (this platform)": jmf.scores(),
        "Guilt-by-association [33]": GuiltByAssociation(10).predict(
            training, drug_sources["chemical"]),
        "Plain matrix factorization [39]": PlainMatrixFactorization(
            rank=10, seed=1).predict(training),
        "Side-effect kNN [36]": SideEffectKnn(5).predict(
            training, drug_sources["side_effect"]),
    }
    print(f"\n{'method':<34} {'AUC':>6} {'AUPR':>6} {'P@50':>6}")
    for name, scores in candidates.items():
        ev = evaluate_masked(universe.association_matrix, scores, heldout)
        print(f"{name:<34} {ev.auc:>6.3f} {ev.aupr:>6.3f} "
              f"{ev.precision_at_50:>6.3f}")

    print("\nlearned source importance (interpretable weights):")
    for side, weights in [("drug", jmf.drug_source_weights),
                          ("disease", jmf.disease_source_weights)]:
        ranked = sorted(weights.items(), key=lambda kv: -kv[1])
        print(f"  {side}: " + ", ".join(f"{k}={v:.2f}" for k, v in ranked))

    # Top novel hypotheses: highest-scoring pairs absent from training.
    scores = jmf.scores()
    novel = [(i, j, scores[i, j])
             for i, j in np.argwhere(training == 0)]
    novel.sort(key=lambda t: -t[2])
    print("\ntop 5 repositioning hypotheses (drug -> disease, score, "
          "true association?):")
    for i, j, score in novel[:5]:
        drug = universe.drugs[i]
        disease = universe.diseases[j]
        truth = "yes" if universe.association_matrix[i, j] else "no"
        print(f"  {drug.name:<14} -> {disease.name:<14} {score:.3f}  "
              f"(ground truth: {truth})")

    groups = jmf.drug_groups()
    print(f"\nby-product drug groups: {len(set(groups.tolist()))} clusters "
          f"over {len(groups)} drugs")


if __name__ == "__main__":
    main()
