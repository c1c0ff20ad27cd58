#!/usr/bin/env python3
"""End-to-end demo on synthetic data.

Samples a weakly-labelled synthetic corpus, fits the model, then runs the
three downstream tasks (free annotation, conjunction queries, segmentation)
against held-out bags and prints the evaluation metrics for each.
"""

import argparse

import numpy as np

from wsibp import ModelConfig, fit, infer_test, sample_dataset
from wsibp.metrics import BagTruth, ap_at_t, mar_query, segmentation_metrics
from wsibp.tasks import free_annotation, rank_query, segment


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--num-bags", type=int, default=80)
    ap.add_argument("--instances", type=int, default=16)
    ap.add_argument("--feature-dim", type=int, default=16)
    ap.add_argument("--k-objects", type=int, default=3)
    ap.add_argument("--k-attributes", type=int, default=3)
    ap.add_argument("--sigma", type=float, default=0.15)
    ap.add_argument("--beta", type=float, help="default: ModelConfig's")
    ap.add_argument("--rho", type=float, help="default: ModelConfig's")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--train-fraction", type=float, default=0.75)
    args = ap.parse_args()

    couplings = {name: getattr(args, name) for name in ("beta", "rho")
                 if getattr(args, name) is not None}
    # a demo should finish in seconds: at most 150 sweeps for fit and for each
    # test bag, where the default allows 1500
    config = ModelConfig(k_objects=args.k_objects,
                         k_attributes=args.k_attributes, k_extra=0,
                         sigma=args.sigma, max_iters=150, seed=args.seed, **couplings)
    ds = sample_dataset(config, args.num_bags, args.instances,
                        args.feature_dim, seed=args.seed, labels=0.6)
    split = int(args.num_bags * args.train_fraction)
    train, test = ds.bags[:split], ds.bags[split:]
    test_z = ds.true_z[split:]

    print(f"fitting on {len(train)} bags "
          f"({args.instances} instances x {args.feature_dim} dims, "
          f"K_max={config.k_max}) ...")
    result = fit(train, config)
    print(f"converged after {len(result.trace)} iterations "
          f"(final mean |delta nu| = {result.trace[-1][0]:.2e})")

    posts = [(b.id, infer_test(b, result.model, result.correlation, config))
             for b in test]

    # --- annotation -----------------------------------------------------
    k_o = config.k_objects
    preds, truth = {}, {}
    for (bid, post), z in zip(posts, test_z):
        ann = free_annotation(post, config, 1, config.k_attributes)[0]
        preds[bid] = (ann.object, [a for a, _ in ann.attributes])
        objs = np.flatnonzero(z[:, :k_o].max(axis=0))
        atts = set(np.flatnonzero(z[:, k_o:k_o + config.k_attributes]
                                  .max(axis=0)) + k_o)
        if objs.size:
            truth[bid] = BagTruth(object=int(objs[0]), attributes=atts)
    usable = {b: preds[b] for b in truth}
    for t in (1, 2):
        print(f"annotation AP@{t}: {ap_at_t(usable, truth, t):.4f}")

    # --- conjunction queries --------------------------------------------
    rng = np.random.default_rng(args.seed)
    rankings, relevance = {}, {}
    for i in range(100):
        obj = int(rng.integers(0, k_o))
        att = int(rng.integers(k_o, k_o + config.k_attributes))
        key = (i, obj, att)
        relevance[key] = {bid for (bid, _), z in zip(posts, test_z)
                          if bool(((z[:, obj] == 1) & (z[:, att] == 1)).any())}
        rankings[key] = [bid for bid, _, _ in
                        rank_query(posts, config, obj, [att])]
    mar, skipped = mar_query(rankings, relevance)
    print(f"query MAR: {mar:.4f} ({len(rankings) - len(skipped)} scored, "
          f"{len(skipped)} empty-relevance skipped)")

    # --- segmentation ---------------------------------------------------
    seg_pred, seg_truth = {}, {}
    for (bid, post), z in zip(posts, test_z):
        active = z[:, :k_o].max(axis=1) > 0
        if not active.any():
            continue
        seg_pred[bid] = segment(post, config).labels[active]
        seg_truth[bid] = np.argmax(z[:, :k_o], axis=1)[active]
    scores = segmentation_metrics(seg_pred, seg_truth)
    print(f"segmentation mean IOU: {scores.mean_iou:.4f}, "
          f"per-pixel accuracy: {scores.per_pixel_accuracy:.4f}")


if __name__ == "__main__":
    main()
