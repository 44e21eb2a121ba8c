"""Route diversity on a multi-modal trajectory world.

Between two fixed endpoints the arc world offers several distinct routes
(a straight chord and symmetric bulges to either side). A point estimate
would average them into nonsense; sampling should instead commit to one
route per draw and, across seeds, visit all of them. This script runs the
fused sampler over many seeds, classifies each draw by nearest route, and
prints the resulting share per route plus the energy distance between the
draws and exact sequences from the world itself.

Writes one representative trajectory CSV per discovered route to --out.
"""

import argparse
import os

import numpy as np

from trflab.core import RngStream
from trflab.denoiser import AnalyticGmmBackend, Condition
from trflab.harness import export_trajectory_csv
from trflab.metrics import energy_distance, mode_coverage
from trflab.schedule import build_karras
from trflab.trf import KIND_LINEAR, TrfConfig, alpha_weights, trf_sample
from trflab.worlds import TrajectoryGmmWorld


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="out/mode_exploration")
    ap.add_argument("--seeds", type=int, default=120, help="number of fused draws")
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    start = np.array([-1.0, 0.0])
    end = np.array([1.0, 0.0])
    world = TrajectoryGmmWorld.arcs(n_frames=16, start=start, end=end, tau=0.1)
    backend = AnalyticGmmBackend(world)
    sched = build_karras(25, 0.002, 80.0)
    c_s = Condition(start)
    c_e = Condition(end)
    cfg = TrfConfig(alpha=alpha_weights(KIND_LINEAR, world.n_frames))

    print(f"arc world: {world.n_modes} routes, {world.n_frames} frames, tau {world.tau}")
    print(f"drawing {args.seeds} fused sequences\n")

    draws = [trf_sample(backend, sched, c_s, c_e, cfg, RngStream(seed))[0]
             for seed in range(args.seeds)]
    cov = mode_coverage(draws, world)
    templates = world.templates.reshape(world.n_modes, -1)
    flat = np.array([x.ravel() for x in draws])
    labels = ((flat[:, None, :] - templates[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)

    for k, n in enumerate(cov.counts):
        mark = " (unvisited)" if n == 0 else ""
        print(f"  route {k}: {n:4d} draws  ({cov.shares[k]:5.1%}){mark}")
    print(f"covered {cov.n_covered}/{world.n_modes} routes, "
          f"largest share {cov.shares.max():.1%}")

    exact = [world.sample_sequence(c_s, RngStream(10_000 + s)) for s in range(args.seeds)]
    ed = energy_distance(draws, exact)
    print(f"energy distance to exact conditional draws: {ed:.4f}")
    print("(unbiased estimate: values near zero, including slightly negative,")
    print(" mean the two sample sets are statistically indistinguishable)")

    for k in np.unique(labels):
        x = draws[int(np.argmax(labels == k))]
        export_trajectory_csv(x, os.path.join(args.out, f"route_{k}.csv"))
    print(f"\nwrote one trajectory per visited route to {args.out}/")


if __name__ == "__main__":
    main()
