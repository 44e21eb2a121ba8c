"""Bounded in-betweening on a random-walk world.

A 2-D random walk pinned at a start frame has no reason to end anywhere in
particular: forward conditional sampling drifts, and steering each frame
toward an interpolated condition still misses the end frame by a wide
margin. Fusing a forward pass (conditioned on the start) with a reversed
backward pass (conditioned on the end) produces sequences that begin and
end exactly where asked while staying as rough as the world itself.

Writes one trajectory CSV per sampler to --out and prints the endpoint
errors side by side.
"""

import argparse
import os

import numpy as np

from trflab.core import RngBatch
from trflab.denoiser import AnalyticGaussianBackend, Condition
from trflab.harness import export_trajectory_csv
from trflab.metrics import endpoint_error
from trflab.sampler import sample
from trflab.schedule import ChurnParams, build_karras
from trflab.trf import KIND_LINEAR, TrfConfig, alpha_weights, baseline_condition_interp, trf_sample
from trflab.worlds import PinnedGaussianProcessWorld


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="out/fused_inbetweening")
    ap.add_argument("--seeds", type=int, default=25, help="number of chains per sampler")
    ap.add_argument("--n-frames", type=int, default=16)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    world = PinnedGaussianProcessWorld(a=1.0, q=0.3, dim=2, n_frames=args.n_frames)
    backend = AnalyticGaussianBackend(world)
    sched = build_karras(50, 0.002, 80.0)
    start = np.array([-1.0, 0.0])
    end = np.array([1.0, 0.0])
    c_s = Condition(start)
    c_e = Condition(end)
    churn = ChurnParams()
    cfg = TrfConfig(alpha=alpha_weights(KIND_LINEAR, args.n_frames))

    print(f"random-walk world, {args.n_frames} frames; start {start}, end {end}")
    print(f"{args.seeds} chains per sampler\n")

    # Each sampler runs every seed as one (B, N, d) batch; row i is seed i's chain.
    seeds = range(args.seeds)
    runs = {
        "fused": trf_sample(backend, sched, c_s, c_e, churn, cfg, RngBatch.from_seeds(seeds))[0],
        "forward": sample(backend, sched, c_s, churn, RngBatch.from_seeds(seeds))[0],
        "interp": baseline_condition_interp(backend, sched, c_s, c_e, churn, RngBatch.from_seeds(seeds))[0],
    }
    for name, xs in runs.items():
        export_trajectory_csv(xs[0], os.path.join(args.out, f"{name}.csv"))

    print("median distance of the final frame from the requested end frame:")
    for name, label in (("fused", "fused two-path sampling"),
                        ("interp", "interpolated-condition baseline"),
                        ("forward", "forward-only sampling")):
        print(f"  {label:34s} {np.median(endpoint_error(runs[name], end)):8.4f}")
    print(f"\nwrote example trajectories to {args.out}/")


if __name__ == "__main__":
    main()
