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

from trflab.core import RngStream
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
    cfg = TrfConfig(alpha=alpha_weights(KIND_LINEAR, args.n_frames))

    print(f"random-walk world, {args.n_frames} frames; start {start}, end {end}")
    print(f"{args.seeds} chains per sampler\n")

    rows = {"fused": [], "forward": [], "interp": []}
    for seed in range(args.seeds):
        xt, _ = trf_sample(backend, sched, c_s, c_e, cfg, RngStream(seed))
        xf, _ = sample(backend, sched, c_s, ChurnParams(), RngStream(seed))
        xi = baseline_condition_interp(backend, sched, c_s, c_e, RngStream(seed))
        rows["fused"].append(endpoint_error(xt, end))
        rows["forward"].append(endpoint_error(xf, end))
        rows["interp"].append(endpoint_error(xi, end))
        if seed == 0:
            export_trajectory_csv(xt, os.path.join(args.out, "fused.csv"))
            export_trajectory_csv(xf, os.path.join(args.out, "forward.csv"))
            export_trajectory_csv(xi, os.path.join(args.out, "interp.csv"))

    print("median distance of the final frame from the requested end frame:")
    for name, label in (("fused", "fused two-path sampling"),
                        ("interp", "interpolated-condition baseline"),
                        ("forward", "forward-only sampling")):
        print(f"  {label:34s} {np.median(rows[name]):8.4f}")
    print(f"\nwrote example trajectories to {args.out}/")


if __name__ == "__main__":
    main()
