"""Train a denoiser on rendered blob sequences, then generate with it.

The other demos use analytic denoisers; this one learns the denoiser from
data. The world renders arc trajectories as a Gaussian bump moving across
a 16x16 grid, and a small MLP is trained on the usual noise-level-weighted
denoising objective. Afterwards the trained network drives the fused
two-path sampler between rendered start and end frames, and the bump's
recovered pixel position in the final frame is compared against the
requested end position.

The default step count keeps the demo under a minute; pass --full for the
longer run whose smoothed loss drops well below half its starting value.
Writes checkpoint.trfw, loss_curve.csv, and one PGM image per generated
frame to --out.
"""

import argparse
import os

import numpy as np

from trflab.core import RngBatch
from trflab.denoiser import Condition
from trflab.harness import export_frames_pgm, save_training
from trflab.schedule import ChurnParams, build_karras
from trflab.train import MlpBackend, TrainConfig, load_checkpoint, train
from trflab.trf import KIND_LINEAR, TrfConfig, alpha_weights, trf_sample
from trflab.worlds import MovingBlobWorld, TrajectoryGmmWorld, blob_position


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="out/blob_training")
    ap.add_argument("--full", action="store_true",
                    help="train for 5000 steps instead of 1000")
    ap.add_argument("--seeds", type=int, default=5, help="rollouts for the endpoint check")
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    world = MovingBlobWorld(TrajectoryGmmWorld.arcs(n_frames=8, tau=0.1),
                            grid_size=16, bump_std=1.5, pixels_per_unit=5.0)
    n_steps = 5000 if args.full else 1000
    # sigma_data matches the pixel scale of the renders; the noise-level
    # distribution leans low, where the bump structure lives.
    cfg = TrainConfig(lr=1e-3, n_steps=n_steps, batch_size=64,
                      sigma_data=0.10, p_mean=-1.6, p_std=1.4, seed=0)

    print(f"blob world: {world.n_frames} frames of {world.grid_size}x{world.grid_size} pixels")
    print(f"training the MLP denoiser for {n_steps} steps ...")
    params, curve = train(world, cfg)
    first = curve[:100].mean()
    last = curve[-100:].mean()
    print(f"  smoothed loss {first:.4f} -> {last:.4f} (ratio {last / first:.3f})")

    ckpt = save_training(args.out, params, curve)
    backend = MlpBackend(load_checkpoint(ckpt))

    start_pos = np.array([-1.0, 0.0])
    end_pos = np.array([1.0, 0.0])
    c_s = Condition(world.render_positions(start_pos[None, :])[0][0])
    c_e = Condition(world.render_positions(end_pos[None, :])[0][0])
    sched = build_karras(25, 0.002, 10.0)
    trf_cfg = TrfConfig(alpha=alpha_weights(KIND_LINEAR, world.n_frames))
    target_pix = world.to_pixel(end_pos)

    print(f"\nsampling {args.seeds} fused sequences with the trained denoiser ...")
    # One (B, N, d) batch of every seed; row i is seed i's chain.
    xs, _ = trf_sample(backend, sched, c_s, c_e, ChurnParams(), trf_cfg, RngBatch.from_seeds(range(args.seeds)))
    g = world.grid_size
    found = np.array([blob_position(x[-1].reshape(g, g), world.bump_std) for x in xs])
    errors = np.linalg.norm(found - target_pix, axis=1)
    export_frames_pgm(xs[0].reshape(world.n_frames, g, g), args.out)
    print(f"  final-frame bump position error: mean {np.mean(errors):.2f} px, "
          f"max {np.max(errors):.2f} px (target pixel {target_pix})")
    print(f"\nwrote checkpoint, loss curve, and seed-0 frames to {args.out}/")


if __name__ == "__main__":
    main()
