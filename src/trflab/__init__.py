"""trflab: bounded sequence generation by fused forward/backward diffusion sampling.

A desk-scale laboratory for sampling sequences pinned at both ends: one
latent is denoised along a forward path conditioned on the start frame and
a backward path conditioned on the end frame, and the two predictions are
fused every step. Analytic Gaussian and Gaussian-mixture denoisers provide
exact oracles; a small trainable MLP backend demonstrates the same
machinery on learned weights.
"""

__version__ = "0.1.0"
