#!/usr/bin/env python3
"""Generate a demo input set: a synthetic Bayer frame, a first-layer
weight/BN document, and a run configuration wired to both.

    python3 scripts/make_demo_inputs.py --out demo --rows 128 --cols 160
    ctia-ipc-sim verify --config demo/config.json --out demo/run

--kernel, --stride and --padding set the layer's conv.k, conv.s and
conv.p, so a k5s3p1 demo is `--kernel 5 --stride 3 --padding 1`.
"""

import argparse
import json
import os

import numpy as np

from ctia_ipc.formats import save_pgm16, save_weights
from ctia_ipc.mapper import BnParams


def synthetic_bayer_frame(rows: int, cols: int, rng) -> np.ndarray:
    """Smooth illumination gradient plus blob highlights, mosaicked RGGB."""
    y, x = np.mgrid[0:rows, 0:cols]
    base = 0.25 + 0.5 * (x / max(cols - 1, 1))
    for _ in range(6):
        cy, cx = rng.uniform(0, rows), rng.uniform(0, cols)
        # Frames under 16 rows cap the lower bound at rows / 4 too.
        radius = rng.uniform(min(4, rows / 4), rows / 4)
        base += 0.35 * np.exp(-((y - cy) ** 2 + (x - cx) ** 2) / (2 * radius**2))
    # Per-color gains give the mosaic some chroma structure.
    gains = {(0, 0): 1.0, (0, 1): 0.85, (1, 0): 0.85, (1, 1): 0.7}
    frame = base.copy()
    for (dr, dc), gain in gains.items():
        frame[dr::2, dc::2] *= gain
    frame = np.clip(frame, 0.0, 1.0)
    return np.round(frame * 65535).astype(np.uint16)


def demo_weights(c_o: int, k: int, rng):
    weights = rng.normal(scale=0.4, size=(c_o, 4, k, k))
    # A couple of structured channels: center-surround and a horizontal edge.
    center = k // 2
    weights[0] = -0.1
    weights[0, :, center, center] = 1.0
    if c_o > 1:
        weights[1, :, :center, :] = 0.5
        weights[1, :, center + 1 :, :] = -0.5
    bn = BnParams(
        gamma=rng.uniform(0.8, 1.2, c_o),
        beta=rng.uniform(0.1, 0.6, c_o),
        mu=rng.normal(scale=0.1, size=c_o),
        sigma_sq=rng.uniform(0.8, 1.2, c_o),
        epsilon=1e-5,
    )
    return weights, bn


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="demo", help="output directory")
    parser.add_argument("--rows", type=int, default=128)
    parser.add_argument("--cols", type=int, default=160)
    parser.add_argument("--channels", type=int, default=16)
    parser.add_argument("--kernel", type=int, default=7)
    parser.add_argument("--stride", type=int, default=2)
    parser.add_argument("--padding", type=int, default=0, help="conv.p, written only when > 0")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.rows % 2 or args.cols % 2:
        parser.error("rows and cols must be even (RGGB quads)")

    rng = np.random.default_rng(args.seed)
    os.makedirs(args.out, exist_ok=True)
    save_pgm16(os.path.join(args.out, "frame.pgm"), synthetic_bayer_frame(args.rows, args.cols, rng))
    weights, bn = demo_weights(args.channels, args.kernel, rng)
    save_weights(os.path.join(args.out, "weights.json"), weights, bn)
    config = {
        "array": {"rows": args.rows, "cols": args.cols},
        "conv": {"k": args.kernel, "s": args.stride, "c_o": args.channels},
        "mismatch": {"sigma_cap": 0.01, "sigma_vrst": 1e-4, "sigma_gain": 0.01, "trials": 1000},
        "paths": {"frame": "frame.pgm", "weights": "weights.json"},
        "seed": args.seed,
    }
    if args.padding:
        config["conv"]["p"] = args.padding
    config_path = os.path.join(args.out, "config.json")
    with open(config_path, "w", encoding="utf-8") as handle:
        json.dump(config, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}/frame.pgm, weights.json, config.json")
    print(f"try: ctia-ipc-sim verify --config {config_path} --out {args.out}/run")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
