#!/usr/bin/env python3
"""Dump a model's layer-1 filters as a PGM tile sheet for eyeballing.

Slow-feature training on translating textures should produce localized,
oriented, quadrature-paired filters; a sheet of unstructured noise means
training went nowhere.
"""

import argparse
import math

import numpy as np

from slowtrack.hierarchy import load_model
from slowtrack.patches import save_frame


def filters_as_patches(weights: np.ndarray, side: int) -> list[np.ndarray]:
    """Reshape each filter row to side x side, min-max scaled to [0, 1].

    Constant rows map to the all-0.5 image.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if side * side != weights.shape[1]:
        raise ValueError(
            f"side {side} squared != filter length {weights.shape[1]}"
        )
    images = []
    for row in weights:
        img = row.reshape(side, side)
        lo, hi = img.min(), img.max()
        if hi - lo < 1e-15:
            images.append(np.full((side, side), 0.5))
        else:
            images.append((img - lo) / (hi - lo))
    return images


def tile(images, pad=2):
    side = images[0].shape[0]
    cols = int(math.ceil(math.sqrt(len(images))))
    rows = int(math.ceil(len(images) / cols))
    sheet = np.zeros((rows * (side + pad) + pad, cols * (side + pad) + pad))
    for k, img in enumerate(images):
        r, c = divmod(k, cols)
        y = pad + r * (side + pad)
        x = pad + c * (side + pad)
        sheet[y : y + side, x : x + side] = img
    return sheet


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("model")
    parser.add_argument("--out", default="filters.pgm")
    args = parser.parse_args()

    model = load_model(args.model)
    images = filters_as_patches(model.layer1.weights, 16)
    sheet = tile(images)
    save_frame(sheet, args.out)
    print(f"wrote {len(images)} layer-1 filters to {args.out}")


if __name__ == "__main__":
    main()
