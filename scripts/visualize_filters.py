#!/usr/bin/env python3
"""Dump a model's layer-1 filters as a PGM tile sheet for eyeballing.

Slow-feature training on translating textures should produce localized,
oriented, quadrature-paired filters; a sheet of unstructured noise means
training went nowhere.
"""

import argparse
import math

import numpy as np

from slowtrack.encoder import filters_as_patches
from slowtrack.hierarchy import load_model
from slowtrack.patches import save_frame


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
