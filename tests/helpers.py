"""Whole-grid arrays from a label stream, for tests that check a trajectory as a whole."""

import dataclasses

import numpy as np

from resonet import Block


def collect(blocks) -> Block:
    """One Block spanning the whole grid, concatenated from the blocks of a label stream."""
    blocks = list(blocks)
    return Block(**{f.name: np.concatenate([getattr(b, f.name) for b in blocks]) for f in dataclasses.fields(Block)})
