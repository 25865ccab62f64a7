"""Workload table and seeded input generation for the rfmloc benchmark.

A workload fixes the building (size, access points, receiver
sensitivity), the survey (walk and measurements) and the positioning
parameter k. The run seed draws the stream of users: the query
locations, one uniform-random point in each cell of a grid over the
region (stratified, so the share of hard spots varies less between seeds
than with independent points), and the query measurements. A fixed
survey keeps the map, and with it the builder's work and the share of
queries that end in each termination state, the same for every seed; a
seeded survey moved that share by up to 0.3 between seeds, and the
per-query cost with it.

Inputs are generated with ``rfmloc.synth`` only; the program under test
receives them as the JSONL files its CLI reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from rfmloc import synth
from rfmloc.model import Fingerprint, Location

# the building and the survey walk, the same for every workload and seed
ENV_SEED = 7
SURVEY_SEED = 7
WALK_PASSES = 4  # enough walk for n_records at the spacing used


@dataclass(frozen=True)
class Workload:
    """One building, survey and positioning setting; README.md says why
    each exists and what it should show."""

    name: str
    width: float
    height: float
    n_aps: int
    sensitivity: float
    spacing: float
    n_records: int
    query_grid: tuple[int, int]
    k: int


WORKLOADS = {w.name: w for w in (
    Workload(
        name="locate_k1_dense",
        width=70.0, height=40.0, n_aps=24, sensitivity=-110.0, spacing=0.7,
        n_records=906, query_grid=(30, 20), k=1),
    Workload(
        name="locate_k3_sparse",
        width=70.0, height=40.0, n_aps=24, sensitivity=-90.0, spacing=0.7,
        n_records=906, query_grid=(30, 20), k=3),
)}

# Shrinks a workload for the benchmark's own smoke test.
TINY = dict(width=30.0, height=20.0, n_aps=8, n_records=200, query_grid=(8, 5))


def make_inputs(w: Workload, seed: int) -> tuple[list[Fingerprint], list[Fingerprint]]:
    """Survey records and query fingerprints, both carrying their true
    location. Same (workload, seed), same inputs, byte for byte."""
    env = synth.make_environment(ENV_SEED, width=w.width, height=w.height,
                                 n_aps=w.n_aps, sensitivity=w.sensitivity)
    plan = synth.SurveyPlan(seed=SURVEY_SEED, n_passes=WALK_PASSES,
                            sample_spacing=w.spacing)
    raw, held_out = synth.generate_dataset(env, plan)
    walk = sorted(raw.records + tuple(held_out), key=lambda rec: rec.id)
    if len(walk) < w.n_records:
        raise ValueError(f"{w.name}: the walk has {len(walk)} records, "
                         f"fewer than {w.n_records}")
    survey = walk[:w.n_records]
    rng = np.random.default_rng([seed & 0x7FFFFFFF, 0x5EED])
    nx, ny = w.query_grid
    dx, dy = w.width / nx, w.height / ny
    queries = []
    for cell in rng.permutation(nx * ny):
        cx, cy = divmod(int(cell), ny)
        while True:
            loc = Location(float((cx + rng.random()) * dx), float((cy + rng.random()) * dy))
            fp = synth.sample_fingerprint(env, loc, rng, len(queries))
            if fp.features:  # a scan that heard nothing is not a query
                break
        queries.append(fp)
    return survey, queries
