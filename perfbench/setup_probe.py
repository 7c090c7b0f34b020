"""Time the set-up one `fedgs-sim run` pays before its first round, in this fresh process.

    python3 perfbench/setup_probe.py SRC_DIR CONFIG

Imports fedgs_sim from SRC_DIR, parses CONFIG and builds the federation of
every seed it lists, then times the reference kernel, so that the set-up
time can be scaled by the machine's speed at that moment. Prints both
times in seconds, set-up first.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from fedgs_sim.config import parse_config  # noqa: E402
from fedgs_sim.data import build_federation  # noqa: E402

cfg = parse_config(sys.argv[2])
for seed in cfg.seeds:
    build_federation(list(cfg.client_specs), seed)
setup_s = time.perf_counter() - start

import reference  # noqa: E402

print(repr(setup_s), repr(reference.sample(reps=reference.PROBE_REPS)))
