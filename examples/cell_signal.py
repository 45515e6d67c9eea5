#!/usr/bin/env python3
"""Cell-signal-strength mapping with differential-privacy noise.

Section 6.2's first application: phones report a 4-bit signal strength
for each cell of a city grid; the servers learn per-cell totals (hence
average signal) without learning any phone's location history.

This example also demonstrates the Section 7 extension: before
publishing, each server adds a share of discrete-Laplace noise so the
published map is differentially private against intersection attacks.

Run:  python examples/cell_signal.py
"""

import random

from repro import PrioDeployment
from repro.field import FIELD87
from repro.protocol.dp import discrete_laplace_scale
from repro.workloads import CellSignalAfe

GRID = 4  # 4x4 grid, the "Geneva" scale of Figure 7
N_PHONES = 60
EPSILON = 1.0


def main() -> None:
    rng = random.Random(99)
    n_cells = GRID * GRID
    afe = CellSignalAfe(FIELD87, n_cells=n_cells)
    deployment = PrioDeployment.create(afe, n_servers=5, rng=rng)

    # Phones measure stronger signal near the city center.
    def measure(phone_rng):
        readings = []
        for row in range(GRID):
            for col in range(GRID):
                distance = abs(row - GRID // 2) + abs(col - GRID // 2)
                base = max(2, 14 - 3 * distance)
                readings.append(
                    min(15, max(0, base + phone_rng.randrange(-2, 3)))
                )
        return readings

    accepted = deployment.submit_many(measure(rng) for _ in range(N_PHONES))
    print(f"accepted {accepted}/{N_PHONES} phone reports")

    # --- DP extension: each server noises its accumulator before
    # publishing.  Sensitivity per cell is 15 (one phone's max value).
    # The noise is sampled batched and added to the accumulator's limb
    # planes — the aggregate only decodes to ints at publish().  Each
    # server draws its share from its own OS-seeded generator: a seed
    # shared by every server would let anyone who knows it subtract
    # the noise again.
    for server in deployment.servers:
        server.add_dp_noise(epsilon=EPSILON, sensitivity=15.0)
    scale = discrete_laplace_scale(EPSILON, 15.0)
    print(f"per-cell DP noise stddev ~ {scale:.1f} (epsilon = {EPSILON})")

    totals = deployment.publish()
    print("average signal strength per grid cell (noised):")
    for row in range(GRID):
        cells = []
        for col in range(GRID):
            total = FIELD87.to_signed(totals[row * GRID + col])
            cells.append(f"{total / accepted:5.1f}")
        print("   " + " ".join(cells))
    print("(stronger toward the center, as the phones measured)")


if __name__ == "__main__":
    main()
