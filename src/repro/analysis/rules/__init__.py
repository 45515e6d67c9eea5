"""The shipped rules; importing this module registers all of them."""

from repro.analysis.rules import (  # noqa: F401 - registration side effects
    canonical_crossing,
    exception_retention,
    executor_lifecycle,
    plane_discipline,
    rng_draw_order,
    shard_pickle,
    wire_bounds,
)
