"""Distributed differential-privacy noise (the Section 7 extension).

Prio publishes *exact* aggregates, so an intersection attack (run the
protocol with and without one client) can reveal an individual's value.
The paper's recommended defence: "the servers can add differential
privacy noise to the results before publishing them ... in a
distributed fashion to ensure that as long as at least one server is
honest, no server sees the un-noised aggregate" (citing Dwork et al.).

Construction: the discrete Laplace (two-sided geometric) distribution
is infinitely divisible —

    DLap(alpha)  =  sum_{j=1}^{s} [ Polya(1/s, alpha) - Polya(1/s, alpha) ]

so each of the s servers independently samples the difference of two
Polya(1/s, alpha) variables and adds it to its accumulator share before
publishing.  The published total then carries exactly DLap(alpha) noise
with ``alpha = exp(-epsilon / sensitivity)``, giving epsilon-DP, while
no proper subset of servers knows the total noise.

Polya(r, alpha) is sampled as a Gamma(r)-mixed Poisson.

Noising is *plane-resident*: :func:`server_noise_vector` draws every
component's two Polya variables in two batched numpy calls (one
``gamma`` sweep, one ``poisson`` sweep), and
:func:`add_noise_to_accumulator` maps the signed difference into the
field with :func:`repro.field.batch.signed_delta_batch` — limb
shift/mask passes plus one vectorized modular subtraction — then adds
it to the accumulator's limb planes.  A server's accumulator therefore
stays a plane from the first accepted share to ``publish()``, noise
included; no per-component Python-int field ops anywhere.  The scalar
:func:`server_noise_share` remains as the reference sampler the
distributional tests compare against.
"""

from __future__ import annotations

import math

from repro.field.batch import BatchVector, signed_delta_batch
from repro.field.prime_field import PrimeField

try:  # numpy drives the samplers; the module stays importable without it
    import numpy as np
except ImportError:  # pragma: no cover - exercised on numpy-free hosts
    np = None


class DpError(ValueError):
    pass


def _check_parameters(
    epsilon: float, sensitivity: float, n_servers: int
) -> float:
    if np is None:
        raise DpError("differential-privacy noise sampling needs numpy")
    if epsilon <= 0:
        raise DpError("epsilon must be positive")
    if sensitivity <= 0:
        raise DpError("sensitivity must be positive")
    if n_servers < 1:
        raise DpError("need at least one server")
    return math.exp(-epsilon / sensitivity)


def _polya_sample(generator, r: float, alpha: float) -> int:
    """One Polya(r, alpha) draw: Poisson with Gamma(r, alpha/(1-alpha)) rate."""
    rate = generator.gamma(shape=r, scale=alpha / (1.0 - alpha))
    return int(generator.poisson(rate))


def server_noise_share(
    epsilon: float,
    sensitivity: float,
    n_servers: int,
    generator,
) -> int:
    """One server's additive noise share (a signed integer).

    Summing all ``n_servers`` shares yields a discrete Laplace variable
    calibrated for ``epsilon``-DP at the given query sensitivity.
    """
    alpha = _check_parameters(epsilon, sensitivity, n_servers)
    r = 1.0 / n_servers
    return _polya_sample(generator, r, alpha) - _polya_sample(
        generator, r, alpha
    )


def server_noise_vector(
    n_components: int,
    epsilon: float,
    sensitivity: float,
    n_servers: int,
    generator=None,
):
    """One server's noise shares for every component, batched.

    Distributionally identical to ``n_components`` independent
    :func:`server_noise_share` draws (each component's share is the
    difference of two Polya(1/s, alpha) variables) but sampled in one
    ``gamma`` sweep and one ``poisson`` sweep.  Returns the pair
    ``(positives, negatives)`` of nonnegative ``int64`` arrays — kept
    unsubtracted so the field embedding can stay vectorized
    (:func:`repro.field.batch.signed_delta_batch`); the signed share
    vector is ``positives - negatives``.  ``generator`` None draws
    from a fresh generator seeded from OS entropy.
    """
    alpha = _check_parameters(epsilon, sensitivity, n_servers)
    if n_components < 0:
        raise DpError("n_components must be nonnegative")
    if generator is None:
        generator = np.random.default_rng()
    r = 1.0 / n_servers
    rates = generator.gamma(
        shape=r, scale=alpha / (1.0 - alpha), size=(2, n_components)
    )
    draws = generator.poisson(rates)
    return draws[0], draws[1]


def add_noise_to_accumulator(
    field: PrimeField,
    accumulator: "BatchVector | list[int]",
    epsilon: float,
    sensitivity: float,
    n_servers: int,
    generator=None,
):
    """Noise every accumulator component (per-component epsilon).

    ``accumulator`` may be the server's plane-resident
    :class:`~repro.field.batch.BatchVector` (the no-int-crossing path:
    the noise vector is sampled batched, embedded into limb planes, and
    plane-added; a ``BatchVector`` on the same backend comes back) or a
    plain ``list[int]`` (compatibility seam — one batched encode in,
    one batched decode out).

    Callers splitting an epsilon budget across components should divide
    epsilon accordingly before calling.
    """
    plane_resident = isinstance(accumulator, BatchVector)
    if plane_resident:
        if len(accumulator.shape) != 1:
            raise DpError("accumulator must be a 1-D vector")
        acc = accumulator
    else:
        acc = BatchVector.from_ints(field, list(accumulator))
    positives, negatives = server_noise_vector(
        acc.shape[0], epsilon, sensitivity, n_servers, generator
    )
    delta = signed_delta_batch(
        field, positives, negatives, force_pure=acc.force_pure
    )
    noised = acc + delta
    return noised if plane_resident else noised.to_ints()


def discrete_laplace_scale(epsilon: float, sensitivity: float) -> float:
    """Standard deviation of the total published noise (for accuracy
    accounting in experiments)."""
    alpha = math.exp(-epsilon / sensitivity)
    return math.sqrt(2 * alpha) / (1 - alpha)
