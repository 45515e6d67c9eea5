"""The paper's Section 6.2 application scenarios, as reusable configs.

Each scenario bundles the AFE(s) the application needs, a synthetic
data generator with the right shape (the real UCI datasets and user
telemetry are not redistributable; only dimensionality and bit-width
affect cost and algebra), and the multiplication-gate count that
Figure 7 reports next to each workload name.

Figure 7's workloads:

======================  =======================================  ======
label                   configuration                            gates*
======================  =======================================  ======
Cell / Geneva..Tokyo    per-grid-cell 4-bit signal strength      64..8760
Browser / Low-,HighRes  2 sums + 16-URL count-min sketch         80 / 1410
Survey / Beck-21        21 questions, 1-4 scale                  84
Survey / PCRI-78        78 questions, 1-4 scale                  312
Survey / CPI-434        434 boolean questions                    434
LinReg / Heart          13 features (mixed widths)               174
LinReg / BrCa           30 features, 14-bit fixed point          930
======================  =======================================  ======

(*) the paper's gate counts; ours are computed from our circuits and
reported side by side by ``benchmarks/bench_fig7.py`` — same order of
magnitude, not bit-identical, because encoding details differ slightly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.afe.base import Afe
from repro.afe.frequency import FrequencyCountAfe
from repro.afe.regression import LinRegAfe
from repro.afe.sketch import CountMinSketchAfe
from repro.afe.sums import IntegerSumAfe
from repro.field.parameters import FIELD87
from repro.field.prime_field import PrimeField


@dataclass
class Scenario:
    """One Figure 7 workload: an AFE plus a matching data generator."""

    name: str
    group: str
    afe: Afe
    generate: Callable[[Any], Any]  # rng -> one client value
    paper_mul_gates: int

    @property
    def mul_gates(self) -> int:
        circuit = self.afe.valid_circuit()
        return 0 if circuit is None else circuit.n_mul_gates


# ----------------------------------------------------------------------
# Cell signal strength (grid of 4-bit averages)
# ----------------------------------------------------------------------


class CellSignalAfe(IntegerSumAfe):
    """Sum of 4-bit signal strengths for one grid cell.

    A full deployment sums a vector with one slot per cell; for the
    Figure 7 client-cost benchmark what matters is the total number of
    4-bit integers, i.e. grid cells.  We model the submission as
    ``n_cells`` stacked 4-bit sum encodings.
    """

    def __init__(self, field: PrimeField, n_cells: int) -> None:
        super().__init__(field, 4)
        self.n_cells = n_cells
        self.k = (4 + 1) * n_cells
        self.k_prime = n_cells
        self.name = f"cell-signal-{n_cells}"

    def encode(self, values, rng=None):
        if len(values) != self.n_cells:
            from repro.afe.base import AfeError

            raise AfeError(f"expected {self.n_cells} cell readings")
        single = IntegerSumAfe(self.field, 4)
        out: list[int] = []
        bits: list[int] = []
        for v in values:
            enc = single.encode(v)
            out.append(enc[0])
            bits.extend(enc[1:])
        # Values first (the aggregated prefix), then all bits.
        return out + bits

    def valid_circuit(self):
        from repro.circuit.circuit import CircuitBuilder
        from repro.circuit.gadgets import assert_binary_decomposition

        # Input layout matches encode(): all cell values first (the
        # aggregated prefix), then the 4 bits of each cell in order.
        builder = CircuitBuilder(self.field, name=self.name)
        value_wires = builder.inputs(self.n_cells)
        bit_wires = builder.inputs(4 * self.n_cells)
        for i, value_wire in enumerate(value_wires):
            assert_binary_decomposition(
                builder, value_wire, bit_wires[4 * i : 4 * (i + 1)]
            )
        return builder.build()

    def decode(self, sigma, n_clients):
        del n_clients
        return list(sigma)


def _cell_generator(n_cells):
    def generate(rng):
        return [rng.randrange(16) for _ in range(n_cells)]

    return generate


#: (city, grid cells) — gate counts in Figure 7 are cells * 4 bits.
CELL_GRIDS = (
    ("geneva", 16, 64),
    ("seattle", 217, 868),
    ("chicago", 606, 2424),
    ("london", 1570, 6280),
    ("tokyo", 2190, 8760),
)


# ----------------------------------------------------------------------
# Anonymous surveys
# ----------------------------------------------------------------------


class SurveyAfe(Afe):
    """A battery of Likert-scale questions, each a frequency count.

    A q-question survey with c choices per question encodes as q
    stacked one-hot vectors; the aggregate is the per-question response
    histogram (how Prio collects "aggregate responses to sensitive
    surveys").
    """

    leakage = "per-question response histograms"

    def __init__(self, field: PrimeField, n_questions: int, n_choices: int):
        self.field = field
        self.n_questions = n_questions
        self.n_choices = n_choices
        self.k = n_questions * n_choices
        self.k_prime = self.k
        self.name = f"survey-{n_questions}x{n_choices}"
        self._single = FrequencyCountAfe(field, n_choices)

    def encode(self, answers, rng=None):
        from repro.afe.base import AfeError

        if len(answers) != self.n_questions:
            raise AfeError(f"expected {self.n_questions} answers")
        out: list[int] = []
        for answer in answers:
            out.extend(self._single.encode(answer))
        return out

    def valid_circuit(self):
        from repro.circuit.circuit import CircuitBuilder
        from repro.circuit.gadgets import assert_one_hot

        builder = CircuitBuilder(self.field, name=self.name)
        for _ in range(self.n_questions):
            wires = builder.inputs(self.n_choices)
            assert_one_hot(builder, wires)
        return builder.build()

    def decode(self, sigma, n_clients):
        del n_clients
        c = self.n_choices
        return [
            list(sigma[q * c : (q + 1) * c]) for q in range(self.n_questions)
        ]


def _survey_generator(n_questions, n_choices):
    def generate(rng):
        return [rng.randrange(n_choices) for _ in range(n_questions)]

    return generate


#: (name, questions, choices, paper gate count)
SURVEYS = (
    ("beck-21", 21, 4, 84),
    ("pcri-78", 78, 4, 312),
    ("cpi-434", 434, 2, 434),
)


# ----------------------------------------------------------------------
# Browser statistics (2 resource sums + URL count-min sketch)
# ----------------------------------------------------------------------


class BrowserStatsAfe(Afe):
    """Average CPU + memory usage plus 16-URL-root frequency counts.

    CPU and memory are 7-bit percentages (sum AFE); URL roots go into a
    count-min sketch.  Low/high resolution matches the paper's two
    parameter sets.
    """

    leakage = "CPU/memory sums plus the aggregate count-min sketch"

    def __init__(
        self, field: PrimeField, epsilon: float, delta: float
    ) -> None:
        self.field = field
        self._cpu = IntegerSumAfe(field, 7)
        self._mem = IntegerSumAfe(field, 7)
        self._sketch = CountMinSketchAfe(field, epsilon, delta)
        self.k = self._cpu.k + self._mem.k + self._sketch.k
        self.k_prime = 2 + self._sketch.k_prime
        self.name = f"browser-{self._sketch.depth}x{self._sketch.width}"

    def encode(self, value, rng=None):
        cpu, mem, url = value
        cpu_enc = self._cpu.encode(cpu)
        mem_enc = self._mem.encode(mem)
        sketch_enc = self._sketch.encode(url)
        # Aggregated prefix first: cpu total, mem total, sketch cells.
        return (
            [cpu_enc[0], mem_enc[0]]
            + sketch_enc
            + cpu_enc[1:]
            + mem_enc[1:]
        )

    def valid_circuit(self):
        from repro.circuit.circuit import CircuitBuilder
        from repro.circuit.gadgets import (
            assert_binary_decomposition,
            assert_one_hot,
        )

        builder = CircuitBuilder(self.field, name=self.name)
        cpu = builder.input()
        mem = builder.input()
        sketch_wires = builder.inputs(self._sketch.k)
        cpu_bits = builder.inputs(7)
        mem_bits = builder.inputs(7)
        width = self._sketch.width
        for row in range(self._sketch.depth):
            assert_one_hot(
                builder, sketch_wires[row * width : (row + 1) * width]
            )
        assert_binary_decomposition(builder, cpu, cpu_bits)
        assert_binary_decomposition(builder, mem, mem_bits)
        return builder.build()

    def decode(self, sigma, n_clients):
        from repro.afe.sketch import CountMinSketch

        cpu_total, mem_total = sigma[0], sigma[1]
        sketch = CountMinSketch(self._sketch, list(sigma[2:]))
        return {
            "cpu_mean": cpu_total / n_clients if n_clients else 0.0,
            "mem_mean": mem_total / n_clients if n_clients else 0.0,
            "url_sketch": sketch,
        }


_URL_ROOTS = tuple(f"site-{i}.example" for i in range(16))


def _browser_generator():
    def generate(rng):
        return (
            rng.randrange(100),
            rng.randrange(100),
            _URL_ROOTS[min(rng.randrange(20), 15)],  # skewed tail
        )

    return generate


#: (name, epsilon, delta, paper gate count)
BROWSER_CONFIGS = (
    ("lowres", 1 / 10, 2**-10, 80),
    ("highres", 1 / 100, 2**-20, 1410),
)


# ----------------------------------------------------------------------
# Health regression datasets
# ----------------------------------------------------------------------

#: (name, dimension, bits, paper gate count) — shapes of the UCI
#: heart-disease (13 mixed features) and Wisconsin breast-cancer
#: (30 features, 14-bit fixed point) datasets.
HEALTH_DATASETS = (
    ("heart", 13, 10, 174),
    ("brca", 30, 14, 930),
)


def _regression_generator(dimension, n_bits):
    def generate(rng):
        max_x = (1 << (n_bits // 2)) - 1
        features = [rng.randrange(max_x) for _ in range(dimension)]
        label = min(
            (1 << n_bits) - 1,
            sum(features) // dimension + rng.randrange(8),
        )
        return (features, label)

    return generate


# ----------------------------------------------------------------------
# Scenario registry
# ----------------------------------------------------------------------


def all_scenarios(field: PrimeField = FIELD87) -> list[Scenario]:
    """Every Figure 7 workload, in the figure's left-to-right order."""
    out: list[Scenario] = []
    for city, cells, gates in CELL_GRIDS:
        out.append(
            Scenario(
                name=city,
                group="cell",
                afe=CellSignalAfe(field, cells),
                generate=_cell_generator(cells),
                paper_mul_gates=gates,
            )
        )
    for name, eps, delta, gates in BROWSER_CONFIGS:
        out.append(
            Scenario(
                name=name,
                group="browser",
                afe=BrowserStatsAfe(field, eps, delta),
                generate=_browser_generator(),
                paper_mul_gates=gates,
            )
        )
    for name, questions, choices, gates in SURVEYS:
        out.append(
            Scenario(
                name=name,
                group="survey",
                afe=SurveyAfe(field, questions, choices),
                generate=_survey_generator(questions, choices),
                paper_mul_gates=gates,
            )
        )
    for name, dim, bits, gates in HEALTH_DATASETS:
        out.append(
            Scenario(
                name=name,
                group="linreg",
                afe=LinRegAfe(field, dimension=dim, n_bits=bits),
                generate=_regression_generator(dim, bits),
                paper_mul_gates=gates,
            )
        )
    return out


def scenario_by_name(name: str, field: PrimeField = FIELD87) -> Scenario:
    for scenario in all_scenarios(field):
        if scenario.name == name:
            return scenario
    raise KeyError(f"unknown scenario {name!r}")
