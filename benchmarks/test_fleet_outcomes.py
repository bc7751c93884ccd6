"""Bench-fleet outcomes by position: why the 100-node fleet loses polls.

The benchmark's 100-node fleet (``bench/workloads.py``) delivers about
half of its polls.  This view attributes every position to one of four
classes, as the LoRaMesh exemplar's ``id_vs_pdr`` plots delivery per
node id:

* **power-up null** -- the node never powers up (a standing-wave null
  of the image-source tank: the nodes are 4 cm apart and the carrier's
  wavelength is 10 cm);
* **ISI-limited** -- it powers up but decodes no reply, not even with
  the noise floor at -200 dB, so inter-chip interference, not noise,
  fails it;
* **healthy** -- every exchange at the bench's 35 dB floor decodes;
* **noise-limited** -- the rest: some exchange decodes, but not every
  one at 35 dB.  At seed 2019 this class holds two positions that
  decode once at 35 dB and never noise-free: decoding is not monotone
  in SNR.

Each position runs three ``READ_PH`` exchanges on its bare link at the
bench's seeded 35 dB floor, then three more after a -200 dB noise model
is swapped into the same link.  The CSV holds only what places and
classifies a position (the link budget's incident pressure is analytic),
so it stays the same while the waveform numerics change.
"""

import importlib.util
import pathlib

from repro.acoustics.noise import AmbientNoiseModel
from repro.core.experiment import ExperimentTable
from repro.net.messages import Command, Query

from conftest import run_once

SEED = 2019
EXCHANGES = 3
CLASSES = ("power-up null", "ISI-limited", "healthy", "noise-limited")


def _bench_links():
    """The 100 links of the bench fleet, as ``bench/workloads.py`` builds them."""
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    _reader, links = workloads.build_fleet_reader(range(100), SEED, 0)
    return links


def _successes(link, query) -> tuple[int, int]:
    """``(powered, decoded)`` exchanges out of :data:`EXCHANGES`."""
    results = [link.run_query(query) for _ in range(EXCHANGES)]
    return (
        sum(r.powered_up for r in results),
        sum(r.success for r in results),
    )


def _classify(powered: int, noisy: int, quiet: int) -> str:
    if powered == 0:
        return "power-up null"
    if noisy == quiet == 0:
        return "ISI-limited"
    if noisy == EXCHANGES:
        return "healthy"
    return "noise-limited"


def run_outcomes() -> ExperimentTable:
    table = ExperimentTable(
        title="Bench fleet outcomes by position (seed 2019, READ_PH x3)",
        columns=(
            "index", "address", "position_m", "incident_pa",
            "success_35db", "success_noise_free", "class",
        ),
    )
    for index, (addr, link) in enumerate(sorted(_bench_links().items())):
        query = Query(destination=addr, command=Command.READ_PH)
        powered, noisy = _successes(link, query)
        link.noise = AmbientNoiseModel(
            spectrum="flat", flat_level_db=-200.0, seed=0
        )
        _powered, quiet = _successes(link, query)
        p = link.ch_projector_node.receiver
        table.add_row(
            index, f"0x{addr:02x}", f"{p.x:.2f} {p.y:.2f} {p.z:.2f}",
            link.budget().incident_pressure_pa, noisy, quiet,
            _classify(powered, noisy, quiet),
        )
    return table


def test_fleet_outcome_classes(benchmark, report):
    table = run_once(benchmark, run_outcomes)
    report(table, "fleet_outcomes.csv")

    classes = table.column("class")
    counts = {name: classes.count(name) for name in CLASSES}
    assert counts == {
        "power-up null": 19,
        "ISI-limited": 25,
        "healthy": 45,
        "noise-limited": 11,
    }
    # Power-up is a threshold on incident pressure: every null sees
    # less of it than any position that powers up.
    incident = dict(zip(table.column("index"), table.column("incident_pa")))
    nulls = [incident[i] for i, c in enumerate(classes) if c == "power-up null"]
    powered = [incident[i] for i, c in enumerate(classes) if c != "power-up null"]
    assert max(nulls) < min(powered)
