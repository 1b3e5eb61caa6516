"""Figure 3 — Device heterogeneity across the fleet.

Profiles the eight catalogued fleet SSDs (A-H) with the fio-style
saturating sweeps and reports the figure's series: random/sequential
read/write IOPS (left axis) and read/write latency (right axis).

The per-device fan-out is one ``profile_device`` sweep cell per SSD.

Shape anchors from the paper's text: SSD H achieves high IOPS at a low
latency, SSD G offers low IOPS and a relatively low latency, SSD A provides
moderate IOPS with a higher latency.
"""

from repro.analysis.report import Table, format_si
from repro.exp import ExperimentSpec

from benchmarks.conftest import run_figure

FLEET = tuple(f"fleet_{letter}" for letter in "abcdefgh")

# Short sweeps keep the bench quick; IOPS converge fast.
SPEC = ExperimentSpec(
    name="fig3-device-heterogeneity",
    kind="profile_device",
    base={"read_duration": 0.08, "write_duration": 0.3},
    grid={"device": FLEET},
)


def test_fig3_device_heterogeneity(benchmark):
    profiles = run_figure(benchmark, SPEC)

    table = Table(
        "Figure 3: Device heterogeneity across the fleet",
        ["device", "rand rd IOPS", "seq rd IOPS", "rand wr IOPS", "rd lat p50", "wr lat p50"],
    )
    for name in FLEET:
        profile = profiles[name]
        table.add_row(
            name.replace("fleet_", "SSD ").upper(),
            format_si(profile["rrandiops"]),
            format_si(profile["rseqiops"]),
            format_si(profile["wrandiops"]),
            f"{profile['read_lat_p50'] * 1e6:.0f}us",
            f"{profile['write_lat_p50'] * 1e6:.0f}us",
        )
    table.print()

    iops = {name: profiles[name]["rrandiops"] for name in FLEET}
    lat = {name: profiles[name]["read_lat_p50"] for name in FLEET}
    # H: highest IOPS; G: lowest IOPS; A: moderate IOPS with higher latency.
    assert iops["fleet_h"] == max(iops.values())
    assert iops["fleet_g"] == min(iops.values())
    assert lat["fleet_h"] == min(lat.values())
    median_iops = sorted(iops.values())[len(iops) // 2]
    assert 0.3 * median_iops < iops["fleet_a"] < 3 * median_iops
    assert lat["fleet_a"] > 1.5 * lat["fleet_h"]
    # Wide heterogeneity overall: an order of magnitude across the fleet.
    assert max(iops.values()) > 8 * min(iops.values())
