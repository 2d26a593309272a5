"""Sec. III-E — the privacy knob's trade-off curve over a 20-home fleet.

``test_privacy_utility_frontier.py`` sweeps the knob over *one* home;
the paper's proposal is population-facing — the knob "can be adjusted to
tradeoff the loss of privacy ... with the value or utility offered by
the service" for whole service territories.  This benchmark runs the
fleet sweep engine over a mixed 20-home population, dialing three
mechanistically different defenses (battery leveling, DP release, CHPr
heat masking) through four knob settings each, and checks the frontier's
shape: the dial buys privacy monotonically, and what it charges differs
by mechanism (batteries burn energy, DP burns analytics, CHPr burns
neither but is capped by tank physics).
"""

from bench_util import once, print_table
from repro.fleet import SweepGrid, run_sweep

GRID = SweepGrid(
    defenses=("nill", "dp-laplace", "chpr"),
    settings=(0.0, 0.33, 0.67, 1.0),
    n_homes=20,
    days=1,
    seeds=(0,),
    mix=("home-a", "home-b", "fig2", "random"),
)


def test_knob_frontier_fleet(benchmark):
    result = once(benchmark, lambda: run_sweep(GRID))
    frontier = result.frontier()

    print_table(
        "Sec. III-E — knob frontier over a 20-home fleet (lower MCC = "
        "more privacy; paper: the knob trades privacy against "
        "value/utility, per mechanism)",
        ["defense", "setting", "attack_mcc", "mcc_p90", "rmse_w",
         "bill_err", "extra_kwh"],
        [
            [p.defense, p.setting]
            + [p.metric(m) for m in ("mcc.mean", "mcc.p90", "distortion_w.mean",
                                     "bill_error.mean", "extra_kwh.mean")]
            for p in frontier.points
        ],
    )

    assert result.ok
    assert len(frontier.points) == GRID.n_cells

    # the dial is a dial: per mechanism, more knob never helps the attacker
    assert frontier.monotone_violations(tolerance=0.05) == []

    by_defense = {}
    for p in frontier.points:
        by_defense.setdefault(p.defense, {})[p.setting] = p

    # the knob's endpoints bracket the tradeoff for the strong mechanisms
    for name in ("nill", "dp-laplace"):
        series = by_defense[name]
        assert series[1.0].stats["mcc"].mean < 0.65 * series[0.0].stats["mcc"].mean

    # and the mechanisms charge different currencies at full dial:
    full_nill = by_defense["nill"][1.0]
    full_dp = by_defense["dp-laplace"][1.0]
    full_chpr = by_defense["chpr"][1.0]
    # the battery burns real energy; DP's release is free to run
    assert full_nill.metric("extra_kwh.mean") > 10 * max(
        full_dp.metric("extra_kwh.mean"), 0.001
    )
    # DP wrecks load-shape analytics far beyond what the battery does
    assert full_dp.stats["distortion_w"].mean > 5 * full_nill.stats["distortion_w"].mean
    # CHPr never *adds* energy — rescheduling heats lazily against the
    # comfort floor, so it runs at or below the thermostat's bill —
    # and it leaves analytics far more intact than DP
    assert full_chpr.stats["extra_kwh"].mean <= 0.1
    assert full_chpr.stats["distortion_w"].mean < full_dp.stats["distortion_w"].mean
    # ...and still buys measurable privacy over the open dial
    assert full_chpr.stats["mcc"].mean < by_defense["chpr"][0.0].stats["mcc"].mean
