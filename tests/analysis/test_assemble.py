"""Record assembly over a partial executed map.

``assemble_records`` is the one place executed and synthesized
records meet, for pruned campaigns (every surviving pair executed) and
for sampled ones (only the drawn pairs).  Whatever subset of the live
and representative pairs was drawn, the assembled list must be the
exhaustive record list restricted to the drawn pairs, every dead
pair, and the members whose representative was drawn -- in canonical
order.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.prune import assemble_records, plan_prune
from repro.injection.campaign import Campaign
from repro.orchestration.campaigns import records_by_pair, run_campaign

from tests.analysis.test_prune import PruneTarget, config as prune_config
from tests.orchestration._targets import GridTarget, grid_config

#: The grid target has live and dead pairs; the prune target adds an
#: equivalence class (a representative and its member).
TARGETS = {
    "grid": lambda: Campaign(GridTarget(), grid_config(bits=tuple(range(8)))),
    "prune": lambda: Campaign(PruneTarget(), prune_config()),
}


@pytest.fixture(scope="module")
def cases():
    """Per target: the campaign, its prune plan, the records of every
    executed pair, and the exhaustive record table.  Built outside the
    property: planning imports the target's package, whose test
    modules define Hypothesis tests of their own."""
    built = {}
    for name, make in TARGETS.items():
        campaign = make()
        plan = plan_prune(campaign)
        pairs = plan.executed_pairs()
        result = run_campaign(campaign, pairs=pairs)
        executed = records_by_pair(campaign, pairs, result.records)
        exhaustive = [r.to_dict() for r in make().run().records]
        built[name] = (campaign, plan, executed, exhaustive)
    return built


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(TARGETS)), data=st.data())
def test_partial_assembly_restricts_the_exhaustive_records(cases, name, data):
    campaign, plan, executed, exhaustive = cases[name]
    drawn = data.draw(st.sets(st.sampled_from(sorted(executed))))
    assembled = assemble_records(
        campaign, plan, {pair: executed[pair] for pair in drawn}
    )
    kept = set(drawn)
    for point in plan.points:
        if point.verdict == "dead" or (
            point.verdict == "member"
            and (point.variable, point.representative_bit) in drawn
        ):
            kept.add((point.variable, point.bit))
    assert [r.to_dict() for r in assembled] == [
        r for r in exhaustive if (r["flip"]["variable"], r["flip"]["bit"]) in kept
    ]
