"""The committed claims golden (``results/claims.json``, written by
``repro all --seed 0``) holds every claim in :data:`CLAIMS`.

The rows are judged against the bands in the code, not against the
``holds`` flag stored beside them, so moving a band outside the seed-0
value fails here without regenerating anything.
"""

import json
import pathlib

import pytest

from repro.experiments.claims import CLAIMS

GOLDEN = pathlib.Path(__file__).resolve().parents[2] / "results" / "claims.json"
MEASURED = {row["id"]: row["measured"] for row in json.loads(GOLDEN.read_text())}


def test_golden_has_one_row_per_claim():
    assert list(MEASURED) == [claim.id for claim in CLAIMS]


@pytest.mark.parametrize("claim", CLAIMS, ids=[claim.id for claim in CLAIMS])
def test_claim_holds_at_seed_0(claim):
    measured = MEASURED[claim.id]
    assert claim.holds(measured), f"{claim.id}: {measured} outside {claim.band}"
