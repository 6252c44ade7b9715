"""Fixtures shared across the suite."""

import pytest

from repro import faults

#: The environment knobs that make a tree scan count its candidates one
#: by one — a step or node limit, a fault plan — and so walk every node
#: instead of reading the tree's postings.
COUNTED_SCAN_KNOBS = ("AQUA_MAX_STEPS", "AQUA_MAX_NODES_SCANNED", "AQUA_FAULTS")


@pytest.fixture
def posting_scans():
    """Run a test with no step / node limit and no fault plan armed, so
    an equality first-set scan is served from the tree's postings even
    when the suite itself runs under budgets and injected faults."""
    with pytest.MonkeyPatch.context() as patch:
        for knob in COUNTED_SCAN_KNOBS:
            patch.delenv(knob, raising=False)
        previous = faults.install(None)
        try:
            yield
        finally:
            faults.install(previous)
