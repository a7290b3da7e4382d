"""Golden single-broadcast latencies of every round automaton.

The FSR value is the paper's closed form.  The baseline values are
pinned measurements: they follow from each protocol class's message pattern
and the round model's one-send/one-receive costs, and any change to
them changes what Section 2's comparison *means* — so drift fails
loudly here.  (Setting: n = 5, sender at position 1, idle system.)
"""

import pytest

from repro.figures import CLASSES
from repro.rounds import fsr_latency_formula, measure_latency
from repro.rounds.analysis import round_factory


def _latency(name, **kwargs):
    factory = round_factory(name, **kwargs)
    return measure_latency(factory, 5, 1)


def test_fsr_matches_paper_formula():
    assert _latency("fsr", t=1) == fsr_latency_formula(5, 1, 1) == 9


def test_fixed_sequencer_golden():
    # submit (1) + sequenced broadcast (1) + the sequencer absorbing the
    # n-1 acks through its single receive slot + a stability notice.
    assert _latency("fixed_sequencer") == 7


def test_moving_sequencer_golden():
    # data broadcast, token-holder announcement, then the token as its
    # own unicast; a member learns stability only when it passes the
    # token on, so delivery waits for a second token lap.
    assert _latency("moving_sequencer") == 11


def test_privilege_golden():
    # the token must first travel from p0 to the sender, then the data
    # broadcast plus an aru rotation establish uniform delivery; p0 keeps
    # the initial token until its idle-hold timer fires in round 1, and
    # the last member learns stability when its idle-hold timer passes
    # the token on, one round after receiving it.
    assert _latency("privilege") == 12


def test_communication_history_golden():
    # senders emit once every n-1 rounds; delivery waits for a later
    # timestamp from every other process (their next null slots).
    assert _latency("communication_history") == 8


def test_destination_agreement_golden():
    # nudge + propose (the data broadcast takes the same round) + the
    # coordinator absorbing votes and nudges one per round + decide.
    assert _latency("destination_agreement") == 7


def test_fsr_has_no_latency_penalty_for_its_throughput():
    """FSR's contention-free latency is in the same band as the
    baselines' despite its throughput dominance — the paper's 'linear
    latency' selling point in comparative form."""
    fsr = _latency("fsr", t=1)
    others = [_latency(name) for name in CLASSES[1:]]
    assert fsr <= 2 * min(others)
    assert fsr <= max(others) + 2
