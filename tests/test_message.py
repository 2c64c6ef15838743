"""Unit tests for message and envelope types (`repro.net.message`)."""

import pytest

from repro.core.messages import Decision, Phase1a, Phase1b, Phase2a, Phase2b, Rejected, ballot_of
from repro.net.message import Envelope, Era, Message


class TestMessages:
    def test_kind_names_are_distinct(self):
        kinds = {cls.kind for cls in (Phase1a, Phase1b, Phase2a, Phase2b, Rejected, Decision)}
        assert len(kinds) == 6

    def test_messages_are_frozen(self):
        message = Phase1a(mbal=3)
        try:
            message.mbal = 5
            frozen = False
        except Exception:
            frozen = True
        assert frozen

    def test_describe_includes_fields(self):
        text = Phase2a(mbal=9, value="v").describe()
        assert "phase2a" in text
        assert "9" in text and "'v'" in text

    def test_ballot_of_reads_mbal(self):
        assert ballot_of(Phase1a(mbal=12)) == 12
        assert ballot_of(Decision(value="v")) == -1

    def test_base_message_describe(self):
        assert Message().describe() == "message()"


class TestEnvelope:
    def _envelope(self, **overrides):
        fields = dict(
            message=Phase1a(mbal=1), src=0, dst=1, send_time=2.0, era=Era.POST, msg_id=0
        )
        fields.update(overrides)
        return Envelope(**fields)

    def test_kind_comes_from_message(self):
        assert self._envelope().kind == "phase1a"

    def test_an_envelope_must_name_its_msg_id(self):
        # Ids come from the network's per-run stream; there is no fallback.
        with pytest.raises(TypeError, match="msg_id"):
            Envelope(message=Phase1a(mbal=1), src=0, dst=1, send_time=2.0, era=Era.POST)
        assert self._envelope(msg_id=7).msg_id == 7

    def test_describe_shows_fate(self):
        pending = self._envelope()
        assert "pending" in pending.describe()
        delivered = self._envelope(deliver_time=3.0)
        assert "deliver@" in delivered.describe()

    def test_era_labels(self):
        assert Era.PRE.value.startswith("pre")
        assert Era.POST.value.startswith("post")
