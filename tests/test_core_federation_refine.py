"""Tests for federation and trusted-community mode."""

import random

import pytest

from repro.core.client import PastClient
from repro.core.errors import LookupFailedError
from repro.core.federation import Federation, trusted_community_network
from repro.core.files import RealData
from repro.core.smartcard import make_uncertified_card


@pytest.fixture(scope="module")
def federation():
    fed = Federation()
    fed.build_system("alpha", 30, capacity_fn=lambda r: 1_000_000)
    fed.build_system("beta", 30, capacity_fn=lambda r: 1_000_000)
    return fed


class TestFederation:
    def test_systems_are_independent(self, federation):
        alpha = federation.system("alpha")
        beta = federation.system("beta")
        assert alpha.broker is not beta.broker
        assert not (set(alpha.pastry.nodes) & set(beta.pastry.nodes))

    def test_duplicate_system_name_rejected(self, federation):
        with pytest.raises(ValueError):
            federation.add_system("alpha", federation.system("beta"))

    def test_cross_system_lookup(self, federation):
        """A client homed in alpha reads a file stored in beta."""
        publisher = federation.create_client("beta", usage_quota=100_000)
        handle = publisher.insert("shared.txt", RealData(b"cross-system"))
        reader = federation.create_client("alpha", usage_quota=0)
        assert reader.lookup(handle.file_id).to_bytes() == b"cross-system"

    def test_home_system_preferred(self, federation):
        """A file in the home system is found without touching others."""
        client = federation.create_client("alpha", usage_quota=100_000)
        handle = client.insert("home.txt", RealData(b"local"))
        beta_lookups = federation.system("beta").pastry.stats.counter(
            "messages.lookup"
        ).value
        assert client.lookup(handle.file_id).to_bytes() == b"local"
        assert federation.system("beta").pastry.stats.counter(
            "messages.lookup"
        ).value == beta_lookups

    def test_missing_everywhere_raises(self, federation):
        reader = federation.create_client("alpha", usage_quota=0)
        with pytest.raises(LookupFailedError, match="federated"):
            reader.lookup(123456789)

    def test_quota_lives_at_home(self, federation):
        client = federation.create_client("alpha", usage_quota=600)
        client.insert("q.bin", RealData(b"x" * 100), replication_factor=3)
        assert client.quota_remaining == 300

    def test_reclaim_via_home(self, federation):
        client = federation.create_client("alpha", usage_quota=10_000)
        handle = client.insert("r.bin", RealData(b"y" * 50), replication_factor=3)
        assert client.reclaim(handle) == 150


class TestTrustedCommunity:
    @pytest.fixture(scope="class")
    def community(self):
        return trusted_community_network(
            25, seed=77, capacity_fn=lambda r: 1_000_000
        )

    def test_uncertified_card_can_store(self, community):
        """Without a broker requirement, any key pair participates."""
        card = make_uncertified_card(
            random.Random(1), usage_quota=100_000, backend="insecure_fast"
        )
        member = PastClient(community, card, community.pastry.live_ids()[0])
        handle = member.insert("minutes.txt", RealData(b"community data"))
        reader = community.create_client(usage_quota=0)
        assert reader.lookup(handle.file_id).to_bytes() == b"community data"

    def test_signature_checks_still_enforced(self, community):
        """No broker does not mean no crypto: a tampered certificate is
        still rejected by storing nodes."""
        from repro.core.messages import InsertRequest

        card = make_uncertified_card(
            random.Random(2), usage_quota=100_000, backend="insecure_fast"
        )
        certificate = card.issue_file_certificate(
            "a", RealData(b"original"), 3, salt=1, insertion_date=0
        )
        tampered = InsertRequest(
            certificate=certificate,
            data=RealData(b"swapped!!"),
            owner_card_certificate=None,
        )
        node = community.live_past_nodes()[0]
        receipt, _ = node.handle_store(tampered, replica_set=set())
        assert receipt is None

    def test_quotas_still_enforced_by_own_card(self, community):
        from repro.core.errors import QuotaExceededError

        card = make_uncertified_card(
            random.Random(3), usage_quota=50, backend="insecure_fast"
        )
        member = PastClient(community, card, community.pastry.live_ids()[0])
        with pytest.raises(QuotaExceededError):
            member.insert("big", RealData(b"z" * 100), replication_factor=3)
