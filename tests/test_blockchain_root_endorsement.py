"""Root endorsement: one signature per peer per batch, over a Merkle root.

Each endorsing peer signs ``endorsement_message(root)`` once per batch and
every transaction carries the signature plus its own inclusion path.
These tests pin the security of that scheme under both commit-time
verification modes, the policy counting rules (distinct peer-role
endorsers only), and the signature count itself as a deterministic gate.
"""

import dataclasses

import pytest

from repro.blockchain import standard_network
from repro.blockchain.chaincode import ProvenanceContract
from repro.blockchain.identity import MembershipServiceProvider
from repro.blockchain.ledger import endorsement_message
from repro.blockchain.network import BlockchainNetwork, EndorsementPolicy, Peer
from repro.core.errors import EndorsementError
from repro.crypto.merkle import MerkleTree

BOTH_MODES = pytest.mark.parametrize("batch_verify", [True, False],
                                     ids=["batch", "per-signature"])


def _requests(handles):
    return [("provenance", "record_event",
             {"handle": handle, "data_hash": "aa" * 32,
              "event": "received", "actor": "c"}) for handle in handles]


def _history(net, handle):
    return net.query("provenance", "get_history", handle=handle)


def _network(seed, batch_size=10, policy=None, batch_verify=True):
    net = standard_network(seed=seed, batch_size=batch_size, policy=policy)
    net.batch_verify = batch_verify
    return net


class PickyPeer(Peer):
    """A peer whose proposal check refuses one handle (and only that)."""

    refused = "h2"

    def check_proposal(self, tx):
        if tx.args.get("handle") == self.refused:
            raise RuntimeError(f"refuses {self.refused}")
        super().check_proposal(tx)


class TestEndorsementFormat:
    def test_batch_endorsement_shares_one_signature_per_peer(self):
        net = _network(seed=51)
        txs = net.submit_batch("ingestion-service",
                               _requests(f"f{i}" for i in range(5)))
        root = MerkleTree([tx.payload() for tx in txs]).root
        for peer in net.endorsing_peers():
            signatures = {dict(tx.endorsements)[peer.peer_id] for tx in txs}
            assert len(signatures) == 1
            assert net.msp.verify(peer.peer_id, endorsement_message(root),
                                  signatures.pop())
        for tx in txs:
            assert len(tx.endorsement_paths) == len(tx.endorsements)
            for _, message, _ in tx.endorsement_claims():
                assert message == endorsement_message(root)

    def test_single_submit_is_a_one_leaf_batch(self):
        net = _network(seed=52)
        tx = net.submit("ingestion-service", *_requests(["one"])[0][:2],
                        **_requests(["one"])[0][2])
        assert tx.endorsement_paths == ((),) * 4
        root = MerkleTree([tx.payload()]).root
        assert {message for _, message, _ in tx.endorsement_claims()} == {
            endorsement_message(root)}

    @BOTH_MODES
    def test_signature_over_bare_payload_is_no_endorsement(self,
                                                           batch_verify):
        """Endorsements are domain-separated: a member's signature over
        the raw payload does not stand in for a root endorsement."""
        net = _network(seed=53, batch_size=1, batch_verify=batch_verify)
        tx = net.submit("ingestion-service", "provenance", "record_event",
                        handle="bare", data_hash="aa" * 32,
                        event="received", actor="c")
        net.orderer._pending[-1] = tx.with_endorsements(
            [(peer_id, net.msp.sign_as(peer_id, tx.payload()))
             for peer_id, _ in tx.endorsements])
        net.flush()
        assert _history(net, "bare") == []


class TestPolicyCountsDistinctPeers:
    @BOTH_MODES
    def test_duplicate_endorsements_count_once(self, batch_verify):
        """Two peers' endorsements, each repeated, are two endorsers, not
        four: a (4, 2) policy must reject the transaction at commit."""
        net = _network(seed=54, batch_size=1, policy=EndorsementPolicy(4, 2),
                       batch_verify=batch_verify)
        tx = net.submit("ingestion-service", "provenance", "record_event",
                        handle="dup", data_hash="aa" * 32,
                        event="received", actor="c")
        first, second = tx.endorsements[:2]
        forged = dataclasses.replace(
            tx, endorsements=(first, first, second, second))
        assert net.peers[0].validate(tx, net.policy)
        assert not net.peers[0].validate(forged, net.policy)
        net.orderer._pending[-1] = forged
        net.flush()
        assert _history(net, "dup") == []

    def test_peer_listed_twice_endorses_once(self):
        msp = MembershipServiceProvider(seed=55)
        net = BlockchainNetwork(msp, policy=EndorsementPolicy(2, 1))
        msp.enroll("peer.solo", "solo-org", roles={"peer"})
        solo = Peer("peer.solo", "solo-org", msp,
                    {"provenance": ProvenanceContract()})
        net.add_peer(solo)
        net.add_peer(solo)
        msp.enroll("client", "solo-org")
        request = _requests(["twice"])[0]
        with pytest.raises(EndorsementError):
            net.submit("client", request[0], request[1], **request[2])
        with pytest.raises(EndorsementError, match="in batch"):
            net.submit_batch("client", [request])
        assert net.orderer.pending_count == 0

    @BOTH_MODES
    def test_client_signature_is_no_endorsement(self, batch_verify):
        """A client signing the endorsed root does not make up a (2, 2)
        quorum next to a single peer."""
        net = _network(seed=56, batch_size=1, batch_verify=batch_verify)
        tx = net.submit("ingestion-service", "provenance", "record_event",
                        handle="client", data_hash="aa" * 32,
                        event="received", actor="c")
        peer_id, message, signature = tx.endorsement_claims()[0]
        assert peer_id == "peer.sender-org"
        client_signature = net.msp.sign_as("ingestion-service", message)
        net.orderer._pending[-1] = tx.with_endorsements(
            [(peer_id, signature), ("ingestion-service", client_signature)])
        net.flush()
        assert _history(net, "client") == []

    @BOTH_MODES
    def test_extra_client_signature_does_not_spoil_a_quorum(self,
                                                            batch_verify):
        net = _network(seed=57, batch_size=1, batch_verify=batch_verify)
        tx = net.submit("ingestion-service", "provenance", "record_event",
                        handle="extra", data_hash="aa" * 32,
                        event="received", actor="c")
        _, message, _ = tx.endorsement_claims()[0]
        net.orderer._pending[-1] = tx.with_endorsements(
            tx.endorsements
            + (("ingestion-service",
                net.msp.sign_as("ingestion-service", message)),))
        net.flush()
        assert _history(net, "extra")


class TestRootEndorsementSecurity:
    @BOTH_MODES
    def test_tampered_payload_drops_exactly_that_transaction(self,
                                                             batch_verify):
        net = _network(seed=61, batch_size=4, batch_verify=batch_verify)
        handles = [f"t{i}" for i in range(4)]
        net.submit_batch("ingestion-service", _requests(handles))
        victim = net.orderer._pending[2]
        net.orderer._pending[2] = dataclasses.replace(
            victim, args={**victim.args, "data_hash": "ff" * 32})
        (block,) = net.flush()
        assert len(block.transactions) == 4
        assert _history(net, "t2") == []
        assert all(_history(net, h) for h in ("t0", "t1", "t3"))
        assert net.peers_converged()

    @BOTH_MODES
    def test_moved_endorsements_are_rejected(self, batch_verify):
        """Signature plus path copied from one transaction onto another
        proves the other transaction's payload is not under that root."""
        net = _network(seed=62, batch_size=4, batch_verify=batch_verify)
        handles = [f"m{i}" for i in range(4)]
        net.submit_batch("ingestion-service", _requests(handles))
        pending = net.orderer._pending
        donor = pending[0]
        # Every endorsement moved wholesale onto m1.
        pending[1] = dataclasses.replace(
            pending[1], endorsements=donor.endorsements,
            endorsement_paths=donor.endorsement_paths)
        # A single endorsement (signature and path) swapped onto m3.
        victim = pending[3]
        pending[3] = dataclasses.replace(
            victim,
            endorsements=(donor.endorsements[0],) + victim.endorsements[1:],
            endorsement_paths=((donor.endorsement_paths[0],)
                               + victim.endorsement_paths[1:]))
        net.flush()
        assert _history(net, "m1") == []
        assert _history(net, "m3") == []
        assert _history(net, "m0") and _history(net, "m2")

    @BOTH_MODES
    def test_path_from_a_sibling_is_rejected(self, batch_verify):
        """Keeping a transaction's own signatures but borrowing another
        leaf's path rebuilds a different root."""
        net = _network(seed=63, batch_size=4, batch_verify=batch_verify)
        net.submit_batch("ingestion-service",
                         _requests(f"p{i}" for i in range(4)))
        pending = net.orderer._pending
        pending[2] = dataclasses.replace(
            pending[2], endorsement_paths=pending[3].endorsement_paths)
        net.flush()
        assert _history(net, "p2") == []
        assert all(_history(net, f"p{i}") for i in (0, 1, 3))

    @BOTH_MODES
    def test_batch_split_across_blocks_commits_in_full(self, batch_verify):
        net = _network(seed=64, batch_size=3, batch_verify=batch_verify)
        handles = [f"s{i}" for i in range(8)]
        net.submit_batch("ingestion-service", _requests(handles))
        blocks = net.flush()
        assert [len(b.transactions) for b in blocks] == [3, 3, 2]
        assert all(_history(net, h) for h in handles)
        assert net.peers_converged()

    @BOTH_MODES
    def test_peer_failing_one_proposal_does_not_endorse_it(self,
                                                           batch_verify):
        msp = MembershipServiceProvider(seed=65)
        net = BlockchainNetwork(msp, policy=EndorsementPolicy(2, 2),
                                batch_size=10)
        net.batch_verify = batch_verify
        contracts = {"provenance": ProvenanceContract()}
        for org in ("org-a", "org-b", "org-c"):
            msp.enroll(f"peer.{org}", org, roles={"peer"})
        net.add_peer(Peer("peer.org-a", "org-a", msp, contracts))
        net.add_peer(PickyPeer("peer.org-b", "org-b", msp, contracts))
        net.add_peer(Peer("peer.org-c", "org-c", msp, contracts))
        msp.enroll("client", "org-a")
        handles = [f"h{i}" for i in range(4)]
        txs = net.submit_batch("client", _requests(handles))
        endorsers = [[m for m, _ in tx.endorsements] for tx in txs]
        assert endorsers[2] == ["peer.org-a", "peer.org-c"]
        assert all(len(e) == 3 for i, e in enumerate(endorsers) if i != 2)
        net.flush()
        assert all(_history(net, h) for h in handles)
        assert net.peers_converged()

    @BOTH_MODES
    def test_degraded_quorum_after_one_refused_proposal(self, batch_verify):
        net = _network(seed=66, batch_size=10,
                       policy=EndorsementPolicy(4, 4),
                       batch_verify=batch_verify)
        net.degraded_policy = EndorsementPolicy(2, 2)
        picky = net.peers[1]
        net.peers[1] = PickyPeer(picky.peer_id, picky.organization, net.msp,
                                 picky._chaincodes)
        handles = [f"h{i}" for i in range(4)]
        net.submit_batch("ingestion-service", _requests(handles))
        net.flush()
        assert net.monitoring.metrics.counter(
            "blockchain.degraded_commits") == 1
        assert net.degraded_tx_ids == {"tx-00000003"}
        assert all(_history(net, h) for h in handles)
        assert net.peers_converged()

    @BOTH_MODES
    def test_late_joining_peer_converges_over_batch_history(self,
                                                            batch_verify):
        net = _network(seed=67, batch_size=4, policy=EndorsementPolicy(4, 4),
                       batch_verify=batch_verify)
        net.degraded_policy = EndorsementPolicy(2, 2)
        picky = net.peers[1]
        net.peers[1] = PickyPeer(picky.peer_id, picky.organization, net.msp,
                                 picky._chaincodes)
        net.submit_batch("ingestion-service",
                         _requests(f"h{i}" for i in range(6)))
        net.flush()
        net.submit_batch("ingestion-service",
                         _requests(f"g{i}" for i in range(5)))
        net.flush()
        net.msp.enroll("peer.late-org", "late-org", roles={"peer"})
        late = Peer("peer.late-org", "late-org", net.msp,
                    {"provenance": ProvenanceContract()})
        applied = net.sync_peer(late)
        net.add_peer(late)
        assert applied == net.peers[0].ledger.height == 4  # [4, 2] + [4, 1]
        assert net.peers_converged()
        assert late.query("provenance", "get_history", handle="h2")


class TestSignatureCount:
    """Endorsement signatures per batch: a deterministic work-count gate."""

    @pytest.mark.parametrize("size", [1, 16])
    def test_submit_batch_costs_one_signature_per_peer(self, rsa_private_ops,
                                                       size):
        net = standard_network(seed=71, batch_size=16)
        rsa_private_ops.clear()
        net.submit_batch("ingestion-service",
                         _requests(f"c{i}" for i in range(size)))
        assert len(rsa_private_ops) == len(net.endorsing_peers()) == 4
        net.flush()
        assert len(rsa_private_ops) == 4  # validation signs nothing

    def test_submit_costs_one_signature_per_peer(self, rsa_private_ops):
        net = standard_network(seed=72)
        rsa_private_ops.clear()
        request = _requests(["single"])[0]
        net.submit("ingestion-service", request[0], request[1], **request[2])
        assert len(rsa_private_ops) == 4
