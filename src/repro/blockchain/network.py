"""Permissioned blockchain network: endorse -> order -> validate -> commit.

Models the Hyperledger-style flow the paper names (Section IV-A: "The
blockchain network we are talking of is a permissioned blockchain system
such as Hyperledger"):

1. a client submits a proposal;
2. **endorsing peers** simulate the chaincode and sign the result —
   one signature per peer per batch, over a Merkle root of the batch's
   payloads, with each transaction carrying its inclusion path;
3. the proposal must satisfy the channel's **endorsement policy**
   (at least N distinct endorsing peers from M distinct organizations);
4. the **ordering service** batches endorsed transactions into blocks;
5. every peer validates the block (endorsement re-check) and **commits**
   it to its ledger and world state.

"The different parties using the consensus protocol agree on the data to
send and receive, which then leads to commitment of the ledger record to
the global ledger."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.errors import EndorsementError, LedgerError, ServiceUnavailableError
from ..cloudsim.clock import SimClock
from ..cloudsim.monitoring import MonitoringService
from ..crypto.merkle import MerklePath, MerkleTree
from .chaincode import Chaincode, WorldState
from .identity import MembershipServiceProvider
from .ledger import (
    Block,
    Ledger,
    Transaction,
    build_block,
    endorsement_message,
)

# One endorsement as a peer hands it out: who, signature, inclusion path.
Endorsement = Tuple[str, bytes, MerklePath]


@dataclass(frozen=True)
class EndorsementPolicy:
    """Minimum endorsements and distinct organizations required."""

    min_endorsements: int = 2
    min_organizations: int = 2

    def satisfied_by(self, endorsing_orgs: List[str]) -> bool:
        """``endorsing_orgs`` holds one organization per distinct endorser
        (see :func:`endorsing_orgs`)."""
        return (len(endorsing_orgs) >= self.min_endorsements
                and len(set(endorsing_orgs)) >= self.min_organizations)


def endorsing_orgs(msp: MembershipServiceProvider,
                   member_ids: Iterable[str]) -> List[str]:
    """One organization per distinct ``"peer"``-role member in ``member_ids``.

    A member endorsing twice counts once, and a client's (or any other
    non-peer's) signature never counts toward the policy.
    """
    orgs = []
    for member_id in dict.fromkeys(member_ids):
        identity = msp.identity(member_id)
        if "peer" in identity.roles:
            orgs.append(identity.organization)
    return orgs


class Peer:
    """A committing (and possibly endorsing) peer with its own ledger copy."""

    def __init__(self, peer_id: str, organization: str,
                 msp: MembershipServiceProvider,
                 chaincodes: Dict[str, Chaincode]) -> None:
        self.peer_id = peer_id
        self.organization = organization
        self._msp = msp
        self._chaincodes = dict(chaincodes)
        self.ledger = Ledger()
        self.state = WorldState()
        # Optional chaos hook: a FaultPlan crash window makes this peer
        # refuse to endorse (it is "down") until the window passes.
        self.fault_plan = None

    def simulate(self, tx: Transaction) -> Any:
        """Endorsement-time simulation: run chaincode against current state.

        Simulation runs against a scratch copy of the relevant values in a
        real fabric; our contracts are deterministic and re-executed at
        commit, so running read-only methods directly is equivalent.
        """
        chaincode = self._chaincode(tx.chaincode)
        scratch = _CopyOnWriteState(self.state)
        return chaincode.invoke(scratch, tx.method, tx.args)

    def check_proposal(self, tx: Transaction) -> None:
        """Endorsement-time check of one proposal; raises if it fails.

        A peer that is down (a FaultPlan crash window) refuses outright;
        otherwise the chaincode is simulated and must not raise.
        """
        if self.fault_plan is not None and self.fault_plan.node_down(
                self.peer_id):
            raise ServiceUnavailableError(f"peer {self.peer_id} is down")
        self.simulate(tx)

    def endorse(self, txs: List[Transaction]) -> List[Endorsement]:
        """Sign one Merkle root over proposals this peer has checked.

        The peer builds a tree over the payloads and signs
        ``endorsement_message(root)`` once; every transaction gets a copy
        of that signature with its own inclusion path, in order.  A
        one-transaction batch has an empty path.
        """
        tree = MerkleTree([tx.payload() for tx in txs])
        signature = self._msp.sign_as(self.peer_id,
                                      endorsement_message(tree.root))
        return [(self.peer_id, signature, proof.path)
                for proof in tree.proofs()]

    def validate(self, tx: Transaction, policy: EndorsementPolicy) -> bool:
        """Commit-time validation of one transaction's endorsements."""
        return (self._verify_block_endorsements([tx], batch_verify=False)[0]
                and policy.satisfied_by(self._endorsing_orgs(tx)))

    def _endorsing_orgs(self, tx: Transaction) -> List[str]:
        return endorsing_orgs(
            self._msp, (member_id for member_id, _ in tx.endorsements))

    def _verify_block_endorsements(self, transactions: Sequence[Transaction],
                                   batch_verify: bool = True) -> List[bool]:
        """Per-transaction signature validity, each signature checked once.

        Every endorsement's signed message is rebuilt from the
        transaction's own payload and inclusion path.  Endorsements of one
        batch share a ``(member, root message, signature)`` entry, so the
        entries are deduplicated, each unique one is verified once, and
        its verdict is fanned out to every transaction carrying it.  With
        ``batch_verify`` each endorser's unique entries go through one
        screening-style aggregate check
        (``MembershipServiceProvider.verify_batch``, which falls back to
        per-signature verification on failure, so verdicts match the
        per-signature path exactly); without it each is verified on its
        own.  Returns, per transaction, whether *every* endorsement on it
        verified.
        """
        claims = [tx.endorsement_claims() for tx in transactions]
        groups: Dict[str, List[Tuple[bytes, bytes]]] = {}
        for member_id, message, signature in dict.fromkeys(
                claim for tx_claims in claims for claim in tx_claims):
            groups.setdefault(member_id, []).append((message, signature))
        verdicts: Dict[Tuple[str, bytes, bytes], bool] = {}
        for member_id, pairs in groups.items():
            if batch_verify:
                oks = self._msp.verify_batch(member_id, pairs)
            else:
                oks = [self._msp.verify(member_id, message, signature)
                       for message, signature in pairs]
            for (message, signature), ok in zip(pairs, oks):
                verdicts[(member_id, message, signature)] = ok
        return [all(verdicts[claim] for claim in tx_claims)
                for tx_claims in claims]

    def commit_block(self, block: Block, policy: EndorsementPolicy,
                     degraded_tx_ids: frozenset = frozenset(),
                     degraded_policy: Optional[EndorsementPolicy] = None,
                     batch_verify: bool = True) -> int:
        """Validate + append a block; apply valid txns to world state.

        Transactions the channel accepted under a *degraded* quorum (see
        :class:`BlockchainNetwork` resilience) are validated against the
        reduced policy they were admitted with.  With ``batch_verify``
        (the default) endorsement signatures are checked with screening-
        style aggregate RSA verification per endorser; semantics are
        identical to per-signature validation.  Either way a policy counts
        distinct ``"peer"``-role endorsers only.  Returns the number of
        transactions applied (invalid ones are marked-and-skipped, as in
        Fabric's validation flag model).
        """
        applied = 0
        signatures_ok = self._verify_block_endorsements(block.transactions,
                                                        batch_verify)
        for tx, signed in zip(block.transactions, signatures_ok):
            effective = (degraded_policy
                         if degraded_policy is not None
                         and tx.tx_id in degraded_tx_ids else policy)
            if not (signed
                    and effective.satisfied_by(self._endorsing_orgs(tx))):
                continue
            try:
                chaincode = self._chaincode(tx.chaincode)
                chaincode.invoke(self.state, tx.method, tx.args)
            except Exception:
                # A peer-local application fault (broken contract install,
                # bug) must not halt the network; this peer simply lags on
                # that transaction — visible via peers_converged().
                continue
            applied += 1
        self.ledger.append(block)
        return applied

    def query(self, chaincode: str, method: str, **args: Any) -> Any:
        """Local read-only query against this peer's world state."""
        return self._chaincode(chaincode).invoke(self.state, method, args)

    def sync_from(self, other: "Peer", policy: EndorsementPolicy,
                  degraded_tx_ids: frozenset = frozenset(),
                  degraded_policy: Optional[EndorsementPolicy] = None,
                  batch_verify: bool = True) -> int:
        """Catch up from another peer's ledger (late join / recovery).

        Fetches every block past this peer's tip, re-validating each via
        :meth:`commit_block` — a lagging peer never has to trust its source
        blindly, since the endorsement signatures travel with the blocks.
        Degraded-quorum metadata must travel with the sync (the channel's
        ``sync_peer`` supplies it): without it, historical transactions the
        channel admitted under the reduced policy fail full-policy
        re-validation here and the peer diverges.  Returns the number of
        blocks applied.
        """
        applied = 0
        while self.ledger.height < other.ledger.height:
            block = other.ledger.block(self.ledger.height)
            self.commit_block(block, policy,
                              degraded_tx_ids=degraded_tx_ids,
                              degraded_policy=degraded_policy,
                              batch_verify=batch_verify)
            applied += 1
        return applied

    def _chaincode(self, name: str) -> Chaincode:
        try:
            return self._chaincodes[name]
        except KeyError:
            raise LedgerError(f"chaincode {name!r} not installed "
                              f"on {self.peer_id}") from None


class _CopyOnWriteState(WorldState):
    """Scratch state for endorsement simulation; writes don't persist.

    The local layer is probed with the tuple-valued ``lookup`` (the same
    pattern as ``Cache.lookup``), so a simulated write of ``None`` — or a
    simulated ``delete``, tracked as a tombstone — correctly shadows the
    base state instead of falling through to the stored value.
    """

    def __init__(self, base: WorldState) -> None:
        super().__init__()
        self._base = base
        self._deleted: set = set()

    def get(self, key: str) -> Any:
        present, local = self.lookup(key)
        if present:
            return local
        if key in self._deleted:
            return None
        return self._base.get(key)

    def put(self, key: str, value: Any) -> None:
        self._deleted.discard(key)
        super().put(key, value)

    def delete(self, key: str) -> bool:
        present, _ = self.lookup(key)
        if not present:
            present = key not in self._deleted and self._base.lookup(key)[0]
        self._deleted.add(key)
        super().delete(key)
        return present

    def keys_with_prefix(self, prefix: str) -> List[str]:
        keys = set(self._base.keys_with_prefix(prefix))
        keys.update(super().keys_with_prefix(prefix))
        return sorted(k for k in keys if k not in self._deleted)


class OrderingService:
    """Batches endorsed transactions into blocks (solo orderer)."""

    def __init__(self, batch_size: int = 10,
                 clock: Optional[SimClock] = None) -> None:
        if batch_size < 1:
            raise LedgerError("batch size must be >= 1")
        self.batch_size = batch_size
        self.clock = clock if clock is not None else SimClock()
        self._pending: List[Transaction] = []

    def submit(self, tx: Transaction) -> None:
        self._pending.append(tx)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def cut_block(self, height: int, prev_hash: str,
                  force: bool = False) -> Optional[Block]:
        """Cut a block when the batch is full (or on ``force``)."""
        if not self._pending:
            return None
        if len(self._pending) < self.batch_size and not force:
            return None
        batch, self._pending = (self._pending[:self.batch_size],
                                self._pending[self.batch_size:])
        return build_block(height, prev_hash, self.clock.now, batch)


class BlockchainNetwork:
    """A channel: peers + orderer + endorsement policy + submit API."""

    # Simulated per-phase latencies (seconds), used with the SimClock to
    # model consensus cost for experiment E5.
    ENDORSE_LATENCY = 3e-3
    ORDER_LATENCY = 5e-3
    COMMIT_LATENCY = 2e-3

    def __init__(self, msp: MembershipServiceProvider,
                 policy: Optional[EndorsementPolicy] = None,
                 batch_size: int = 10,
                 clock: Optional[SimClock] = None,
                 monitoring: Optional[MonitoringService] = None,
                 resilience: Optional[Any] = None,
                 degraded_policy: Optional[EndorsementPolicy] = None) -> None:
        self.msp = msp
        self.policy = policy if policy is not None else EndorsementPolicy()
        self.clock = clock if clock is not None else SimClock()
        self.monitoring = (monitoring if monitoring is not None
                           else MonitoringService(self.clock))
        self.orderer = OrderingService(batch_size, self.clock)
        self.peers: List[Peer] = []
        self._tx_counter = 0
        # Resilience: retry failed endorsers through this executor, and —
        # when the full policy still cannot be met — degrade to the
        # reduced quorum below, leaving an audit mark on every such tx.
        self.resilience = resilience
        self.degraded_policy = degraded_policy
        self._degraded_tx_ids: set = set()
        # Degraded transactions that already committed: a late-joining peer
        # syncing historical blocks still needs to know which txs were
        # admitted under the reduced quorum, or it re-validates them with
        # the full policy, skips them, and diverges.
        self._degraded_committed: set = set()
        # Sharded deployments give each channel a name and tag its spans,
        # so traces over many channels attribute cost to the right shard.
        self.channel_name: Optional[str] = None
        self.span_tags: Dict[str, Any] = {}
        # Commit-time signature checking mode (see Peer.commit_block).
        self.batch_verify = True
        # Pipelined ingestion hook: when set, phase latencies are charged
        # to this callback instead of advancing the shared clock, letting
        # an orchestrator overlap phases across shards/rounds and advance
        # the clock once by the computed makespan.
        self.latency_sink = None  # Optional[Callable[[str, float], None]]

    def _charge(self, phase: str, seconds: float) -> None:
        """Pay a phase latency: to the sink if set, else the shared clock."""
        if self.latency_sink is not None:
            self.latency_sink(phase, seconds)
        else:
            self.clock.advance(seconds)

    def add_peer(self, peer: Peer) -> None:
        self.peers.append(peer)

    def endorsing_peers(self) -> List[Peer]:
        return [p for p in self.peers
                if "peer" in self.msp.identity(p.peer_id).roles]

    def submit(self, submitter: str, chaincode: str, method: str,
               **args: Any) -> Transaction:
        """Full transaction flow up to ordering; returns the endorsed txn.

        Endorsement is that of :meth:`submit_batch` for a batch of one
        (one-leaf roots, empty inclusion paths), except that the
        ``ENDORSE_LATENCY`` trip is paid per peer that endorsed.  Raises
        :class:`EndorsementError` when the policy cannot be met.
        """
        tx = self._new_transaction(submitter, chaincode, method, args)
        with self.monitoring.span("blockchain.endorse", "blockchain",
                                  tx=tx.tx_id, chaincode=chaincode,
                                  method=method, **self.span_tags) as span:
            endorsements = self._collect_endorsements([tx], span,
                                                      batched=False)
            span.set_attribute("endorsements", len(endorsements[0]))
            return self._order([tx], endorsements, batched=False)[0]

    def submit_batch(self, submitter: str,
                     requests: Iterable[Tuple[str, str, Dict[str, Any]]]
                     ) -> List[Transaction]:
        """Endorse a batch of proposals with one signature per peer.

        ``requests`` is a sequence of ``(chaincode, method, args)``
        proposals.  Each endorsing peer is visited once
        (``ENDORSE_LATENCY`` advances once per peer, not once per
        transaction per peer) and simulates every proposal; it then signs
        a single Merkle root over the payloads it endorsed, and each of
        those transactions carries that signature plus its own inclusion
        path.  Validation rebuilds the root from each transaction's own
        payload, so every transaction stays independently verifiable.
        Raises :class:`EndorsementError` if any transaction in the batch
        cannot meet the policy; nothing is ordered in that case.
        """
        txs = [self._new_transaction(submitter, chaincode, method, args)
               for chaincode, method, args in requests]
        if not txs:
            return []
        with self.monitoring.span("blockchain.endorse_batch",
                                  "blockchain", transactions=len(txs),
                                  **self.span_tags) as span:
            endorsements = self._collect_endorsements(txs, span,
                                                      batched=True)
        return self._order(txs, endorsements, batched=True)

    def _new_transaction(self, submitter: str, chaincode: str, method: str,
                         args: Dict[str, Any]) -> Transaction:
        self._tx_counter += 1
        return Transaction(
            tx_id=f"tx-{self._tx_counter:08d}",
            chaincode=chaincode,
            method=method,
            args=args,
            submitter=submitter,
            timestamp=self.clock.now,
        )

    def _collect_endorsements(self, txs: List[Transaction], span: Any,
                              batched: bool) -> List[List[Endorsement]]:
        """Visit every endorsing peer; each signs one root over ``txs``.

        A peer endorses the proposals that pass its check (retried per
        proposal, see :meth:`_check`); a proposal failing there gets no
        endorsement from that peer, and the root covers only the rest.
        A batched visit pays ``ENDORSE_LATENCY`` up front whatever the
        outcome; an unbatched one pays it only when the peer endorsed.
        Returns the endorsements of each transaction, in order.
        """
        endorsements: List[List[Endorsement]] = [[] for _ in txs]
        for peer in self.endorsing_peers():
            if batched:
                self._charge("endorse", self.ENDORSE_LATENCY)  # 1 trip/peer
            accepted: List[int] = []
            for index, tx in enumerate(txs):
                try:
                    self._check(peer, tx)
                    accepted.append(index)
                except Exception as exc:
                    # A failing endorser just doesn't sign — but degraded
                    # endorsement must be visible to operators and benches.
                    self._endorsement_failed(peer, tx, exc)
                    span.add_event("endorsement_failed", self.clock.now,
                                   peer=peer.peer_id, tx=tx.tx_id)
            if not accepted:
                continue
            signed = peer.endorse([txs[index] for index in accepted])
            for index, endorsement in zip(accepted, signed):
                endorsements[index].append(endorsement)
            if not batched:
                self._charge("endorse", self.ENDORSE_LATENCY)
        return endorsements

    def _check(self, peer: Peer, tx: Transaction) -> None:
        """One peer's proposal check, retried under the resilience executor.

        Without an executor this is a bare ``peer.check_proposal``; with
        one, a transiently failing peer is retried with backoff, and a peer
        that keeps failing trips its ``peer.<id>`` breaker so later
        proposals stop waiting on it until the half-open probe succeeds.
        """
        if self.resilience is None:
            peer.check_proposal(tx)
        else:
            self.resilience.call(f"peer.{peer.peer_id}",
                                 lambda: peer.check_proposal(tx))

    def _order(self, txs: List[Transaction],
               endorsements: List[List[Endorsement]],
               batched: bool) -> List[Transaction]:
        """Check every transaction's quorum, then hand all to the orderer."""
        for tx, tx_endorsements in zip(txs, endorsements):
            self._require_quorum(
                tx, [member_id for member_id, _, _ in tx_endorsements],
                in_batch=batched)
        endorsed = [
            tx.with_endorsements(
                [(member_id, signature)
                 for member_id, signature, _ in tx_endorsements],
                [path for _, _, path in tx_endorsements])
            for tx, tx_endorsements in zip(txs, endorsements)]
        for tx in endorsed:
            self.orderer.submit(tx)
        return endorsed

    def _require_quorum(self, tx: Transaction, endorsers: List[str],
                        in_batch: bool = False) -> None:
        """Enforce the endorsement policy, degrading if configured.

        Counts distinct ``"peer"``-role endorsers, as commit-time
        validation does.  When the full policy is unmet but
        ``degraded_policy`` is satisfied, the transaction is admitted
        under the reduced quorum and an audit mark is left: a WARN log
        entry, the ``blockchain.degraded_commits`` metric, and commit-time
        validation pinned to the reduced policy.
        """
        orgs = endorsing_orgs(self.msp, endorsers)
        if self.policy.satisfied_by(orgs):
            return
        if (self.degraded_policy is not None
                and self.degraded_policy.satisfied_by(orgs)):
            self._degraded_tx_ids.add(tx.tx_id)
            self.monitoring.metrics.incr("blockchain.degraded_commits")
            self.monitoring.log(
                "blockchain",
                f"AUDIT: tx {tx.tx_id} accepted under DEGRADED quorum "
                f"({len(endorsers)} endorsements from {sorted(set(orgs))}; "
                f"required {self.policy.min_endorsements}/"
                f"{self.policy.min_organizations})",
                level="WARN", tx=tx.tx_id, degraded=True)
            return
        where = " in batch" if in_batch else ""
        raise EndorsementError(
            f"tx {tx.tx_id}: endorsement policy unmet{where} "
            f"({len(endorsers)} endorsements from {set(orgs)})")

    def _endorsement_failed(self, peer: Peer, tx: Transaction,
                            exc: Exception) -> None:
        """Record a failed endorsement in logs and metrics."""
        self.monitoring.metrics.incr("blockchain.endorsement_failures")
        self.monitoring.metrics.incr(
            f"blockchain.endorsement_failures.{peer.peer_id}")
        self.monitoring.log(
            "blockchain",
            f"endorsement failed: peer {peer.peer_id} tx {tx.tx_id} "
            f"({tx.chaincode}.{tx.method}): {exc}",
            level="WARN", peer=peer.peer_id, tx=tx.tx_id)

    def flush(self) -> List[Block]:
        """Cut and commit every pending block (force the final partial one)."""
        committed: List[Block] = []
        with self.monitoring.span("blockchain.commit", "blockchain",
                                  **self.span_tags) as span:
            while True:
                reference = self.peers[0].ledger if self.peers else None
                height = reference.height if reference else 0
                prev = reference.tip_hash if reference else "0" * 64
                block = self.orderer.cut_block(height, prev, force=True)
                if block is None:
                    break
                self._charge("order", self.ORDER_LATENCY)
                degraded = frozenset(self._degraded_tx_ids)
                for peer in self.peers:
                    peer.commit_block(block, self.policy,
                                      degraded_tx_ids=degraded,
                                      degraded_policy=self.degraded_policy,
                                      batch_verify=self.batch_verify)
                    self._charge("commit", self.COMMIT_LATENCY)
                in_block = {tx.tx_id for tx in block.transactions}
                self._degraded_committed |= self._degraded_tx_ids & in_block
                self._degraded_tx_ids -= in_block
                committed.append(block)
            span.set_attribute("blocks", len(committed))
            span.set_attribute(
                "transactions",
                sum(len(b.transactions) for b in committed))
        return committed

    @property
    def degraded_tx_ids(self) -> frozenset:
        """Every tx admitted under the degraded quorum, pending or committed.

        Block sync hands this to the lagging peer so historical degraded
        transactions re-validate against the policy they were admitted
        with (see :meth:`Peer.sync_from`).
        """
        return frozenset(self._degraded_tx_ids | self._degraded_committed)

    def sync_peer(self, peer: Peer) -> int:
        """Catch a lagging/late-joining peer up from the reference peer.

        Threads the channel's degraded-transaction metadata (and its
        ``batch_verify`` mode) through the sync so the peer converges even
        when history contains degraded-quorum commits.  Returns the number
        of blocks applied.
        """
        if not self.peers:
            raise LedgerError("network has no peers")
        return peer.sync_from(self.peers[0], self.policy,
                              degraded_tx_ids=self.degraded_tx_ids,
                              degraded_policy=self.degraded_policy,
                              batch_verify=self.batch_verify)

    def invoke(self, submitter: str, chaincode: str, method: str,
               **args: Any) -> Transaction:
        """Submit and immediately flush — convenience for low-rate callers."""
        tx = self.submit(submitter, chaincode, method, **args)
        self.flush()
        return tx

    def query(self, chaincode: str, method: str, **args: Any) -> Any:
        """Read from the first peer (all peers converge)."""
        if not self.peers:
            raise LedgerError("network has no peers")
        return self.peers[0].query(chaincode, method, **args)

    def peers_converged(self) -> bool:
        """All peers hold identical world state and chain tips."""
        if len(self.peers) < 2:
            return True
        reference_state = self.peers[0].state.snapshot_hash()
        reference_tip = self.peers[0].ledger.tip_hash
        return all(p.state.snapshot_hash() == reference_state
                   and p.ledger.tip_hash == reference_tip
                   for p in self.peers[1:])
