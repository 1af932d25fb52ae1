"""Client upload sessions: one RSA unwrap per session, a tag per bundle."""

import secrets

import pytest

from repro import HealthCloudPlatform
from repro.client.connection import PlatformConnection
from repro.client.enhanced import EnhancedClient
from repro.cloudsim.network import standard_topology
from repro.crypto.rsa import HybridCiphertext, hybrid_encrypt, rsa_encrypt
from repro.crypto.symmetric import Ciphertext, generate_key
from repro.fhir.resources import Bundle, Observation, Patient
from repro.ingestion.pipeline import IngestionStatus, encrypt_bundle_for_upload


def make_bundle(index):
    patient_id = f"pt-{index}"
    bundle = Bundle(id=f"b-{index}")
    bundle.add(Patient(id=patient_id, name={"family": "Doe"},
                       birthDate="1980-03-12", gender="female"))
    bundle.add(Observation(id=f"{patient_id}-obs", code={"text": "HbA1c"},
                           subject=f"Patient/{patient_id}",
                           valueQuantity={"value": 7.0, "unit": "%"}))
    return bundle


@pytest.fixture
def setup():
    """A platform without a ledger, so every RSA private op is an unwrap."""
    platform = HealthCloudPlatform(seed=17, use_blockchain=False)
    context = platform.register_tenant("acme")
    group = platform.rbac.create_group(context.tenant.tenant_id, "study")
    for index in range(32):
        platform.consent.grant(f"pt-{index}", group.group_id)
    registration = platform.ingestion.register_client("client-1")
    return platform, group.group_id, registration


def ingest(platform, group_id, client_id, envelope):
    job = platform.ingestion.upload(client_id, envelope, group_id)
    platform.run_ingestion()
    return platform.ingestion.status(job.job_id)


class TestSessionCost:
    def test_sixteen_bundles_cost_one_unwrap(self, setup, rsa_private_ops):
        platform, group_id, registration = setup
        envelopes = [encrypt_bundle_for_upload(make_bundle(i), registration)
                     for i in range(16)]
        jobs = [platform.ingestion.upload("client-1", envelope, group_id)
                for envelope in envelopes]
        rsa_private_ops.clear()
        platform.run_ingestion()
        assert len(rsa_private_ops) == 1
        assert all(platform.ingestion.status(job.job_id)[0]
                   is IngestionStatus.STORED for job in jobs)

    def test_plain_hybrid_envelope_still_accepted(self, setup,
                                                  rsa_private_ops):
        platform, group_id, registration = setup
        plain = hybrid_encrypt(registration.public_key,
                               make_bundle(0).to_json().encode())
        rsa_private_ops.clear()
        assert ingest(platform, group_id, "client-1",
                      plain)[0] is IngestionStatus.STORED
        # The one-off key replaced the slot; the session key is unwrapped
        # again on its first bundle, then cached.
        for index in (1, 2):
            envelope = encrypt_bundle_for_upload(make_bundle(index),
                                                 registration)
            assert ingest(platform, group_id, "client-1",
                          envelope)[0] is IngestionStatus.STORED
        assert len(rsa_private_ops) == 2


class TestSessionIsolation:
    def test_envelope_under_another_client_id_rejected(self, setup):
        platform, group_id, registration = setup
        platform.ingestion.register_client("client-2")
        # client-1's slot holds the session key before the replay.
        assert ingest(platform, group_id, "client-1",
                      encrypt_bundle_for_upload(make_bundle(0), registration)
                      )[0] is IngestionStatus.STORED
        status, reason = ingest(
            platform, group_id, "client-2",
            encrypt_bundle_for_upload(make_bundle(1), registration))
        assert status is IngestionStatus.REJECTED
        assert "decryption" in reason

    def test_tampered_body_rejected_and_session_survives(self, setup):
        platform, group_id, registration = setup
        assert ingest(platform, group_id, "client-1",
                      encrypt_bundle_for_upload(make_bundle(0), registration)
                      )[0] is IngestionStatus.STORED
        envelope = encrypt_bundle_for_upload(make_bundle(1), registration)
        body = envelope.body
        flipped = bytes([body.body[0] ^ 1]) + body.body[1:]
        tampered = HybridCiphertext(envelope.wrapped_key,
                                    Ciphertext(body.nonce, flipped, body.tag))
        status, reason = ingest(platform, group_id, "client-1", tampered)
        assert status is IngestionStatus.REJECTED
        assert "tag" in reason
        assert ingest(platform, group_id, "client-1",
                      encrypt_bundle_for_upload(make_bundle(2), registration)
                      )[0] is IngestionStatus.STORED

    @pytest.mark.parametrize("forged_key", ["garbage", "unrelated-wrap"])
    def test_bad_wrapped_key_neither_evicts_nor_poisons(
            self, setup, rsa_private_ops, forged_key):
        platform, group_id, registration = setup
        assert ingest(platform, group_id, "client-1",
                      encrypt_bundle_for_upload(make_bundle(0), registration)
                      )[0] is IngestionStatus.STORED
        honest = encrypt_bundle_for_upload(make_bundle(1), registration)
        wrapped = (secrets.token_bytes(len(honest.wrapped_key))
                   if forged_key == "garbage"
                   else rsa_encrypt(registration.public_key, generate_key()))
        rsa_private_ops.clear()
        status, _ = ingest(platform, group_id, "client-1",
                           HybridCiphertext(wrapped, honest.body))
        assert status is IngestionStatus.REJECTED
        assert ingest(platform, group_id, "client-1",
                      honest)[0] is IngestionStatus.STORED
        # One attempted unwrap for the forgery; the honest bundle hit the
        # session slot, which the failure left in place.
        assert len(rsa_private_ops) == 1


class TestSessionEnvelopes:
    def test_one_wrapped_key_and_distinct_nonces(self, setup):
        _, _, registration = setup
        envelopes = [encrypt_bundle_for_upload(make_bundle(i), registration)
                     for i in range(64)]
        assert {e.wrapped_key for e in envelopes} == {registration.wrapped_key}
        assert len({e.body.nonce for e in envelopes}) == len(envelopes)

    def test_sessions_differ_across_registrations(self, setup):
        platform, _, registration = setup
        other = platform.ingestion.register_client("client-2")
        assert other.wrapped_key != registration.wrapped_key

    def test_enhanced_client_encrypts_through_the_session(self, setup):
        platform, group_id, registration = setup
        client = EnhancedClient(
            PlatformConnection(standard_topology(), "client", "cloud-a"),
            registration=registration)
        envelopes = [client.prepare_bundle(make_bundle(i)) for i in (0, 1)]
        assert {e.wrapped_key for e in envelopes} == {registration.wrapped_key}
        assert envelopes[0].body.nonce != envelopes[1].body.nonce
        for envelope in envelopes:
            assert ingest(platform, group_id, "client-1",
                          envelope)[0] is IngestionStatus.STORED
