"""From-scratch RSA, used as the public-key comparator for E6/E7.

The paper (Section IV-B1) argues "public key encryption is too expensive to
maintain the scalability of the system" and therefore encrypts bulk data
with a shared key.  To *measure* that claim rather than assert it, this
module implements real RSA — Miller–Rabin key generation, PKCS#1-v1.5-style
padding, raw encrypt/decrypt/sign/verify, and the hybrid (envelope) mode
the platform actually uses for client upload keys.

Not a security-audited implementation; it is a faithful cost model whose
asymptotics (modexp-dominated) match production RSA.
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from ..core.errors import IntegrityError
from .symmetric import Ciphertext, SharedKeyCipher, generate_key

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


def _is_probable_prime(n: int, rounds: int = 24,
                       randbelow=secrets.randbelow) -> bool:
    """Miller–Rabin primality test."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = 2 + randbelow(n - 3)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


class _DeterministicRand:
    """Deterministic random source for seeded (test) key generation."""

    def __init__(self, seed: int) -> None:
        self._state = hashlib.sha256(f"rsa-seed:{seed}".encode()).digest()

    def randbelow(self, n: int) -> int:
        self._state = hashlib.sha256(self._state).digest()
        return int.from_bytes(self._state + hashlib.sha256(self._state + b"x").digest(),
                              "big") % n

    def getrandbits(self, k: int) -> int:
        nbytes = (k + 7) // 8 + 8
        out = b""
        while len(out) < nbytes:
            self._state = hashlib.sha256(self._state).digest()
            out += self._state
        return int.from_bytes(out[:nbytes], "big") >> (nbytes * 8 - k)


def _random_prime(bits: int, rand) -> int:
    while True:
        candidate = rand.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_probable_prime(candidate, randbelow=rand.randbelow):
            return candidate


@dataclass(frozen=True)
class RsaPublicKey:
    """(n, e) pair."""

    n: int
    e: int

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def fingerprint(self) -> str:
        """Stable identifier for key registries and attestation allow-lists."""
        raw = self.n.to_bytes(self.byte_length, "big") + self.e.to_bytes(8, "big")
        return hashlib.sha256(raw).hexdigest()[:24]


@dataclass(frozen=True)
class RsaPrivateKey:
    """(n, e, d) triple plus the CRT parameters derived from p/q.

    ``d_p``/``d_q``/``q_inv`` are precomputed once at construction so every
    private-key operation (decrypt, sign) can run two half-size modular
    exponentiations and a Garner recombination instead of one full-size
    exponentiation — the classic ~3-4x CRT speedup.  The schoolbook path is
    kept (``use_crt=False``) as the measured baseline.
    """

    n: int
    e: int
    d: int
    p: int
    q: int
    d_p: int = 0
    d_q: int = 0
    q_inv: int = 0

    def __post_init__(self) -> None:
        if self.p and self.q and not (self.d_p and self.d_q and self.q_inv):
            object.__setattr__(self, "d_p", self.d % (self.p - 1))
            object.__setattr__(self, "d_q", self.d % (self.q - 1))
            object.__setattr__(self, "q_inv", pow(self.q, -1, self.p))

    def public_key(self) -> RsaPublicKey:
        return RsaPublicKey(self.n, self.e)

    def private_op(self, value: int, use_crt: bool = True) -> int:
        """Compute ``value ** d mod n``.

        With ``use_crt`` (the default) the exponentiation is split over the
        prime factors and recombined with Garner's formula; the schoolbook
        ``pow(value, d, n)`` remains available for equivalence tests and
        before/after benchmarks.
        """
        if not use_crt or not self.q_inv:
            return pow(value, self.d, self.n)
        m_p = pow(value % self.p, self.d_p, self.p)
        m_q = pow(value % self.q, self.d_q, self.q)
        h = (self.q_inv * (m_p - m_q)) % self.p
        return m_q + h * self.q


class _SecretsRand:
    randbelow = staticmethod(secrets.randbelow)
    getrandbits = staticmethod(lambda k: secrets.randbits(k))


def generate_keypair(bits: int = 1024, seed: Optional[int] = None) -> RsaPrivateKey:
    """Generate an RSA keypair; ``seed`` makes it deterministic for tests.

    Seeded generation is a pure function of ``(bits, seed)``, so its result
    is memoized: simulations that stand up many platforms with the same
    seed (benchmarks, the test suite) pay the Miller–Rabin search once.
    The returned key is frozen, so sharing the instance is safe.  The
    unseeded (``secrets``) path is never cached.
    """
    if seed is not None:
        return _seeded_keypair(bits, seed)
    return _generate_keypair(bits, None)


@lru_cache(maxsize=512)
def _seeded_keypair(bits: int, seed: int) -> RsaPrivateKey:
    return _generate_keypair(bits, seed)


def _generate_keypair(bits: int, seed: Optional[int]) -> RsaPrivateKey:
    if bits < 256:
        raise ValueError("modulus too small to hold padded payloads")
    rand = _DeterministicRand(seed) if seed is not None else _SecretsRand()
    e = 65537
    while True:
        p = _random_prime(bits // 2, rand)
        q = _random_prime(bits // 2, rand)
        if p == q:
            continue
        phi = (p - 1) * (q - 1)
        if phi % e == 0:
            continue
        n = p * q
        if n.bit_length() < bits:
            continue
        d = pow(e, -1, phi)
        return RsaPrivateKey(n=n, e=e, d=d, p=p, q=q)


def _pad(message: bytes, k: int) -> bytes:
    """PKCS#1-v1.5-shaped randomized padding: 00 02 PS 00 M."""
    if len(message) > k - 11:
        raise ValueError(f"message too long for {k}-byte modulus")
    ps_len = k - 3 - len(message)
    ps = bytes((b % 255) + 1 for b in secrets.token_bytes(ps_len))
    return b"\x00\x02" + ps + b"\x00" + message


def _unpad(padded: bytes) -> bytes:
    if len(padded) < 11 or padded[0:2] != b"\x00\x02":
        raise IntegrityError("RSA padding check failed")
    try:
        sep = padded.index(0, 2)
    except ValueError:
        raise IntegrityError("RSA padding separator missing") from None
    return padded[sep + 1:]


def rsa_encrypt(public: RsaPublicKey, message: bytes) -> bytes:
    """Encrypt a short message directly under RSA."""
    k = public.byte_length
    m = int.from_bytes(_pad(message, k), "big")
    return pow(m, public.e, public.n).to_bytes(k, "big")


def rsa_decrypt(private: RsaPrivateKey, ciphertext: bytes,
                use_crt: bool = True) -> bytes:
    """Decrypt and strip padding."""
    k = (private.n.bit_length() + 7) // 8
    if len(ciphertext) != k:
        raise IntegrityError("ciphertext length does not match modulus")
    c = int.from_bytes(ciphertext, "big")
    m = private.private_op(c, use_crt=use_crt)
    return _unpad(m.to_bytes(k, "big"))


def _encoded_digest(k: int, message: bytes) -> bytes:
    """The deterministic PKCS#1-v1.5 signature encoding of a message."""
    digest = hashlib.sha256(message).digest()
    return b"\x00\x01" + b"\xff" * (k - 3 - len(digest)) + b"\x00" + digest


def rsa_sign(private: RsaPrivateKey, message: bytes,
             use_crt: bool = True) -> bytes:
    """Hash-then-sign signature."""
    k = (private.n.bit_length() + 7) // 8
    padded = _encoded_digest(k, message)
    s = private.private_op(int.from_bytes(padded, "big"), use_crt=use_crt)
    return s.to_bytes(k, "big")


def rsa_verify(public: RsaPublicKey, message: bytes, signature: bytes) -> bool:
    """Verify a hash-then-sign signature."""
    k = public.byte_length
    if len(signature) != k:
        return False
    m = pow(int.from_bytes(signature, "big"), public.e, public.n)
    return m.to_bytes(k, "big") == _encoded_digest(k, message)


def rsa_verify_batch(public: RsaPublicKey,
                     pairs: Sequence[Tuple[bytes, bytes]]) -> List[bool]:
    """Screening-style aggregate verification of same-key signatures.

    Checks ``(prod s_i)^e == prod EM_i (mod n)`` — one public-key
    exponentiation plus 2(k-1) modular multiplications instead of k
    exponentiations (Bellare–Garay–Rabin screening).  When every
    signature in the batch is individually valid the aggregate relation
    always holds; when it fails, the batch falls back to per-signature
    :func:`rsa_verify` so the culprit signatures are identified exactly.

    Screening soundness requires *distinct* messages within a batch (a
    forger who controls two slots of the same message can cancel bogus
    factors); batches with duplicate messages — and signatures of the
    wrong length, which a product would silently absorb — are routed to
    the per-signature path.  Block validation deduplicates endorsements
    and groups them by endorsing member; each member signs one distinct
    batch root per batch, so the fast path is the common one.

    Returns one verdict per ``(message, signature)`` pair, in order.
    """
    pairs = list(pairs)
    if not pairs:
        return []
    if len(pairs) == 1:
        message, signature = pairs[0]
        return [rsa_verify(public, message, signature)]
    k = public.byte_length
    messages = [message for message, _ in pairs]
    if (len(set(messages)) != len(messages)
            or any(len(signature) != k for _, signature in pairs)):
        return [rsa_verify(public, message, signature)
                for message, signature in pairs]
    sig_product = 1
    encoded_product = 1
    for message, signature in pairs:
        sig_product = (sig_product
                       * int.from_bytes(signature, "big")) % public.n
        encoded_product = (encoded_product * int.from_bytes(
            _encoded_digest(k, message), "big")) % public.n
    if pow(sig_product, public.e, public.n) == encoded_product:
        return [True] * len(pairs)
    return [rsa_verify(public, message, signature)
            for message, signature in pairs]


@dataclass(frozen=True)
class HybridCiphertext:
    """Envelope encryption: RSA-wrapped data key + AEAD body."""

    wrapped_key: bytes
    body: Ciphertext

    def __len__(self) -> int:
        return len(self.wrapped_key) + len(self.body)


def hybrid_encrypt(public: RsaPublicKey, plaintext: bytes,
                   associated_data: bytes = b"") -> HybridCiphertext:
    """Encrypt bulk data with a fresh shared key, wrap the key under RSA.

    This is the envelope format of client uploads: clients encrypt to the
    platform's public certificate, but the bulk work is symmetric.  An
    upload session (``repro.ingestion.ClientRegistration``) reuses one
    wrapped key for all its envelopes; this one-off form wraps a fresh
    key per call and costs the receiver one RSA private op each.
    """
    data_key = generate_key()
    cipher = SharedKeyCipher(data_key)
    body = cipher.encrypt(plaintext, associated_data)
    wrapped = rsa_encrypt(public, data_key)
    return HybridCiphertext(wrapped, body)


def hybrid_decrypt(private: RsaPrivateKey, envelope: HybridCiphertext,
                   associated_data: bytes = b"") -> bytes:
    """Unwrap the data key and decrypt the body."""
    data_key = rsa_decrypt(private, envelope.wrapped_key)
    return SharedKeyCipher(data_key).decrypt(envelope.body, associated_data)
