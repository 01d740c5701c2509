"""Unit tests for the crypto substrate: hashing, RSA, keys, envelopes."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import (
    FILE_ID_BITS,
    NODE_ID_BITS,
    combine_ids,
    content_hash,
    hash_bytes,
    int_to_bytes,
    sha1_id,
    sha256_id,
)
from repro.crypto.keys import (
    INSECURE_FAST_BACKEND,
    RSA_BACKEND,
    KeyPair,
    generate_keypair,
)
from repro.crypto.rsa import RsaPublicKey, _is_probable_prime, generate_rsa_keypair
from repro.crypto.signatures import SignedEnvelope, canonical_bytes, sign_fields, verify_fields


class TestHashing:
    def test_sha1_id_width(self):
        assert 0 <= sha1_id(b"x") < (1 << FILE_ID_BITS)

    def test_sha256_id_width(self):
        assert 0 <= sha256_id(b"x") < (1 << NODE_ID_BITS)

    def test_deterministic(self):
        assert sha1_id(b"a", b"b") == sha1_id(b"a", b"b")

    def test_length_prefix_prevents_ambiguity(self):
        """(b"ab", b"c") must not collide with (b"a", b"bc")."""
        assert sha1_id(b"ab", b"c") != sha1_id(b"a", b"bc")
        assert hash_bytes(b"ab", b"c") != hash_bytes(b"a", b"bc")

    def test_truncation_widths(self):
        assert 0 <= sha256_id(b"x", bits=64) < (1 << 64)
        assert 0 <= sha1_id(b"x", bits=32) < (1 << 32)

    def test_content_hash_width(self):
        assert 0 <= content_hash(b"payload") < (1 << FILE_ID_BITS)

    def test_int_to_bytes_round_trip(self):
        value = 0xDEADBEEF
        assert int.from_bytes(int_to_bytes(value, 64), "big") == value

    def test_int_to_bytes_rejects_overflow(self):
        with pytest.raises(ValueError):
            int_to_bytes(1 << 64, 64)

    def test_combine_ids_deterministic(self):
        assert combine_ids([1, 2, 3], 128) == combine_ids([1, 2, 3], 128)
        assert combine_ids([1, 2, 3], 128) != combine_ids([3, 2, 1], 128)

    @given(st.binary(max_size=64), st.binary(max_size=64))
    @settings(max_examples=50)
    def test_different_inputs_different_hashes(self, a, b):
        if a != b:
            assert sha256_id(a) != sha256_id(b)


class TestMillerRabin:
    def test_known_primes(self):
        rng = random.Random(0)
        for p in (2_147_483_647, 104_729, 7919):
            assert _is_probable_prime(p, rng)

    def test_known_composites(self):
        rng = random.Random(0)
        for c in (561, 1105, 1729, 2465):  # Carmichael numbers
            assert not _is_probable_prime(c, rng)

    def test_small_values(self):
        rng = random.Random(0)
        assert not _is_probable_prime(1, rng)
        assert _is_probable_prime(2, rng)
        assert _is_probable_prime(3, rng)
        assert not _is_probable_prime(4, rng)


class TestRsa:
    def test_sign_verify_round_trip(self):
        priv, pub = generate_rsa_keypair(256, random.Random(1))
        sig = priv.sign(b"message")
        assert pub.verify(b"message", sig)

    def test_verify_rejects_other_message(self):
        priv, pub = generate_rsa_keypair(256, random.Random(1))
        sig = priv.sign(b"message")
        assert not pub.verify(b"other", sig)

    def test_verify_rejects_tampered_signature(self):
        priv, pub = generate_rsa_keypair(256, random.Random(1))
        sig = priv.sign(b"message")
        assert not pub.verify(b"message", sig ^ 1)

    def test_verify_rejects_out_of_range_signature(self):
        priv, pub = generate_rsa_keypair(256, random.Random(1))
        assert not pub.verify(b"message", 0)
        assert not pub.verify(b"message", pub.n)

    def test_verify_with_a_nonsense_exponent_is_false_not_an_error(self):
        """A public key decoded off the wire: with a negative exponent
        ``pow`` would raise for a signature sharing a factor with n."""
        assert not RsaPublicKey(n=15, e=-1).verify(b"message", 6)
        assert not RsaPublicKey(n=15, e=0).verify(b"message", 7)

    def test_wrong_key_rejects(self):
        priv_a, _ = generate_rsa_keypair(256, random.Random(1))
        _, pub_b = generate_rsa_keypair(256, random.Random(2))
        assert not pub_b.verify(b"m", priv_a.sign(b"m"))

    def test_keygen_deterministic_under_seed(self):
        a, _ = generate_rsa_keypair(256, random.Random(5))
        b, _ = generate_rsa_keypair(256, random.Random(5))
        assert a.n == b.n

    def test_rejects_tiny_modulus(self):
        with pytest.raises(ValueError):
            generate_rsa_keypair(32, random.Random(0))

    def test_fingerprint_stable(self):
        _, pub = generate_rsa_keypair(256, random.Random(1))
        assert pub.fingerprint() == pub.fingerprint()


class TestKeyPairs:
    @pytest.mark.parametrize("backend", [RSA_BACKEND, INSECURE_FAST_BACKEND])
    def test_round_trip(self, backend):
        kp = generate_keypair(random.Random(3), backend=backend, bits=256)
        sig = kp.sign(b"data")
        assert kp.public.verify(b"data", sig)
        assert not kp.public.verify(b"data2", sig)

    @pytest.mark.parametrize("backend", [RSA_BACKEND, INSECURE_FAST_BACKEND])
    def test_derive_id_width(self, backend):
        kp = generate_keypair(random.Random(3), backend=backend, bits=256)
        assert 0 <= kp.public.derive_id(128) < (1 << 128)

    def test_distinct_keys_distinct_ids(self):
        rng = random.Random(3)
        ids = {generate_keypair(rng, backend=INSECURE_FAST_BACKEND).public.derive_id()
               for _ in range(50)}
        assert len(ids) == 50

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            generate_keypair(random.Random(0), backend="enigma")

    def test_public_key_equality(self):
        kp = generate_keypair(random.Random(3), backend=INSECURE_FAST_BACKEND)
        other = generate_keypair(random.Random(4), backend=INSECURE_FAST_BACKEND)
        assert kp.public == kp.public
        assert kp.public != other.public


class TestSignedEnvelopes:
    @pytest.fixture()
    def keypair(self) -> KeyPair:
        return generate_keypair(random.Random(7), backend=INSECURE_FAST_BACKEND)

    def test_canonical_bytes_field_order_independent(self):
        assert canonical_bytes({"a": 1, "b": 2}) == canonical_bytes({"b": 2, "a": 1})

    def test_canonical_bytes_type_tagged(self):
        """1 (int) and "1" (str) must encode differently."""
        assert canonical_bytes({"a": 1}) != canonical_bytes({"a": "1"})
        assert canonical_bytes({"a": True}) != canonical_bytes({"a": 1})

    def test_canonical_bytes_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            canonical_bytes({"a": 1.5})

    def test_sign_verify_round_trip(self, keypair):
        fields = {"x": 1, "y": "two", "z": b"three"}
        sig = sign_fields(keypair, "kind", fields)
        assert verify_fields(keypair.public, "kind", fields, sig)

    def test_any_field_change_breaks_signature(self, keypair):
        fields = {"x": 1, "y": "two"}
        sig = sign_fields(keypair, "kind", fields)
        assert not verify_fields(keypair.public, "kind", {"x": 2, "y": "two"}, sig)
        assert not verify_fields(keypair.public, "kind", {"x": 1, "y": "TWO"}, sig)

    def test_kind_is_bound(self, keypair):
        """A certificate of one kind cannot be replayed as another."""
        fields = {"x": 1}
        sig = sign_fields(keypair, "reclaim", fields)
        assert not verify_fields(keypair.public, "file", fields, sig)

    def test_envelope_self_verify(self, keypair):
        env = SignedEnvelope.create(keypair, "k", {"a": 1})
        assert env.verify()

    def test_envelope_verify_with_external_key(self, keypair):
        env = SignedEnvelope.create(keypair, "k", {"a": 1})
        stranger = generate_keypair(random.Random(99), backend=INSECURE_FAST_BACKEND)
        assert env.verify_with(keypair.public)
        assert not env.verify_with(stranger.public)

    @given(st.dictionaries(st.text(max_size=8),
                           st.one_of(st.integers(), st.text(max_size=8), st.binary(max_size=8)),
                           max_size=5))
    @settings(max_examples=30)
    def test_round_trip_any_fields(self, fields):
        keypair = generate_keypair(random.Random(7), backend=INSECURE_FAST_BACKEND)
        env = SignedEnvelope.create(keypair, "k", fields)
        assert env.verify()
