"""From-scratch RSA: key generation, signing, verification.

PAST's security model assumes an unbreakable public-key cryptosystem; we
implement a real one rather than stubbing it, so that the security tests
exercise genuine verification semantics (any forged certificate field
changes the hash and fails the signature check).

Keys default to 512 bits -- far too small for real-world security, but the
*semantics* (not the work factor) are what the reproduction needs, and
512-bit keygen is fast enough to mint thousands of simulated smartcards.

The scheme is hash-then-sign: ``signature = H(message)^d mod n`` and
verification checks ``signature^e mod n == H(message)``.  This is the
textbook construction (a simplified RSA-FDH); we do not implement PKCS#1
padding because no interoperability is required.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Tuple

from repro.crypto.hashing import hash_bytes

# The 40 smallest odd primes: trial division by these rejects ~88% of
# random candidates before the expensive Miller-Rabin rounds run.
_SMALL_PRIMES = [
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
    149, 151, 157, 163, 167, 173, 179,
]

_PUBLIC_EXPONENT = 65537


def _is_probable_prime(candidate: int, rng: random.Random, rounds: int = 24) -> bool:
    """Miller-Rabin primality test with *rounds* random witnesses."""
    if candidate < 2:
        return False
    if candidate == 2:
        return True
    if candidate % 2 == 0:
        return False
    for prime in _SMALL_PRIMES:
        if candidate == prime:
            return True
        if candidate % prime == 0:
            return False
    # write candidate - 1 as d * 2^r with d odd
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        witness = rng.randrange(2, candidate - 1)
        x = pow(witness, d, candidate)
        if x == 1 or x == candidate - 1:
            continue
        for _ in range(r - 1):
            x = pow(x, 2, candidate)
            if x == candidate - 1:
                break
        else:
            return False
    return True


def _generate_prime(bits: int, rng: random.Random) -> int:
    """Generate a random prime of exactly *bits* bits."""
    if bits < 8:
        raise ValueError("prime size too small to be meaningful")
    while True:
        candidate = rng.getrandbits(bits)
        candidate |= (1 << (bits - 1)) | 1  # force top bit and oddness
        if _is_probable_prime(candidate, rng):
            return candidate


@dataclass(frozen=True)
class RsaPublicKey:
    """The (n, e) half of an RSA key; safe to share."""

    n: int
    e: int

    def verify(self, message: bytes, signature: int) -> bool:
        """Check that *signature* is H(message)^d mod n.  A key from the
        wire may be nonsense; a non-positive exponent verifies nothing."""
        if self.e < 1 or not 0 < signature < self.n:
            return False
        expected = int.from_bytes(hash_bytes(message), "big") % self.n
        return pow(signature, self.e, self.n) == expected

    def fingerprint(self) -> bytes:
        """Canonical byte encoding used to derive nodeIds from keys."""
        n_bytes = self.n.to_bytes((self.n.bit_length() + 7) // 8, "big")
        e_bytes = self.e.to_bytes((self.e.bit_length() + 7) // 8, "big")
        return hash_bytes(n_bytes, e_bytes)


@dataclass(frozen=True)
class RsaPrivateKey:
    """The full RSA key. Held only inside simulated smartcards."""

    n: int
    e: int
    d: int

    def sign(self, message: bytes) -> int:
        """Produce H(message)^d mod n."""
        digest = int.from_bytes(hash_bytes(message), "big") % self.n
        return pow(digest, self.d, self.n)

    def public_key(self) -> RsaPublicKey:
        return RsaPublicKey(n=self.n, e=self.e)


def generate_rsa_keypair(
    bits: int = 512, rng: random.Random | None = None
) -> Tuple[RsaPrivateKey, RsaPublicKey]:
    """Generate an RSA keypair with modulus of roughly *bits* bits."""
    if rng is None:
        rng = random.Random()
    if bits < 64:
        raise ValueError("modulus below 64 bits cannot carry a SHA-256 digest residue safely")
    half = bits // 2
    while True:
        p = _generate_prime(half, rng)
        q = _generate_prime(bits - half, rng)
        if p == q:
            continue
        n = p * q
        phi = (p - 1) * (q - 1)
        if phi % _PUBLIC_EXPONENT == 0:
            continue  # e must be invertible mod phi
        d = pow(_PUBLIC_EXPONENT, -1, phi)
        private = RsaPrivateKey(n=n, e=_PUBLIC_EXPONENT, d=d)
        return private, private.public_key()
