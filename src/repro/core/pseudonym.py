"""Pseudonyms and private storage.

Section 1: "Each user holds an initially unlinkable pseudonym in the form
of a public key. ... If desired, a user may use multiple pseudonyms to
obscure that certain operations were initiated by the same user."
Section 2.1 adds client-side encryption for data privacy.

:class:`UserAgent` is the user-side convenience layer tying the two
together: it manages any number of pseudonymous smartcards (each its own
key pair, quota, and client), picks a pseudonym per operation, and can
encrypt file contents so storage nodes see only ciphertext.  Sharing is
by handing out a :class:`ShareToken` -- the fileId plus (for private
files) the decryption key, exactly the sharing story of section 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from repro.core.client import PastClient
from repro.core.files import RealData
from repro.crypto.symmetric import SealedBox, decrypt, encrypt, generate_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.network import PastNetwork


@dataclass(frozen=True)
class ShareToken:
    """Everything a recipient needs to retrieve (and read) one file."""

    file_id: int
    replication_factor: int
    key: Optional[bytes] = None  # None for public (plaintext) files


class UserAgent:
    """One human, many pseudonyms.

    The agent deliberately keeps no mapping that a storage node or broker
    could observe: each pseudonym is an independent smartcard, and which
    pseudonym inserted which file is known only to this object (i.e., to
    the user's own machine).
    """

    def __init__(self, network: "PastNetwork", rng: Optional[random.Random] = None) -> None:
        self.network = network
        self._rng = rng if rng is not None else network.rngs.stream("user-agent")
        self._pseudonyms: Dict[str, PastClient] = {}
        self._keys: Dict[int, bytes] = {}  # fileId -> decryption key
        self._owners: Dict[int, str] = {}  # fileId -> pseudonym label

    # ------------------------------------------------------------------ #
    # pseudonym management
    # ------------------------------------------------------------------ #

    def create_pseudonym(self, label: str, usage_quota: int) -> PastClient:
        """Obtain a fresh smartcard under a new, unlinkable pseudonym."""
        if label in self._pseudonyms:
            raise ValueError(f"pseudonym {label!r} already exists")
        client = self.network.create_client(usage_quota=usage_quota)
        self._pseudonyms[label] = client
        return client

    def pseudonym(self, label: str) -> PastClient:
        return self._pseudonyms[label]

    def _pick_pseudonym(self, label: Optional[str]) -> PastClient:
        if label is not None:
            return self._pseudonyms[label]
        if not self._pseudonyms:
            raise ValueError("create a pseudonym before storing files")
        choice = self._rng.choice(sorted(self._pseudonyms))
        return self._pseudonyms[choice]

    # ------------------------------------------------------------------ #
    # private (encrypted) storage
    # ------------------------------------------------------------------ #

    def store_private(
        self,
        name: str,
        plaintext: bytes,
        replication_factor: int = 3,
        pseudonym: Optional[str] = None,
    ) -> ShareToken:
        """Encrypt client-side and insert under a pseudonym.

        The smartcard never sees the plaintext or the key (section 2.1:
        "data encryption does not involve the smartcards"); storage nodes
        store only the sealed blob.
        """
        key = generate_key(self._rng)
        box = encrypt(key, plaintext, self._rng)
        client = self._pick_pseudonym(pseudonym)
        handle = client.insert(name, RealData(box.to_bytes()), replication_factor)
        self._keys[handle.file_id] = key
        self._owners[handle.file_id] = self._label_of(client)
        return ShareToken(
            file_id=handle.file_id,
            replication_factor=replication_factor,
            key=key,
        )

    def store_public(
        self,
        name: str,
        plaintext: bytes,
        replication_factor: int = 3,
        pseudonym: Optional[str] = None,
    ) -> ShareToken:
        """Insert without encryption (content shared with everyone)."""
        client = self._pick_pseudonym(pseudonym)
        handle = client.insert(name, RealData(plaintext), replication_factor)
        self._owners[handle.file_id] = self._label_of(client)
        return ShareToken(
            file_id=handle.file_id,
            replication_factor=replication_factor,
            key=None,
        )

    def _label_of(self, client: PastClient) -> str:
        for label, candidate in self._pseudonyms.items():
            if candidate is client:
                return label
        raise ValueError("client does not belong to this agent")

    # ------------------------------------------------------------------ #
    # retrieval (works for any user holding a token)
    # ------------------------------------------------------------------ #

    @staticmethod
    def retrieve(network: "PastNetwork", token: ShareToken,
                 reader: Optional[PastClient] = None) -> bytes:
        """Retrieve and (if the token carries a key) decrypt a file.

        A static method on purpose: any party holding the token can
        retrieve, not just the owning agent (read-only users need no
        smartcard, so a zero-quota client suffices).
        """
        if reader is None:
            reader = network.create_client(usage_quota=0)
        data = reader.lookup(token.file_id, replica_hint=token.replication_factor)
        blob = data.to_bytes()
        if token.key is None:
            return blob
        return decrypt(token.key, SealedBox.from_bytes(blob))

    # ------------------------------------------------------------------ #
    # the unlinkability observable
    # ------------------------------------------------------------------ #

    def signer_fingerprints(self) -> Dict[str, bytes]:
        """What an observer could collect per pseudonym: the signing-key
        fingerprints.  Distinct pseudonyms expose distinct, unlinkable
        fingerprints (the tests assert exactly this)."""
        return {
            label: client.card.public_key.fingerprint()
            for label, client in self._pseudonyms.items()
        }
