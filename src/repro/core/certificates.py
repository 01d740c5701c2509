"""PAST certificates and receipts (section 2.1).

Four signed artifacts flow through insert and reclaim operations:

* **File certificate** -- issued by the *user's* smartcard before insert.
  Carries the fileId, the content hash (computed by the client node), the
  replication factor k, the salt, the textual name and the insertion
  date.  Lets each storing node verify that (1) the user was authorized
  (the issuing card debited its quota), (2) the content was not corrupted
  in transit, and (3) the fileId is authentic (re-derivable from
  name/owner/salt), defeating chosen-fileId attacks.
* **Store receipt** -- issued by each storing node's smartcard back to
  the client; k receipts from nodes with adjacent nodeIds prove that k
  diverse replicas exist.
* **Reclaim certificate** -- issued by the user's smartcard; a storage
  node honours a reclaim only if its signer matches the signer of the
  stored file certificate (only the owner can reclaim).
* **Reclaim receipt** -- issued by the storage node; presenting it to the
  user's smartcard credits the reclaimed amount back against the quota.

All four wrap :class:`repro.crypto.signatures.SignedEnvelope`; changing
any field invalidates the signature, which the security tests verify
field by field.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import ids
from repro.crypto.keys import KeyPair, PublicKey
from repro.crypto.signatures import SignedEnvelope

FILE_CERT_KIND = "past.file-certificate"
STORE_RECEIPT_KIND = "past.store-receipt"
RECLAIM_CERT_KIND = "past.reclaim-certificate"
RECLAIM_RECEIPT_KIND = "past.reclaim-receipt"


@dataclass(frozen=True)
class FileCertificate:
    """Signed statement authorising the insertion of one file."""

    envelope: SignedEnvelope

    @classmethod
    def issue(
        cls,
        card_keypair: KeyPair,
        name: str,
        file_id: int,
        content_hash: int,
        size: int,
        replication_factor: int,
        salt: int,
        insertion_date: int,
    ) -> "FileCertificate":
        if replication_factor < 1:
            raise ValueError("replication factor must be >= 1")
        fields = {
            "name": name,
            "file_id": file_id,
            "content_hash": content_hash,
            "size": size,
            "k": replication_factor,
            "salt": salt,
            "date": insertion_date,
        }
        return cls(SignedEnvelope.create(card_keypair, FILE_CERT_KIND, fields))

    @property
    def name(self) -> str:
        return str(self.envelope.fields["name"])

    @property
    def file_id(self) -> int:
        return int(self.envelope.fields["file_id"])

    @property
    def content_hash(self) -> int:
        return int(self.envelope.fields["content_hash"])

    @property
    def size(self) -> int:
        return int(self.envelope.fields["size"])

    @property
    def replication_factor(self) -> int:
        return int(self.envelope.fields["k"])

    @property
    def salt(self) -> int:
        return int(self.envelope.fields["salt"])

    @property
    def insertion_date(self) -> int:
        return int(self.envelope.fields["date"])

    @property
    def owner(self) -> PublicKey:
        return self.envelope.signer

    def verify(self) -> bool:
        """Signature valid *and* fileId authentic for (name, owner, salt)."""
        if not self.envelope.verify():
            return False
        return ids.verify_file_id(self.file_id, self.name, self.owner, self.salt)

    def storage_key(self) -> int:
        """The 128-bit key Pastry routes this file's operations on."""
        return ids.storage_key(self.file_id)


@dataclass(frozen=True)
class StoreReceipt:
    """Signed proof that one node stored one replica."""

    envelope: SignedEnvelope

    @classmethod
    def issue(cls, node_card_keypair: KeyPair, node_id: int, certificate: FileCertificate,
              diverted: bool = False) -> "StoreReceipt":
        fields = {
            "file_id": certificate.file_id,
            "content_hash": certificate.content_hash,
            "node_id": node_id,
            "size": certificate.size,
            "diverted": diverted,
        }
        return cls(SignedEnvelope.create(node_card_keypair, STORE_RECEIPT_KIND, fields))

    @property
    def file_id(self) -> int:
        return int(self.envelope.fields["file_id"])

    @property
    def node_id(self) -> int:
        return int(self.envelope.fields["node_id"])

    @property
    def size(self) -> int:
        return int(self.envelope.fields["size"])

    @property
    def diverted(self) -> bool:
        return bool(self.envelope.fields["diverted"])

    def verify(self, certificate: FileCertificate) -> bool:
        """Signature valid and consistent with the file certificate."""
        if not self.envelope.verify():
            return False
        return (
            self.file_id == certificate.file_id
            and int(self.envelope.fields["content_hash"]) == certificate.content_hash
            and self.size == certificate.size
        )


@dataclass(frozen=True)
class ReclaimCertificate:
    """Signed request to reclaim a file's storage."""

    envelope: SignedEnvelope

    @classmethod
    def issue(cls, card_keypair: KeyPair, file_id: int) -> "ReclaimCertificate":
        return cls(SignedEnvelope.create(card_keypair, RECLAIM_CERT_KIND, {"file_id": file_id}))

    @property
    def file_id(self) -> int:
        return int(self.envelope.fields["file_id"])

    @property
    def issuer(self) -> PublicKey:
        return self.envelope.signer

    def verify_against(self, certificate: FileCertificate) -> bool:
        """The check each storage node performs: valid signature *from the
        same key that signed the file certificate* (section 2.1)."""
        if not self.envelope.verify():
            return False
        if self.file_id != certificate.file_id:
            return False
        return self.issuer == certificate.owner


@dataclass(frozen=True)
class ReclaimReceipt:
    """Signed proof that a storage node released a file's storage."""

    envelope: SignedEnvelope

    @classmethod
    def issue(
        cls,
        node_card_keypair: KeyPair,
        node_id: int,
        reclaim_certificate: ReclaimCertificate,
        amount_reclaimed: int,
    ) -> "ReclaimReceipt":
        if amount_reclaimed < 0:
            raise ValueError("amount reclaimed cannot be negative")
        fields = {
            "file_id": reclaim_certificate.file_id,
            "node_id": node_id,
            "amount": amount_reclaimed,
            # Bind the receipt to the specific reclaim request.
            "reclaim_signature": reclaim_certificate.envelope.signature,
        }
        return cls(SignedEnvelope.create(node_card_keypair, RECLAIM_RECEIPT_KIND, fields))

    @property
    def file_id(self) -> int:
        return int(self.envelope.fields["file_id"])

    @property
    def node_id(self) -> int:
        return int(self.envelope.fields["node_id"])

    @property
    def amount(self) -> int:
        return int(self.envelope.fields["amount"])

    def verify(self, reclaim_certificate: ReclaimCertificate) -> bool:
        if not self.envelope.verify():
            return False
        return (
            self.file_id == reclaim_certificate.file_id
            and int(self.envelope.fields["reclaim_signature"])
            == reclaim_certificate.envelope.signature
        )
