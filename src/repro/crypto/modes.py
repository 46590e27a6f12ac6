"""AES cipher modes: CTR keystream, CMAC (RFC 4493), and GCM (SP 800-38D).

These provide the building blocks used throughout the in-vehicle-network
security protocols:

* **CTR** — keystream generation, also the DRBG behind HRP-UWB scrambled
  timestamp sequences (:mod:`repro.phy.hrp`).
* **CMAC** — the MAC underlying AUTOSAR SECOC and CiA 613-2 CANsec.
* **GCM** — the AEAD mandated by IEEE 802.1AE MACsec (GCM-AES-128/256).

All algorithms are validated against published test vectors in the test
suite (RFC 4493 appendix, NIST GCM test cases).
"""

from __future__ import annotations

from repro.crypto.aes import AES, xor_bytes

__all__ = ["ctr_keystream", "ctr_xcrypt", "Cmac", "cmac", "Gcm", "AuthenticationError"]


class AuthenticationError(Exception):
    """Raised when an AEAD tag or MAC fails verification."""


# GCM tag lengths in bytes that SP 800-38D §5.2.1.2 admits.
_GCM_TAG_LENGTHS = frozenset({4, 8, 12, 13, 14, 15, 16})


def _check_gcm_tag_len(tag_len: int) -> None:
    # A tag length read from a record is attacker-chosen: an empty tag would
    # authenticate any ciphertext and a 1-byte tag forges with p = 1/256.
    if tag_len not in _GCM_TAG_LENGTHS:
        raise AuthenticationError(
            f"GCM tag length {tag_len} bytes is not one of {sorted(_GCM_TAG_LENGTHS)}")


def _inc32(block: bytes) -> bytes:
    """Increment the rightmost 32 bits of a 16-byte block (GCM counter)."""
    prefix, ctr = block[:12], int.from_bytes(block[12:], "big")
    return prefix + ((ctr + 1) & 0xFFFFFFFF).to_bytes(4, "big")


def ctr_keystream(key: bytes, initial_counter: bytes, length: int) -> bytes:
    """Generate ``length`` bytes of AES-CTR keystream.

    ``initial_counter`` is a full 16-byte counter block; the rightmost 32
    bits are incremented per block (GCM-style), which is adequate for all
    message sizes used in this project.
    """
    if len(initial_counter) != 16:
        raise ValueError("initial counter must be 16 bytes")
    cipher = AES(key)
    out = bytearray()
    counter = initial_counter
    while len(out) < length:
        out.extend(cipher.encrypt_block(counter))
        counter = _inc32(counter)
    return bytes(out[:length])


def ctr_xcrypt(key: bytes, initial_counter: bytes, data: bytes) -> bytes:
    """Encrypt or decrypt ``data`` with AES-CTR (the operation is symmetric)."""
    return xor_bytes(data, ctr_keystream(key, initial_counter, len(data)))


def _left_shift_one(block: bytes) -> bytes:
    value = int.from_bytes(block, "big")
    return ((value << 1) & ((1 << 128) - 1)).to_bytes(16, "big")


class Cmac:
    """AES-CMAC per RFC 4493, with support for truncated tags.

    Truncation matters for the reproduction: SECOC and CANsec transmit
    truncated MACs to save bus bandwidth, trading forgery resistance for
    goodput (ablation ABL-2 in DESIGN.md).
    """

    def __init__(self, key: bytes) -> None:
        self._cipher = AES(key)
        zero = self._cipher.encrypt_block(b"\x00" * 16)
        k1 = _left_shift_one(zero)
        if zero[0] & 0x80:
            k1 = xor_bytes(k1, b"\x00" * 15 + b"\x87")
        k2 = _left_shift_one(k1)
        if k1[0] & 0x80:
            k2 = xor_bytes(k2, b"\x00" * 15 + b"\x87")
        self._k1 = k1
        self._k2 = k2

    def tag(self, message: bytes, tag_bits: int = 128) -> bytes:
        """Compute the CMAC over ``message`` truncated to ``tag_bits`` bits.

        ``tag_bits`` must be a positive multiple of 8, at most 128. The tag
        keeps the most significant (leftmost) bytes, per RFC 4493 §2.4 and
        AUTOSAR SECOC truncation rules.
        """
        if tag_bits <= 0 or tag_bits > 128 or tag_bits % 8:
            raise ValueError("tag_bits must be a multiple of 8 in (0, 128]")
        n_blocks = max(1, (len(message) + 15) // 16)
        complete = len(message) % 16 == 0 and len(message) > 0
        if complete:
            last = xor_bytes(message[-16:], self._k1)
        else:
            tail = message[16 * (n_blocks - 1) :]
            padded = tail + b"\x80" + b"\x00" * (15 - len(tail))
            last = xor_bytes(padded, self._k2)
        state = b"\x00" * 16
        for i in range(n_blocks - 1):
            state = self._cipher.encrypt_block(xor_bytes(state, message[16 * i : 16 * i + 16]))
        full = self._cipher.encrypt_block(xor_bytes(state, last))
        return full[: tag_bits // 8]

    def verify(self, message: bytes, tag: bytes) -> bool:
        """Constant-result check of a (possibly truncated) tag.

        An empty or over-long (> 16-byte) tag never verifies.
        """
        if not 1 <= len(tag) <= 16:
            return False
        expected = self.tag(message, tag_bits=len(tag) * 8)
        # Non-short-circuit compare; timing is irrelevant in simulation but
        # we keep the idiom to mirror real implementations.
        diff = 0
        for a, b in zip(expected, tag):
            diff |= a ^ b
        return diff == 0 and len(expected) == len(tag)


def cmac(key: bytes, message: bytes, tag_bits: int = 128) -> bytes:
    """One-shot AES-CMAC."""
    return Cmac(key).tag(message, tag_bits=tag_bits)


def _ghash_mul(x: int, y: int) -> int:
    """Carry-less multiply in GF(2^128) with the GCM polynomial (bit-reflected)."""
    r = 0xE1 << 120
    z = 0
    v = y
    for i in range(127, -1, -1):
        if (x >> i) & 1:
            z ^= v
        if v & 1:
            v = (v >> 1) ^ r
        else:
            v >>= 1
    return z


class Gcm:
    """AES-GCM authenticated encryption (NIST SP 800-38D).

    Supports the 96-bit IV fast path and arbitrary IV lengths via GHASH.
    This is the AEAD used by the MACsec model (:mod:`repro.ivn.macsec`).
    """

    def __init__(self, key: bytes) -> None:
        self._cipher = AES(key)
        self._key = key
        self._h = int.from_bytes(self._cipher.encrypt_block(b"\x00" * 16), "big")

    def _ghash(self, data: bytes) -> bytes:
        y = 0
        for i in range(0, len(data), 16):
            block = data[i : i + 16].ljust(16, b"\x00")
            y = _ghash_mul(y ^ int.from_bytes(block, "big"), self._h)
        return y.to_bytes(16, "big")

    def _j0(self, iv: bytes) -> bytes:
        if len(iv) == 12:
            return iv + b"\x00\x00\x00\x01"
        pad = (16 - len(iv) % 16) % 16
        return self._ghash(iv + b"\x00" * (pad + 8) + (8 * len(iv)).to_bytes(8, "big"))

    def _auth_tag(self, j0: bytes, aad: bytes, ciphertext: bytes, tag_len: int) -> bytes:
        def padded(d: bytes) -> bytes:
            return d + b"\x00" * ((16 - len(d) % 16) % 16)

        s = self._ghash(
            padded(aad)
            + padded(ciphertext)
            + (8 * len(aad)).to_bytes(8, "big")
            + (8 * len(ciphertext)).to_bytes(8, "big")
        )
        return xor_bytes(s, self._cipher.encrypt_block(j0))[:tag_len]

    def encrypt(self, iv: bytes, plaintext: bytes, aad: bytes = b"", tag_len: int = 16) -> tuple[bytes, bytes]:
        """Return ``(ciphertext, tag)``.

        Raises :class:`AuthenticationError` unless ``tag_len`` is one of
        4, 8, 12, 13, 14, 15 or 16 bytes (SP 800-38D).
        """
        _check_gcm_tag_len(tag_len)
        j0 = self._j0(iv)
        ciphertext = ctr_xcrypt(self._key, _inc32(j0), plaintext)
        return ciphertext, self._auth_tag(j0, aad, ciphertext, tag_len)

    def decrypt(self, iv: bytes, ciphertext: bytes, tag: bytes, aad: bytes = b"") -> bytes:
        """Verify ``tag`` and return the plaintext; raise on failure.

        A tag that is not 4, 8, 12, 13, 14, 15 or 16 bytes long fails.
        """
        _check_gcm_tag_len(len(tag))
        j0 = self._j0(iv)
        expected = self._auth_tag(j0, aad, ciphertext, len(tag))
        diff = 0
        for a, b in zip(expected, tag):
            diff |= a ^ b
        if diff or len(expected) != len(tag):
            raise AuthenticationError("GCM tag verification failed")
        return ctr_xcrypt(self._key, _inc32(j0), ciphertext)
