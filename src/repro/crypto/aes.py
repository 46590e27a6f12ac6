"""Pure-Python AES block cipher (FIPS 197).

This module provides the raw 128-bit block transform for AES-128, AES-192,
and AES-256.  It exists because the reproduction environment has no binary
crypto libraries; the cipher modes built on top of it (CTR, CMAC, GCM) live
in :mod:`repro.crypto.modes`.

The S-box and its inverse are derived programmatically from the GF(2^8)
multiplicative inverse plus the FIPS 197 affine transform, which avoids
transcription errors in a 256-entry table.  Encryption is the classic
T-table formulation: the state is four big-endian 32-bit column words, and
the four 256-entry tables ``Te0..Te3`` (built at import from the S-box and
the GF(2^8) doubling table) fold SubBytes, ShiftRows and MixColumns into
16 lookups plus XORs per round; the final round uses the S-box alone.
Decryption stays round by round, an independent inverse the tests
round-trip against.  Correctness is pinned to the FIPS 197 appendix test
vectors in the test suite.

The table lookups are **not** constant-time; this is a simulation
substrate, not a production cipher.
"""

from __future__ import annotations

__all__ = ["AES", "xor_bytes"]


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """Return the byte-wise XOR of two equal-length byte strings."""
    if len(a) != len(b):
        raise ValueError(f"xor_bytes length mismatch: {len(a)} != {len(b)}")
    return bytes(x ^ y for x, y in zip(a, b))


def _gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8) modulo the AES polynomial x^8+x^4+x^3+x+1."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
        b >>= 1
    return result


def _build_sbox() -> tuple[bytes, bytes]:
    """Construct the AES S-box and inverse S-box from first principles."""
    # Multiplicative inverses via exponentiation tables over generator 3.
    exp = [0] * 256
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x = _gf_mul(x, 3)
    exp[255] = exp[0]

    def inv(a: int) -> int:
        if a == 0:
            return 0
        return exp[255 - log[a]]

    sbox = bytearray(256)
    for a in range(256):
        b = inv(a)
        # Affine transform: b XOR rot(b,1..4) XOR 0x63
        s = b
        for shift in (1, 2, 3, 4):
            s ^= ((b << shift) | (b >> (8 - shift))) & 0xFF
        sbox[a] = s ^ 0x63

    inv_sbox = bytearray(256)
    for a, s in enumerate(sbox):
        inv_sbox[s] = a
    return bytes(sbox), bytes(inv_sbox)


_SBOX, _INV_SBOX = _build_sbox()
_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8, 0xAB, 0x4D]

# Precomputed GF(2^8) multiply-by-constant tables used by InvMixColumns and
# by the encryption T-tables.
_MUL = {c: bytes(_gf_mul(x, c) for x in range(256)) for c in (2, 3, 9, 11, 13, 14)}


def _rotr8(word: int) -> int:
    return (word >> 8) | ((word & 0xFF) << 24)


def _sub_word(word: int) -> int:
    """Apply the S-box to each byte of a 32-bit word (FIPS 197 SubWord)."""
    return (
        (_SBOX[word >> 24] << 24) | (_SBOX[(word >> 16) & 0xFF] << 16)
        | (_SBOX[(word >> 8) & 0xFF] << 8) | _SBOX[word & 0xFF]
    )


# Te0[x] is the MixColumns column (2s, s, s, 3s) for s = S[x], packed
# big-endian; Te1..Te3 are its byte rotations, one per state row.
_TE0 = [(_MUL[2][s] << 24) | (s << 16) | (s << 8) | _MUL[3][s] for s in _SBOX]
_TE1 = [_rotr8(t) for t in _TE0]
_TE2 = [_rotr8(t) for t in _TE1]
_TE3 = [_rotr8(t) for t in _TE2]


class AES:
    """AES block cipher supporting 128-, 192-, and 256-bit keys.

    Usage::

        cipher = AES(b"\\x00" * 16)
        ct = cipher.encrypt_block(b"\\x00" * 16)
        pt = cipher.decrypt_block(ct)
    """

    block_size = 16

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise ValueError(f"AES key must be 16, 24, or 32 bytes, got {len(key)}")
        self.key = bytes(key)
        self._rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._round_keys = self._expand_key(self.key)

    def _expand_key(self, key: bytes) -> list[tuple[int, int, int, int]]:
        """FIPS 197 key expansion into one tuple of four big-endian words per round."""
        nk = len(key) // 4
        nr = self._rounds
        words = [int.from_bytes(key[4 * i : 4 * i + 4], "big") for i in range(nk)]
        for i in range(nk, 4 * (nr + 1)):
            temp = words[i - 1]
            if i % nk == 0:
                rotated = ((temp << 8) & 0xFFFFFFFF) | (temp >> 24)
                temp = _sub_word(rotated) ^ (_RCON[i // nk - 1] << 24)
            elif nk > 6 and i % nk == 4:
                temp = _sub_word(temp)
            words.append(words[i - nk] ^ temp)
        return [
            (words[4 * r], words[4 * r + 1], words[4 * r + 2], words[4 * r + 3])
            for r in range(nr + 1)
        ]

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt a single 16-byte block."""
        if len(block) != 16:
            raise ValueError("AES block must be exactly 16 bytes")
        rk = self._round_keys
        te0, te1, te2, te3 = _TE0, _TE1, _TE2, _TE3
        value = int.from_bytes(block, "big")
        k0, k1, k2, k3 = rk[0]
        s0 = (value >> 96) ^ k0
        s1 = ((value >> 64) & 0xFFFFFFFF) ^ k1
        s2 = ((value >> 32) & 0xFFFFFFFF) ^ k2
        s3 = (value & 0xFFFFFFFF) ^ k3
        for k0, k1, k2, k3 in rk[1:-1]:
            t0 = te0[s0 >> 24] ^ te1[(s1 >> 16) & 0xFF] ^ te2[(s2 >> 8) & 0xFF] ^ te3[s3 & 0xFF] ^ k0
            t1 = te0[s1 >> 24] ^ te1[(s2 >> 16) & 0xFF] ^ te2[(s3 >> 8) & 0xFF] ^ te3[s0 & 0xFF] ^ k1
            t2 = te0[s2 >> 24] ^ te1[(s3 >> 16) & 0xFF] ^ te2[(s0 >> 8) & 0xFF] ^ te3[s1 & 0xFF] ^ k2
            s3 = te0[s3 >> 24] ^ te1[(s0 >> 16) & 0xFF] ^ te2[(s1 >> 8) & 0xFF] ^ te3[s2 & 0xFF] ^ k3
            s0, s1, s2 = t0, t1, t2
        sbox = _SBOX
        k0, k1, k2, k3 = rk[-1]
        return (
            (((sbox[s0 >> 24] << 24) | (sbox[(s1 >> 16) & 0xFF] << 16)
              | (sbox[(s2 >> 8) & 0xFF] << 8) | sbox[s3 & 0xFF]) ^ k0) << 96
            | (((sbox[s1 >> 24] << 24) | (sbox[(s2 >> 16) & 0xFF] << 16)
                | (sbox[(s3 >> 8) & 0xFF] << 8) | sbox[s0 & 0xFF]) ^ k1) << 64
            | (((sbox[s2 >> 24] << 24) | (sbox[(s3 >> 16) & 0xFF] << 16)
                | (sbox[(s0 >> 8) & 0xFF] << 8) | sbox[s1 & 0xFF]) ^ k2) << 32
            | (((sbox[s3 >> 24] << 24) | (sbox[(s0 >> 16) & 0xFF] << 16)
                | (sbox[(s1 >> 8) & 0xFF] << 8) | sbox[s2 & 0xFF]) ^ k3)
        ).to_bytes(16, "big")

    # Decryption works on a flat 16-byte state in column-major order,
    # matching the byte order of the block (FIPS 197 s[r][c] = in[r + 4c]).

    @staticmethod
    def _inv_shift_rows(s: list[int]) -> list[int]:
        return [
            s[0], s[13], s[10], s[7],
            s[4], s[1], s[14], s[11],
            s[8], s[5], s[2], s[15],
            s[12], s[9], s[6], s[3],
        ]

    @staticmethod
    def _inv_mix_columns(s: list[int]) -> list[int]:
        m9, m11, m13, m14 = _MUL[9], _MUL[11], _MUL[13], _MUL[14]
        out = [0] * 16
        for c in range(0, 16, 4):
            a0, a1, a2, a3 = s[c], s[c + 1], s[c + 2], s[c + 3]
            out[c] = m14[a0] ^ m11[a1] ^ m13[a2] ^ m9[a3]
            out[c + 1] = m9[a0] ^ m14[a1] ^ m11[a2] ^ m13[a3]
            out[c + 2] = m13[a0] ^ m9[a1] ^ m14[a2] ^ m11[a3]
            out[c + 3] = m11[a0] ^ m13[a1] ^ m9[a2] ^ m14[a3]
        return out

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt a single 16-byte block."""
        if len(block) != 16:
            raise ValueError("AES block must be exactly 16 bytes")
        rk = [b"".join(w.to_bytes(4, "big") for w in words) for words in self._round_keys]
        s = [b ^ k for b, k in zip(block, rk[self._rounds])]
        for rnd in range(self._rounds - 1, 0, -1):
            s = self._inv_shift_rows(s)
            s = [_INV_SBOX[b] for b in s]
            s = [b ^ k for b, k in zip(s, rk[rnd])]
            s = self._inv_mix_columns(s)
        s = self._inv_shift_rows(s)
        s = [_INV_SBOX[b] for b in s]
        s = [b ^ k for b, k in zip(s, rk[0])]
        return bytes(s)
