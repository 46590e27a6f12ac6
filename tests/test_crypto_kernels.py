"""The fast crypto kernels against independent references.

``repro.crypto.aes`` encrypts with T-tables and ``repro.crypto.ed25519``
multiplies the base point with a fixed-base comb and other points with a
4-bit window.  The RFC/FIPS vectors live in ``test_crypto_aes.py`` and
``test_crypto_asym.py``; this module checks the kernels on seeded and edge
inputs against the slow formulations they replaced: the double-and-add
ladder, the two-exponentiation point decode, and the round-by-round
inverse cipher.
"""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.crypto import ed25519 as ed
from repro.crypto.aes import AES

_P, _L = ed._P, ed._L
_LARGEST_CLAMPED = 2**255 - 8
_SRC = Path(__file__).resolve().parent.parent / "src"


# -- references: double-and-add ladder and the two-exponentiation decode -----


def _ref_scalar_mult(p, s):
    q = (0, 1, 1, 0)
    while s > 0:
        if s & 1:
            q = ed._edwards_add(q, p)
        p = ed._edwards_add(p, p)
        s >>= 1
    return q


def _ref_decompress(data):
    value = int.from_bytes(data, "little")
    sign, y = value >> 255, value & ((1 << 255) - 1)
    if y >= _P:
        return None
    x2 = (y * y - 1) * pow(ed._D * y * y + 1, _P - 2, _P) % _P
    if x2 == 0:
        return None if sign else (0, y, 1, 0)
    x = pow(x2, (_P + 3) // 8, _P)
    if (x * x - x2) % _P:
        x = x * ed._I % _P
    if (x * x - x2) % _P:
        return None
    if x & 1 != sign:
        x = _P - x
    return (x, y, 1, x * y % _P)


def _ref_verify(public, message, signature):
    a_point = _ref_decompress(public)
    r_point = _ref_decompress(signature[:32])
    if a_point is None or r_point is None:
        return False
    s = int.from_bytes(signature[32:], "little")
    if s >= _L:
        return False
    k = int.from_bytes(hashlib.sha512(signature[:32] + public + message).digest(),
                       "little") % _L
    lhs = _ref_scalar_mult(ed._B, s)
    rhs = ed._edwards_add(r_point, _ref_scalar_mult(a_point, k))
    return ed._compress(lhs) == ed._compress(rhs)


# -- fixed-base comb vs windowed variable-base -------------------------------


_EDGE_SCALARS = [0, 1, 15, 16, 2**252, _L - 1, _L, _LARGEST_CLAMPED]


@pytest.mark.parametrize("scalar", _EDGE_SCALARS,
                         ids=["0", "1", "15", "16", "2^252", "L-1", "L", "max-clamped"])
def test_comb_matches_window_on_edge_scalars(scalar):
    comb = ed._compress(ed._base_mult(scalar))
    assert comb == ed._compress(ed._scalar_mult(ed._B, scalar))
    assert comb == ed._compress(_ref_scalar_mult(ed._B, scalar))


def test_comb_matches_window_on_seeded_scalars():
    rng = random.Random(8032)
    for _ in range(24):
        scalar = rng.getrandbits(256)
        assert ed._compress(ed._base_mult(scalar)) == ed._compress(
            ed._scalar_mult(ed._B, scalar))


def test_comb_edge_points():
    identity = (1).to_bytes(32, "little")
    assert ed._compress(ed._base_mult(0)) == identity
    assert ed._compress(ed._base_mult(_L)) == identity
    assert ed._compress(ed._base_mult(1)) == ed._compress(ed._B)


def test_window_matches_ladder_on_other_points():
    rng = random.Random(25519)
    point = _ref_scalar_mult(ed._B, rng.getrandbits(252))
    for scalar in [0, 1, 15, 16, 17, 255, 256, _L - 1] + [rng.getrandbits(253) for _ in range(8)]:
        assert ed._compress(ed._scalar_mult(point, scalar)) == ed._compress(
            _ref_scalar_mult(point, scalar))


# -- verify accept/reject matches the reference ------------------------------


SK = bytes(range(32))
MSG = b"charging contract"


def _signature_cases():
    public = ed.generate_public_key(SK)
    sig = ed.sign(SK, MSG)
    r, s = sig[:32], int.from_bytes(sig[32:], "little")
    other_r = ed.sign(SK, b"another message")[:32]
    identity = (1).to_bytes(32, "little")
    identity_signed = (1 | 1 << 255).to_bytes(32, "little")  # x = 0 cannot be negative
    order2 = (_P - 1).to_bytes(32, "little")  # (0, -1): order 2
    non_canonical = (_P + 1).to_bytes(32, "little")  # y = p + 1 encodes y = 1
    forged_small_order = ed._compress(ed._base_mult(7)) + (7).to_bytes(32, "little")
    return {
        "genuine": (public, MSG, sig, True),
        "wrong-message": (public, b"charging contracT", sig, False),
        "forged-R": (public, MSG, other_r + sig[32:], False),
        "s-equals-L": (public, MSG, r + _L.to_bytes(32, "little"), False),
        "s-plus-L": (public, MSG, r + (s + _L).to_bytes(32, "little"), False),
        "identity-public-key": (identity, MSG, forged_small_order, True),
        "order-2-public-key": (order2, MSG, forged_small_order, None),
        "non-canonical-public-y": (non_canonical, MSG, forged_small_order, False),
        "non-canonical-R-y": (public, MSG, non_canonical + sig[32:], False),
        "x0-with-sign-bit-R": (public, MSG, identity_signed + sig[32:], False),
        "x0-with-sign-bit-public-key": (identity_signed, MSG, forged_small_order, False),
        "off-curve-R": (public, MSG, (2).to_bytes(32, "little") + sig[32:], False),
    }


@pytest.mark.parametrize("case", sorted(_signature_cases()))
def test_verify_matches_reference(case):
    public, message, signature, expected = _signature_cases()[case]
    result = ed.verify(public, message, signature)
    assert result == _ref_verify(public, message, signature)
    if expected is not None:
        assert result is expected


def test_sign_matches_reference_ladder_on_seeded_keys():
    rng = random.Random(2024)
    for _ in range(4):
        secret = rng.randbytes(32)
        message = rng.randbytes(rng.randrange(0, 96))
        h = hashlib.sha512(secret).digest()
        a = ed._clamp(h[:32])
        public = ed._compress(_ref_scalar_mult(ed._B, a))
        assert ed.generate_public_key(secret) == public
        signature = ed.sign(secret, message)
        r = int.from_bytes(hashlib.sha512(h[32:] + message).digest(), "little") % _L
        assert signature[:32] == ed._compress(_ref_scalar_mult(ed._B, r))
        assert _ref_verify(public, message, signature)


# -- T-table AES round-trips through the round-by-round inverse -------------


@pytest.mark.parametrize("key_len", [16, 24, 32])
def test_ttable_encrypt_roundtrips_through_decrypt(key_len):
    rng = random.Random(197 + key_len)
    for _ in range(16):
        cipher = AES(rng.randbytes(key_len))
        block = rng.randbytes(16)
        ciphertext = cipher.encrypt_block(block)
        assert ciphertext != block
        assert cipher.decrypt_block(ciphertext) == block


# -- the comb table costs nothing until first use ----------------------------


def test_import_leaves_comb_table_unbuilt():
    code = ("import repro.__main__\n"
            "from repro.crypto import ed25519\n"
            "print(ed25519._comb_table.cache_info().currsize)\n")
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "0"
