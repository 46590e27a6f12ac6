"""Ed25519 signatures (RFC 8032) in pure Python.

This is the signature scheme behind the self-sovereign-identity layer
(:mod:`repro.ssi`): DID authentication keys, verifiable-credential proofs,
and software-component attestations all sign with Ed25519, mirroring the
did:web / W3C VC ecosystem the paper references in §IV.

The implementation follows the RFC 8032 reference structure (twisted
Edwards curve edwards25519, SHA-512) and is pinned to the RFC's test
vectors in the test suite.  Every multiple of the base point B (the public
key and R in :func:`sign`, sB in :func:`verify`) goes through a radix-16
fixed-base comb: a 64 x 15 table of ``j * 16**i * B`` in affine
``(y+x, y-x, 2dxy)`` form, normalised with one batched inversion, so a
scalar costs one mixed addition per nonzero nibble and no doublings.  The
table is built on first use (~1k point additions), so importing the module
costs nothing.  The variable-base ``kA`` in :func:`verify` uses a 4-bit
fixed window.  Not constant-time; simulation substrate only.
"""

from __future__ import annotations

import functools
import hashlib

__all__ = ["generate_public_key", "sign", "verify", "SignatureError"]

_P = 2**255 - 19
_L = 2**252 + 27742317777372353535851937790883648493
_D = (-121665 * pow(121666, _P - 2, _P)) % _P
_D2 = 2 * _D % _P
_I = pow(2, (_P - 1) // 4, _P)


class SignatureError(Exception):
    """Raised when a signature fails to verify or decode."""


def _sha512(data: bytes) -> bytes:
    return hashlib.sha512(data).digest()


def _inv(x: int) -> int:
    return pow(x, _P - 2, _P)


# Points are extended homogeneous coordinates (X, Y, Z, T) with x=X/Z, y=Y/Z,
# x*y=T/Z.
_Point = tuple[int, int, int, int]

_NEUTRAL: _Point = (0, 1, 1, 0)


def _edwards_add(p: _Point, q: _Point) -> _Point:
    x1, y1, z1, t1 = p
    x2, y2, z2, t2 = q
    a = (y1 - x1) * (y2 - x2) % _P
    b = (y1 + x1) * (y2 + x2) % _P
    c = t1 * t2 * _D2 % _P
    d = 2 * z1 * z2 % _P
    e, f, g, h = b - a, d - c, d + c, b + a
    return (e * f % _P, g * h % _P, f * g % _P, e * h % _P)


def _edwards_double4(p: _Point) -> _Point:
    """Return ``16 * p``: four doublings, with T computed only by the last.

    Doubling never reads T, so the three inner doublings skip it.
    """
    x, y, z, _ = p
    for _ in range(4):
        a = x * x % _P
        b = y * y % _P
        c = 2 * z * z % _P
        h = a + b
        e = (h - (x + y) * (x + y)) % _P
        g = a - b
        f = c + g
        x, y, z = e * f % _P, g * h % _P, f * g % _P
    return (x, y, z, e * h % _P)


# Affine point in precomputed form (y + x, y - x, 2*d*x*y), all mod p.
_Precomp = tuple[int, int, int]


def _madd(p: _Point, q: _Precomp) -> _Point:
    """Mixed addition of an extended point and an affine precomputed point."""
    x1, y1, z1, t1 = p
    ypx, ymx, t2d = q
    a = (y1 - x1) * ymx % _P
    b = (y1 + x1) * ypx % _P
    c = t1 * t2d % _P
    d = 2 * z1
    e, f, g, h = b - a, d - c, d + c, b + a
    return (e * f % _P, g * h % _P, f * g % _P, e * h % _P)


def _scalar_mult(p: _Point, s: int) -> _Point:
    """Return ``s * p`` for ``s >= 0`` with a 4-bit fixed window.

    Fourteen additions build ``[0..15] * p``; then each nibble from the top
    costs four doublings and at most one addition.
    """
    window = [_NEUTRAL, p]
    for _ in range(14):
        window.append(_edwards_add(window[-1], p))
    q = _NEUTRAL
    for shift in range(4 * ((s.bit_length() + 3) // 4 - 1), -1, -4):
        q = _edwards_double4(q)
        nibble = (s >> shift) & 15
        if nibble:
            q = _edwards_add(q, window[nibble])
    return q


def _recover_x(y: int, sign: int) -> int:
    if y >= _P:
        raise SignatureError("point decode: y out of range")
    # x = sqrt(u / v) with one exponentiation (RFC 8032 §5.1.3):
    # x = u v^3 (u v^7)^((p-5)/8), then fix the root by sqrt(-1) if needed.
    u = (y * y - 1) % _P
    v = (_D * y * y + 1) % _P
    v3 = v * v * v % _P
    x = u * v3 * pow(u * v3 * v3 * v % _P, (_P - 5) // 8, _P) % _P
    vx2 = v * x * x % _P
    if vx2 != u:
        if vx2 != _P - u:
            raise SignatureError("point decode: not on curve")
        x = x * _I % _P
    if x == 0 and sign:
        raise SignatureError("point decode: invalid sign for x=0")
    if x & 1 != sign:
        x = _P - x
    return x


_BY = 4 * _inv(5) % _P
_BX = _recover_x(_BY, 0)
_B: _Point = (_BX, _BY, 1, _BX * _BY % _P)


_COMB_ROWS = 64  # radix-16 digits of a scalar below 2**256


@functools.cache
def _comb_table() -> tuple[tuple[_Precomp, ...], ...]:
    """Row ``i`` holds ``j * 16**i * B`` for ``j = 1..15``; built once, on first use."""
    points: list[_Point] = []
    row_base = _B
    for _ in range(_COMB_ROWS):
        p = row_base
        for _ in range(15):
            points.append(p)
            p = _edwards_add(p, row_base)
        row_base = p  # 16 * row_base
    # Montgomery's trick: one inversion plus three products per point.
    prefix = []
    acc = 1
    for point in points:
        prefix.append(acc)
        acc = acc * point[2] % _P
    inv = _inv(acc)
    entries: list[_Precomp] = [(0, 0, 0)] * len(points)
    for k in range(len(points) - 1, -1, -1):
        x, y, z, _ = points[k]
        z_inv = inv * prefix[k] % _P
        inv = inv * z % _P
        x, y = x * z_inv % _P, y * z_inv % _P
        entries[k] = ((y + x) % _P, (y - x) % _P, _D2 * x * y % _P)
    return tuple(tuple(entries[15 * i : 15 * i + 15]) for i in range(_COMB_ROWS))


def _base_mult(s: int) -> _Point:
    """Return ``s * B`` for ``0 <= s < 2**256`` via the fixed-base comb."""
    q = _NEUTRAL
    for row in _comb_table():
        nibble = s & 15
        if nibble:
            q = _madd(q, row[nibble - 1])
        s >>= 4
    return q


def _compress(p: _Point) -> bytes:
    x, y, z, _ = p
    zinv = _inv(z)
    x, y = x * zinv % _P, y * zinv % _P
    return (y | ((x & 1) << 255)).to_bytes(32, "little")


def _decompress(data: bytes) -> _Point:
    if len(data) != 32:
        raise SignatureError("point must be 32 bytes")
    value = int.from_bytes(data, "little")
    sign = value >> 255
    y = value & ((1 << 255) - 1)
    x = _recover_x(y, sign)
    return (x, y, 1, x * y % _P)


def _clamp(scalar_bytes: bytes) -> int:
    a = int.from_bytes(scalar_bytes, "little")
    a &= (1 << 254) - 8
    a |= 1 << 254
    return a


def generate_public_key(secret: bytes) -> bytes:
    """Derive the 32-byte public key from a 32-byte secret seed."""
    if len(secret) != 32:
        raise ValueError("Ed25519 secret seed must be 32 bytes")
    h = _sha512(secret)
    a = _clamp(h[:32])
    return _compress(_base_mult(a))


def sign(secret: bytes, message: bytes) -> bytes:
    """Produce a 64-byte Ed25519 signature over ``message``."""
    if len(secret) != 32:
        raise ValueError("Ed25519 secret seed must be 32 bytes")
    h = _sha512(secret)
    a = _clamp(h[:32])
    prefix = h[32:]
    public = _compress(_base_mult(a))
    r = int.from_bytes(_sha512(prefix + message), "little") % _L
    r_point = _compress(_base_mult(r))
    k = int.from_bytes(_sha512(r_point + public + message), "little") % _L
    s = (r + k * a) % _L
    return r_point + s.to_bytes(32, "little")


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """Return True iff ``signature`` is a valid signature of ``message``."""
    if len(public) != 32 or len(signature) != 64:
        return False
    try:
        a_point = _decompress(public)
        r_point = _decompress(signature[:32])
    except SignatureError:
        return False
    s = int.from_bytes(signature[32:], "little")
    if s >= _L:
        return False
    k = int.from_bytes(_sha512(signature[:32] + public + message), "little") % _L
    lhs = _base_mult(s)
    rhs = _edwards_add(r_point, _scalar_mult(a_point, k))
    # Compare projectively: X1*Z2 == X2*Z1 and Y1*Z2 == Y2*Z1.
    x1, y1, z1, _ = lhs
    x2, y2, z2, _ = rhs
    return (x1 * z2 - x2 * z1) % _P == 0 and (y1 * z2 - y2 * z1) % _P == 0
