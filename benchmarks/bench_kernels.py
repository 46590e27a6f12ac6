"""BENCH-KERNELS — fast hot-path kernels vs their preserved references.

Four hot paths were rebuilt for speed; this bench pins both the speedups
and the bit-identical equivalence that makes the speedups admissible:

1. **CAN frame transport** (:mod:`repro.ivn.bus`).  Three generations
   are timed on the same saturated-segment workload:

   * the *reference* kernel — the pre-optimization implementation,
     preserved verbatim below: list queue, O(n) linear arbitration scan
     per frame (O(n²) per burst), uncached per-frame ``isinstance`` +
     ``transmission_time_s`` bit arithmetic;
   * the *scalar event-loop* kernel — today's ``send()`` + ``sim.run()``:
     heap arbitration and memoized frame times, per-frame completion
     events (full fidelity: obs hooks, callbacks, interleaving);
   * the *batched* kernel — ``send_batch()`` + ``run_batch()``:
     closed-form burst timing, no per-frame closures or events.

   The acceptance gate pins **batched ≥ 10× reference** frames/s, and
   an in-bench oracle asserts the batched ``DeliveryRecord`` stream is
   byte-identical to the scalar path's on a seeded mixed burst.

2. **UWB waveform chain** (:mod:`repro.phy`).  Vectorized pulse-train
   synthesis (cached template + scatter-add) vs the sequential
   placement loop, and ``ds_twr_batch`` vs a scalar ``ds_twr`` loop —
   both with ``np.array_equal`` oracles.

3. **AES block cipher** (:mod:`repro.crypto.aes`).  The T-table
   encryption vs the round-by-round SubBytes/ShiftRows/MixColumns
   kernel, preserved verbatim below.  Gate: **T-table ≥ 2.5×
   reference** per block, with a byte-equality oracle on seeded keys
   (all three key sizes) and blocks.

4. **Ed25519** (:mod:`repro.crypto.ed25519`).  Fixed-base comb (sign)
   and comb plus 4-bit window (verify) vs the double-and-add ladder,
   preserved verbatim below.  Gates: **sign ≥ 3×, verify ≥ 1.4×** the
   ladder, with byte-equality oracles on public keys and signatures and
   equal verdicts on genuine and tampered signatures, for seeded seeds
   and messages.

The secured-frame gauge (``bench.kernels.ivn.secured_frames_per_s``)
times SecOC secure + batched CAN transport + SecOC verify per frame, so
the headline frames/s includes the security layer.  All gates are ratios
against the in-bench references, never absolute times.

The scalar fallback still exists on purpose: ``run_batch`` drops to the
event loop whenever obs hooks are enabled, a node has a receive
callback, or foreign events are live — the batch path is a fast lane,
not a semantic fork.  Numbers land in ``BENCH_KERNELS.json`` at the
repo root via the observability layer's JSON metrics format.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.events import Simulator
from repro.crypto import ed25519
from repro.crypto.aes import _MUL, _RCON, _SBOX, AES
from repro.ivn.bus import BusNode, CanBus, DeliveryRecord
from repro.ivn.frames import CanFdFrame, CanFrame, CanXlFrame
from repro.ivn.secoc import PROFILE_1, SecOcChannel, SecuredPdu
from repro.obs import MetricsRegistry
from repro.phy.pulses import HRP_CONFIG, build_pulse_train, pulse_template
from repro.phy.ranging import ds_twr, ds_twr_batch

#: Same operating point as BENCH-OBS's bus workload, so the scalar
#: numbers are directly comparable across the two bench files.
N_FRAMES = 400
N_SYMBOLS = 512
N_RANGINGS = 4000
MIN_BATCHED_SPEEDUP = 10.0
N_AES_BLOCKS = 400
N_SIGNATURES = 6
N_SECURED_FRAMES = 240
MIN_AES_SPEEDUP = 2.5
MIN_SIGN_SPEEDUP = 3.0
MIN_VERIFY_SPEEDUP = 1.4

_REPO_ROOT = Path(__file__).resolve().parent.parent


# -- the preserved reference kernel ------------------------------------------


@dataclass(frozen=True)
class _QueuedFrame:
    sender: str
    frame: object
    enqueued_at: float
    priority: int


class _ReferenceBus:
    """The pre-optimization CAN kernel, kept as the speedup baseline.

    Faithful to the original hot path: frames wait in a plain list, every
    idle instant runs a full O(n) arbitration scan, and every start
    recomputes the frame's transmission time from its bit layout.
    """

    def __init__(self, sim: Simulator, *, bitrate_bps: float = 500e3,
                 data_bitrate_bps: float = 2e6) -> None:
        self.sim = sim
        self.bitrate_bps = bitrate_bps
        self.data_bitrate_bps = data_bitrate_bps
        self.nodes: dict[str, BusNode] = {}
        self.delivered: list[DeliveryRecord] = []
        self._queue: list[_QueuedFrame] = []
        self._busy = False

    def attach(self, node: BusNode) -> BusNode:
        self.nodes[node.name] = node
        return node

    def send(self, sender: str, frame: object) -> None:
        priority = getattr(frame, "can_id", None)
        if priority is None:
            priority = frame.priority_id  # type: ignore[attr-defined]
        self._queue.append(_QueuedFrame(sender, frame, self.sim.now, priority))
        if not self._busy:
            self._start_next()

    def _frame_time(self, frame: object) -> float:
        if isinstance(frame, CanFrame):
            return frame.transmission_time_s(self.bitrate_bps)
        if isinstance(frame, (CanFdFrame, CanXlFrame)):
            return frame.transmission_time_s(self.bitrate_bps,
                                             self.data_bitrate_bps)
        raise TypeError(f"unsupported frame type {type(frame).__name__}")

    def _start_next(self) -> None:
        if not self._queue:
            return
        winner_idx = min(
            range(len(self._queue)),
            key=lambda i: (self._queue[i].priority,
                           self._queue[i].enqueued_at, i),
        )
        queued = self._queue.pop(winner_idx)
        self._busy = True
        started = self.sim.now
        duration = self._frame_time(queued.frame)

        def complete() -> None:
            record = DeliveryRecord(queued.sender, queued.frame,
                                    queued.enqueued_at, started, self.sim.now)
            self.delivered.append(record)
            for node in self.nodes.values():
                if node.name != queued.sender:
                    node.deliver(record)
            self._busy = False
            self._start_next()

        self.sim.schedule(duration, complete)


class _ReferenceAES:
    """The round-by-round AES encryption, kept as the T-table baseline.

    Byte state in column-major order, SubBytes via the S-box, explicit
    ShiftRows and table-driven MixColumns: the kernel ``AES`` used before
    the T-tables.
    """

    def __init__(self, key: bytes) -> None:
        self.key = bytes(key)
        self._rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._round_keys = self._expand_key(self.key)

    def _expand_key(self, key: bytes) -> list[list[int]]:
        nk = len(key) // 4
        nr = self._rounds
        words = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
        for i in range(nk, 4 * (nr + 1)):
            temp = list(words[i - 1])
            if i % nk == 0:
                temp = temp[1:] + temp[:1]
                temp = [_SBOX[b] for b in temp]
                temp[0] ^= _RCON[i // nk - 1]
            elif nk > 6 and i % nk == 4:
                temp = [_SBOX[b] for b in temp]
            words.append([a ^ b for a, b in zip(words[i - nk], temp)])
        # Group words into 16-byte round keys (flat lists for speed).
        return [
            [b for w in words[4 * r : 4 * r + 4] for b in w]
            for r in range(nr + 1)
        ]

    @staticmethod
    def _shift_rows(s: list[int]) -> list[int]:
        return [
            s[0], s[5], s[10], s[15],
            s[4], s[9], s[14], s[3],
            s[8], s[13], s[2], s[7],
            s[12], s[1], s[6], s[11],
        ]

    @staticmethod
    def _mix_columns(s: list[int]) -> list[int]:
        m2, m3 = _MUL[2], _MUL[3]
        out = [0] * 16
        for c in range(0, 16, 4):
            a0, a1, a2, a3 = s[c], s[c + 1], s[c + 2], s[c + 3]
            out[c] = m2[a0] ^ m3[a1] ^ a2 ^ a3
            out[c + 1] = a0 ^ m2[a1] ^ m3[a2] ^ a3
            out[c + 2] = a0 ^ a1 ^ m2[a2] ^ m3[a3]
            out[c + 3] = m3[a0] ^ a1 ^ a2 ^ m2[a3]
        return out

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt a single 16-byte block."""
        if len(block) != 16:
            raise ValueError("AES block must be exactly 16 bytes")
        rk = self._round_keys
        s = [b ^ k for b, k in zip(block, rk[0])]
        for rnd in range(1, self._rounds):
            s = [_SBOX[b] for b in s]
            s = self._shift_rows(s)
            s = self._mix_columns(s)
            s = [b ^ k for b, k in zip(s, rk[rnd])]
        s = [_SBOX[b] for b in s]
        s = self._shift_rows(s)
        s = [b ^ k for b, k in zip(s, rk[self._rounds])]
        return bytes(s)


# The Ed25519 double-and-add ladder, kept as the comb/window baseline.
# Point decoding, hashing and clamping are shared with the module.

_P, _L, _D = ed25519._P, ed25519._L, ed25519._D


def _ref_edwards_add(p: tuple, q: tuple) -> tuple:
    x1, y1, z1, t1 = p
    x2, y2, z2, t2 = q
    a = (y1 - x1) * (y2 - x2) % _P
    b = (y1 + x1) * (y2 + x2) % _P
    c = 2 * t1 * t2 * _D % _P
    d = 2 * z1 * z2 % _P
    e, f, g, h = b - a, d - c, d + c, b + a
    return (e * f % _P, g * h % _P, f * g % _P, e * h % _P)


def _ref_edwards_double(p: tuple) -> tuple:
    x1, y1, z1, _ = p
    a = x1 * x1 % _P
    b = y1 * y1 % _P
    c = 2 * z1 * z1 % _P
    h = (a + b) % _P
    e = (h - (x1 + y1) * (x1 + y1)) % _P
    g = (a - b) % _P
    f = (c + g) % _P
    return (e * f % _P, g * h % _P, f * g % _P, e * h % _P)


def _ref_scalar_mult(p: tuple, s: int) -> tuple:
    q = (0, 1, 1, 0)  # neutral element
    while s > 0:
        if s & 1:
            q = _ref_edwards_add(q, p)
        p = _ref_edwards_double(p)
        s >>= 1
    return q


def _ref_sign(secret: bytes, message: bytes) -> bytes:
    h = hashlib.sha512(secret).digest()
    a = ed25519._clamp(h[:32])
    public = ed25519._compress(_ref_scalar_mult(ed25519._B, a))
    r = int.from_bytes(hashlib.sha512(h[32:] + message).digest(), "little") % _L
    r_point = ed25519._compress(_ref_scalar_mult(ed25519._B, r))
    k = int.from_bytes(hashlib.sha512(r_point + public + message).digest(), "little") % _L
    s = (r + k * a) % _L
    return r_point + s.to_bytes(32, "little")


def _ref_verify(public: bytes, message: bytes, signature: bytes) -> bool:
    try:
        a_point = ed25519._decompress(public)
        r_point = ed25519._decompress(signature[:32])
    except ed25519.SignatureError:
        return False
    s = int.from_bytes(signature[32:], "little")
    if s >= _L:
        return False
    k = int.from_bytes(hashlib.sha512(signature[:32] + public + message).digest(),
                       "little") % _L
    lhs = _ref_scalar_mult(ed25519._B, s)
    rhs = _ref_edwards_add(r_point, _ref_scalar_mult(a_point, k))
    x1, y1, z1, _ = lhs
    x2, y2, z2, _ = rhs
    return (x1 * z2 - x2 * z1) % _P == 0 and (y1 * z2 - y2 * z1) % _P == 0


# -- workloads ---------------------------------------------------------------


def _bus_reference(n_frames: int = N_FRAMES) -> _ReferenceBus:
    sim = Simulator()
    bus = _ReferenceBus(sim)
    bus.attach(BusNode("sender"))
    bus.attach(BusNode("receiver"))
    frame = CanFrame(0x100, b"\x11" * 8)
    for _ in range(n_frames):
        bus.send("sender", frame)
    sim.run()
    return bus

def _bus_scalar(n_frames: int = N_FRAMES) -> CanBus:
    sim = Simulator()
    bus = CanBus(sim)
    bus.attach(BusNode("sender"))
    bus.attach(BusNode("receiver"))
    frame = CanFrame(0x100, b"\x11" * 8)
    for _ in range(n_frames):
        bus.send("sender", frame)
    sim.run()
    return bus


def _bus_batched(n_frames: int = N_FRAMES) -> CanBus:
    sim = Simulator()
    bus = CanBus(sim)
    bus.attach(BusNode("sender"))
    bus.attach(BusNode("receiver"))
    frame = CanFrame(0x100, b"\x11" * 8)
    bus.send_batch("sender", [frame] * n_frames)
    bus.run_batch()
    return bus


def _best_of(fn, repeats: int = 5) -> float:
    """Minimum wall time over ``repeats`` runs (noise-robust)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _paired_best_of(reference, fast, repeats: int = 7) -> tuple[float, float]:
    """Minimum wall time of each of two kernels, runs alternating, so a
    noisy stretch of the host hits both sides alike."""
    best_reference = best_fast = float("inf")
    for _ in range(repeats):
        best_reference = min(best_reference, _best_of(reference, repeats=1))
        best_fast = min(best_fast, _best_of(fast, repeats=1))
    return best_reference, best_fast


def _mixed_burst(seed: int, n: int) -> list:
    rng = np.random.default_rng(seed)
    frames: list = []
    for _ in range(n):
        kind = int(rng.integers(0, 3))
        can_id = int(rng.integers(0, 0x7FF))
        if kind == 0:
            frames.append(CanFrame(can_id, bytes(8)))
        elif kind == 1:
            frames.append(CanFdFrame(can_id, bytes(32)))
        else:
            frames.append(CanXlFrame(can_id, bytes(64)))
    return frames


def _record_tuple(record: DeliveryRecord) -> tuple:
    return (record.sender, record.frame, record.enqueued_at,
            record.started_at, record.completed_at)


def _export(registry: MetricsRegistry) -> Path:
    path = _REPO_ROOT / "BENCH_KERNELS.json"
    path.write_text(json.dumps(registry.to_json_dict(), indent=2) + "\n")
    return path


def _record(gauges: dict[str, float]) -> None:
    """Merge ``gauges`` into ``BENCH_KERNELS.json``."""
    path = _REPO_ROOT / "BENCH_KERNELS.json"
    document = (json.loads(path.read_text()) if path.exists()
                else {"counters": {}, "gauges": {}, "histograms": {}})
    document["gauges"].update(gauges)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


# -- benches -----------------------------------------------------------------


def test_batched_bus_is_10x_reference_kernel(show):
    """The acceptance gate: ≥10× frames/s over the reference kernel —
    and the speedup only counts because the outputs are byte-identical
    (the equivalence oracle below and tests/test_ivn_bus_batch.py)."""
    # Warm the per-shape frame-time memo so the scalar/batched numbers
    # measure steady-state, not first-call cache fills.
    _bus_batched(8)

    reference_s = _best_of(_bus_reference) / N_FRAMES
    scalar_s = _best_of(_bus_scalar) / N_FRAMES
    batched_s = _best_of(_bus_batched) / N_FRAMES

    vs_reference = reference_s / batched_s
    vs_scalar = scalar_s / batched_s
    scalar_vs_reference = reference_s / scalar_s

    registry = MetricsRegistry()
    registry.gauge("bench.kernels.bus.us_per_frame_reference").set(reference_s * 1e6)
    registry.gauge("bench.kernels.bus.us_per_frame_scalar").set(scalar_s * 1e6)
    registry.gauge("bench.kernels.bus.us_per_frame_batched").set(batched_s * 1e6)
    registry.gauge("bench.kernels.bus.frames_per_s_batched").set(1.0 / batched_s)
    registry.gauge("bench.kernels.bus.batched_speedup_vs_reference").set(vs_reference)
    registry.gauge("bench.kernels.bus.batched_speedup_vs_scalar").set(vs_scalar)
    registry.gauge("bench.kernels.bus.scalar_speedup_vs_reference").set(scalar_vs_reference)
    path = _export(registry)

    show(f"BENCH-KERNELS — CAN transport, {N_FRAMES}-frame saturated burst",
         [("reference (list + O(n) scan)", f"{reference_s * 1e6:8.2f}", "1.00x"),
          ("scalar event loop (heap + memo)", f"{scalar_s * 1e6:8.2f}",
           f"{scalar_vs_reference:5.2f}x"),
          ("batched (closed-form burst)", f"{batched_s * 1e6:8.2f}",
           f"{vs_reference:5.2f}x")],
         header=("kernel", "us/frame", "speedup"))
    assert vs_reference >= MIN_BATCHED_SPEEDUP, (
        f"batched path is only {vs_reference:.1f}x the reference kernel "
        f"({batched_s * 1e6:.2f} vs {reference_s * 1e6:.2f} us/frame); "
        f"the gate requires >= {MIN_BATCHED_SPEEDUP:.0f}x")
    assert path.exists()


def test_batched_bus_outputs_are_byte_identical(show):
    """The in-bench oracle: all three kernels agree record-for-record on
    a seeded mixed burst (classic/FD/XL, random ids)."""
    frames = _mixed_burst(seed=2026, n=250)

    sim_r = Simulator()
    reference = _ReferenceBus(sim_r)
    reference.attach(BusNode("sender"))
    reference.attach(BusNode("receiver"))
    for frame in frames:
        reference.send("sender", frame)
    sim_r.run()

    sim_s = Simulator()
    scalar = CanBus(sim_s)
    scalar.attach(BusNode("sender"))
    scalar.attach(BusNode("receiver"))
    for frame in frames:
        scalar.send("sender", frame)
    sim_s.run()

    sim_b = Simulator()
    batched = CanBus(sim_b)
    batched.attach(BusNode("sender"))
    batched.attach(BusNode("receiver"))
    batched.send_batch("sender", frames)
    batched.run_batch()

    rows_r = [_record_tuple(r) for r in reference.delivered]
    rows_s = [_record_tuple(r) for r in scalar.delivered]
    rows_b = [_record_tuple(r) for r in batched.delivered]
    show("BENCH-KERNELS — equivalence oracle (250-frame mixed burst)",
         [("reference == scalar", rows_r == rows_s),
          ("scalar == batched", rows_s == rows_b),
          ("final clock agrees", sim_r.now == sim_s.now == sim_b.now)],
         header=("invariant", "holds"))
    assert rows_r == rows_s == rows_b
    assert sim_r.now == sim_s.now == sim_b.now


def test_vectorized_pulse_train_matches_placement_loop(show):
    """Scatter-add synthesis vs the sequential loop: equal arrays, and
    the measured speedup is reported (not gated — numpy dispatch
    constants dominate at small symbol counts)."""
    rng = np.random.default_rng(7)
    symbols = rng.choice([-1.0, 1.0], size=N_SYMBOLS)
    template = pulse_template(HRP_CONFIG)
    spp = HRP_CONFIG.samples_per_pri

    def loop_train() -> np.ndarray:
        signal = np.zeros((N_SYMBOLS - 1) * spp + template.size)
        for k in range(N_SYMBOLS):
            start = k * spp
            signal[start:start + template.size] += symbols[k] * template
        return signal

    vectorized = build_pulse_train(symbols, HRP_CONFIG)
    looped = loop_train()
    assert np.array_equal(vectorized, looped)

    loop_s = _best_of(loop_train) / N_SYMBOLS
    vec_s = _best_of(lambda: build_pulse_train(symbols, HRP_CONFIG)) / N_SYMBOLS
    speedup = loop_s / vec_s

    _record({"bench.kernels.phy.ns_per_symbol_loop": loop_s * 1e9,
             "bench.kernels.phy.ns_per_symbol_vectorized": vec_s * 1e9,
             "bench.kernels.phy.pulse_train_speedup": speedup})

    show(f"BENCH-KERNELS — pulse-train synthesis, {N_SYMBOLS} symbols",
         [("placement loop", f"{loop_s * 1e9:8.0f}", "1.00x"),
          ("scatter-add", f"{vec_s * 1e9:8.0f}", f"{speedup:5.2f}x")],
         header=("kernel", "ns/symbol", "speedup"))
    assert speedup > 1.0


def test_batched_twr_matches_scalar_loop(show):
    """``ds_twr_batch`` vs a scalar ``ds_twr`` loop: exact equality on
    every measured distance, plus the amortized per-exchange speedup."""
    distances = np.linspace(0.5, 80.0, N_RANGINGS)

    def scalar_loop() -> np.ndarray:
        return np.array([ds_twr(float(d), responder_drift_ppm=20.0)
                         .measured_distance_m for d in distances])

    batch = ds_twr_batch(distances, responder_drift_ppm=20.0)
    assert np.array_equal(batch.measured_distance_m, scalar_loop())

    scalar_s = _best_of(scalar_loop, repeats=3) / N_RANGINGS
    batch_s = _best_of(
        lambda: ds_twr_batch(distances, responder_drift_ppm=20.0),
        repeats=3) / N_RANGINGS
    speedup = scalar_s / batch_s

    _record({"bench.kernels.phy.ns_per_twr_scalar": scalar_s * 1e9,
             "bench.kernels.phy.ns_per_twr_batched": batch_s * 1e9,
             "bench.kernels.phy.twr_batch_speedup": speedup})

    show(f"BENCH-KERNELS — DS-TWR ranging, {N_RANGINGS} exchanges",
         [("scalar loop", f"{scalar_s * 1e9:8.0f}", "1.00x"),
          ("batched", f"{batch_s * 1e9:8.0f}", f"{speedup:5.2f}x")],
         header=("kernel", "ns/exchange", "speedup"))
    assert speedup > 2.0


def test_ttable_aes_matches_reference_and_is_faster(show):
    """T-table encryption: byte-identical to the round-by-round kernel on
    seeded keys of every size, and ≥ 2.5× its per-block speed."""
    rng = random.Random(197)
    mismatches = 0
    for key_len in (16, 24, 32):
        for _ in range(8):
            key = rng.randbytes(key_len)
            fast, reference = AES(key), _ReferenceAES(key)
            for _ in range(32):
                block = rng.randbytes(16)
                mismatches += fast.encrypt_block(block) != reference.encrypt_block(block)
    assert mismatches == 0

    key = rng.randbytes(16)
    blocks = [rng.randbytes(16) for _ in range(N_AES_BLOCKS)]
    fast, reference = AES(key), _ReferenceAES(key)
    reference_s, fast_s = _paired_best_of(
        lambda: [reference.encrypt_block(b) for b in blocks],
        lambda: [fast.encrypt_block(b) for b in blocks])
    reference_s /= N_AES_BLOCKS
    fast_s /= N_AES_BLOCKS
    speedup = reference_s / fast_s
    _record({"bench.kernels.aes.us_per_block_reference": reference_s * 1e6,
             "bench.kernels.aes.us_per_block_ttable": fast_s * 1e6,
             "bench.kernels.aes.block_speedup": speedup})

    show(f"BENCH-KERNELS — AES-128 block encryption, {N_AES_BLOCKS} blocks",
         [("round by round (reference)", f"{reference_s * 1e6:8.2f}", "1.00x"),
          ("T-table", f"{fast_s * 1e6:8.2f}", f"{speedup:5.2f}x"),
          ("oracle: 768 seeded blocks equal", mismatches == 0, "")],
         header=("kernel", "us/block", "speedup"))
    assert speedup >= MIN_AES_SPEEDUP, (
        f"T-table AES is only {speedup:.2f}x the reference "
        f"({fast_s * 1e6:.1f} vs {reference_s * 1e6:.1f} us/block); "
        f"the gate requires >= {MIN_AES_SPEEDUP}x")


def test_comb_ed25519_matches_reference_and_is_faster(show):
    """Comb sign and comb + window verify: byte-identical keys and
    signatures and equal verdicts vs the double-and-add ladder on seeded
    seeds and messages; sign ≥ 3× and verify ≥ 1.4× the ladder."""
    ed25519._comb_table.cache_clear()
    t0 = time.perf_counter()
    ed25519._comb_table()
    build_s = time.perf_counter() - t0

    rng = random.Random(8032)
    cases = [(rng.randbytes(32), rng.randbytes(rng.randrange(0, 120)))
             for _ in range(N_SIGNATURES)]
    for secret, message in cases:
        public = ed25519.generate_public_key(secret)
        signature = ed25519.sign(secret, message)
        assert public == ed25519._compress(_ref_scalar_mult(
            ed25519._B, ed25519._clamp(hashlib.sha512(secret).digest()[:32])))
        assert signature == _ref_sign(secret, message)
        tampered = bytes([signature[0] ^ 1]) + signature[1:]
        for msg, sig in ((message, signature), (message + b"!", signature),
                         (message, tampered)):
            assert ed25519.verify(public, msg, sig) == _ref_verify(public, msg, sig)
        assert ed25519.verify(public, message, signature)

    signed = [(ed25519.generate_public_key(secret), message, ed25519.sign(secret, message))
              for secret, message in cases]
    ref_sign_s, sign_s = _paired_best_of(
        lambda: [_ref_sign(secret, message) for secret, message in cases],
        lambda: [ed25519.sign(secret, message) for secret, message in cases],
        repeats=5)
    ref_verify_s, verify_s = _paired_best_of(
        lambda: [_ref_verify(*item) for item in signed],
        lambda: [ed25519.verify(*item) for item in signed],
        repeats=5)
    ref_sign_s, sign_s, ref_verify_s, verify_s = (
        t / N_SIGNATURES for t in (ref_sign_s, sign_s, ref_verify_s, verify_s))
    sign_speedup = ref_sign_s / sign_s
    verify_speedup = ref_verify_s / verify_s
    _record({"bench.kernels.ed25519.comb_build_ms": build_s * 1e3,
             "bench.kernels.ed25519.ms_per_sign_reference": ref_sign_s * 1e3,
             "bench.kernels.ed25519.ms_per_sign_comb": sign_s * 1e3,
             "bench.kernels.ed25519.sign_speedup": sign_speedup,
             "bench.kernels.ed25519.ms_per_verify_reference": ref_verify_s * 1e3,
             "bench.kernels.ed25519.ms_per_verify_comb": verify_s * 1e3,
             "bench.kernels.ed25519.verify_speedup": verify_speedup})

    show(f"BENCH-KERNELS — Ed25519, {N_SIGNATURES} seeded keys and messages",
         [("sign: double-and-add (reference)", f"{ref_sign_s * 1e3:7.2f}", "1.00x"),
          ("sign: fixed-base comb", f"{sign_s * 1e3:7.2f}", f"{sign_speedup:5.2f}x"),
          ("verify: double-and-add (reference)", f"{ref_verify_s * 1e3:7.2f}", "1.00x"),
          ("verify: comb + 4-bit window", f"{verify_s * 1e3:7.2f}",
           f"{verify_speedup:5.2f}x"),
          ("comb table build (once, on first use)", f"{build_s * 1e3:7.2f}", "")],
         header=("kernel", "ms/op", "speedup"))
    assert sign_speedup >= MIN_SIGN_SPEEDUP, (
        f"comb sign is only {sign_speedup:.2f}x the ladder; "
        f"the gate requires >= {MIN_SIGN_SPEEDUP}x")
    assert verify_speedup >= MIN_VERIFY_SPEEDUP, (
        f"comb + window verify is only {verify_speedup:.2f}x the ladder; "
        f"the gate requires >= {MIN_VERIFY_SPEEDUP}x")


def test_secured_frames_per_s(show):
    """The frames/s a receiver gets with the security layer on: SecOC
    secure (CMAC) + batched CAN transport + SecOC verify, per frame."""
    payloads = [i.to_bytes(4, "big") for i in range(N_SECURED_FRAMES)]
    trailer = (PROFILE_1.freshness_bits + 7) // 8 + PROFILE_1.mac_bits // 8

    def secured_burst() -> int:
        channel = SecOcChannel(b"bench-secoc-key!", PROFILE_1)
        frames = [CanFrame(0x100 + i % 16,
                           channel.secure(0x100 + i % 16, payload).wire_payload(PROFILE_1))
                  for i, payload in enumerate(payloads)]
        bus = CanBus(Simulator())
        bus.attach(BusNode("ecu"))
        receiver = bus.attach(BusNode("gateway"))
        bus.send_batch("ecu", frames)
        bus.run_batch()
        return sum(channel.verify(SecuredPdu(
            record.frame.can_id, record.frame.payload[:-trailer],
            record.frame.payload[-trailer], record.frame.payload[-trailer + 1:]))
            for record in receiver.received)

    assert secured_burst() == N_SECURED_FRAMES
    per_frame_s = _best_of(secured_burst) / N_SECURED_FRAMES
    _record({"bench.kernels.ivn.us_per_secured_frame": per_frame_s * 1e6,
             "bench.kernels.ivn.secured_frames_per_s": 1.0 / per_frame_s})
    show(f"BENCH-KERNELS — SecOC-secured CAN, {N_SECURED_FRAMES}-frame burst",
         [("secure + CAN + verify", f"{per_frame_s * 1e6:8.2f}",
           f"{1.0 / per_frame_s:10.0f}")],
         header=("path", "us/frame", "frames/s"))
