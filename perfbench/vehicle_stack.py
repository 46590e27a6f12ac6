"""``vehicle-stack``: seeded vehicle sessions through the runtime simulators.

One request is one session, run in-process through public APIs:

1. **phy** — DS-TWR ranging of two fobs (``ds_twr_batch``) and a PKES
   unlock decision for both (``PkesSystem.try_unlock_batch``), sometimes
   through a relay.  Known verdict: a ToF policy never opens for a
   relayed or far fob; the legacy LF/RSSI policy opens for any relayed
   fob (the attack the paper starts from).
2. **ivn** — a burst of SecOC-secured PDUs (``SecOcChannel.secure``) over
   one CAN segment (``CanBus.send_batch``/``run_batch``), verified at the
   receiver (``SecOcChannel.verify``); some frames are forged in flight
   and some are replayed in a second burst.  Known verdict: genuine
   frames verify, forged and replayed ones are rejected.
3. **ssi** — a credential issued (``Wallet.issue``) and verified
   (``VerifiableCredential.verify``); some are revoked or forged.
   Known verdict: ``ok``, ``revoked`` and ``bad signature``.
4. **datalayer** — the Fig. 8 kill chain (``KillChain(cariad_stages())``)
   against a fresh backend with a seeded set of mitigations.  Known
   verdict: the chain stops at the first stage a mitigation blocks.
5. **sentinel** — one ``run_sentinel_scenario`` window, checked against
   the reference table.
"""

from __future__ import annotations

import sys
from dataclasses import replace

from perfbench.common import Tracer, no_span, peak_rss_mb
from perfbench.oracle import DURATION, SHARD_VERDICT, reference_key

#: Index of the first kill-chain stage each mitigation blocks (stage
#: order: traffic analysis, directory enumeration, supply-chain id, heap
#: dump, key extraction, data extraction).
BLOCKED_AT = {"rate-limit-enumeration": 1, "disable-debug-endpoints": 2,
              "scrub-secrets-from-memory": 4, "least-privilege-keys": 5,
              "encrypt-at-rest-per-user": 5}
CHAIN_STAGES = 6
UNLOCK_RANGE_M = 2.0
ISSUED_AT = 1_700_000_000.0


class VehicleStack:
    name = "vehicle-stack"
    unit = "sessions"

    def __init__(self, reference: dict) -> None:
        self.reference = reference

    def setup(self, tracer: Tracer | None) -> None:
        span = tracer.span if tracer is not None else no_span
        with span("import"):
            import repro.core.events
            import repro.datalayer.breach
            import repro.datalayer.killchain
            import repro.faults
            import repro.ivn.bus
            import repro.ivn.frames
            import repro.ivn.secoc
            import repro.phy.attacks
            import repro.phy.pkes
            import repro.phy.ranging
            import repro.sentinel
            import repro.ssi.registry
            import repro.ssi.wallet
        self.repro = repro
        self.modules_loaded = len(sys.modules)
        with span("ssi.setup"):
            self.registry = repro.ssi.registry.VerifiableDataRegistry()
            self.issuer = repro.ssi.wallet.Wallet.create("perfbench-cpo",
                                                         self.registry)
            self.holder = repro.ssi.wallet.Wallet.create("perfbench-vehicle",
                                                         self.registry)
        self.frames_verified = 0
        self.macs_rejected = 0
        self.stages_run = 0

    def warmup_requests(self, requests) -> list:
        """Two sentinel-scenario cycles, discarded before timing starts."""
        return [next(requests) for _ in range(10)]

    # -- one session ----------------------------------------------------------

    def request(self, session: dict, tracer: Tracer | None
                ) -> tuple[str | None, int]:
        span = tracer.span if tracer is not None else no_span
        checks = (self._phy, self._ivn, self._ssi, self._datalayer,
                  self._sentinel)
        for check in checks:
            error = check(session, span)
            if error is not None:
                return f"session {session['session']}: {error}", 1
        return None, 1

    def _phy(self, session: dict, span) -> str | None:
        phy, request = self.repro.phy, session["pkes"]
        distances = request["distances"]
        with span("phy.ds_twr_batch"):
            ranged = phy.ranging.ds_twr_batch(distances)
        if any(abs(m - d) > 0.05 for m, d in
               zip(ranged.measured_distance_m.tolist(), distances)):
            return "DS-TWR ranging is off by more than 5 cm"
        system = phy.pkes.PkesSystem(policy=request["policy"],
                                     unlock_range_m=UNLOCK_RANGE_M)
        relay = phy.attacks.RelayAttack() if request["relay"] else None
        with span("phy.pkes_unlock"):
            attempts = system.try_unlock_batch(distances, relay=relay)
        for attempt in attempts:
            if relay is not None:
                expected = request["policy"] == "lf-rssi"
            else:
                expected = attempt.true_fob_distance_m <= UNLOCK_RANGE_M
            if attempt.unlocked != expected:
                return (f"PKES {request['policy']} relay={request['relay']} "
                        f"fob at {attempt.true_fob_distance_m} m: unlocked="
                        f"{attempt.unlocked}")
        return None

    def _ivn(self, session: dict, span) -> str | None:
        repro, request = self.repro, session["secoc"]
        ivn = repro.ivn
        profile = ivn.secoc.PROFILE_1
        channel = ivn.secoc.SecOcChannel(b"perfbench-secoc!", profile)
        with span("ivn.secoc_secure", items=len(request["pdu_ids"])):
            pdus = [channel.secure(pdu_id, payload.to_bytes(4, "big"))
                    for pdu_id, payload in zip(request["pdu_ids"],
                                               request["payloads"])]
        forged = set(request["forged"])
        frames = []
        for index, pdu in enumerate(pdus):
            wire = pdu.wire_payload(profile)
            if index in forged:
                wire = bytes([wire[0] ^ 0x01]) + wire[1:]
            frames.append(ivn.frames.CanFrame(pdu.pdu_id, wire))
        expected = {id(frame): index not in forged
                    for index, frame in enumerate(frames)}
        replays = [frames[index] for index in request["replayed"]]

        bus = ivn.bus.CanBus(repro.core.events.Simulator())
        bus.attach(ivn.bus.BusNode("ecu"))
        receiver = bus.attach(ivn.bus.BusNode("gateway"))
        trailer = (profile.freshness_bits + 7) // 8 + profile.mac_bits // 8
        for burst, accept in ((frames, None), (replays, False)):
            with span("ivn.can_transport", items=len(burst)):
                bus.send_batch("ecu", burst)
                delivered = bus.run_batch()
            if delivered != len(burst):
                return f"CAN bus delivered {delivered} of {len(burst)} frames"
            records = receiver.received[-delivered:]
            with span("ivn.secoc_verify", items=len(records)):
                verdicts = [channel.verify(ivn.secoc.SecuredPdu(
                    record.frame.can_id, record.frame.payload[:-trailer],
                    record.frame.payload[-trailer],
                    record.frame.payload[-trailer + 1:]))
                    for record in records]
            for record, verified in zip(records, verdicts):
                want = expected[id(record.frame)] if accept is None else accept
                if verified != want:
                    return (f"SecOC frame {record.frame.can_id:#x} verified="
                            f"{verified}, expected {want}")
                if verified:
                    self.frames_verified += 1
                else:
                    self.macs_rejected += 1
        return None

    def _ssi(self, session: dict, span) -> str | None:
        request = session["vc"]
        claims = {"session": session["session"], "claim": request["claim"]}
        with span("ssi.vc_issue"):
            credential = self.issuer.issue(
                credential_type="ChargingContract", subject=self.holder.did,
                claims=claims, issued_at=ISSUED_AT)
        kind = request["kind"]
        if kind == "revoked":
            self.registry.revoke_credential(credential.credential_id,
                                            self.issuer.did)
        elif kind == "forged":
            credential = replace(credential, claims={
                **claims, "claim": request["claim"] ^ 1})
        with span("ssi.vc_verify"):
            result = credential.verify(self.registry, now=ISSUED_AT + 3600.0)
        want = {"genuine": "ok", "revoked": "revoked",
                "forged": "bad signature"}[kind]
        if result.reason != want or result.valid != (kind == "genuine"):
            return f"{kind} credential verified as {result.reason!r}"
        return None

    def _datalayer(self, session: dict, span) -> str | None:
        datalayer = self.repro.datalayer
        mitigations = session["killchain"]["mitigations"]
        with span("datalayer.build_service"):
            service, _records = datalayer.breach.build_cariad_service(
                n_vehicles=4, days=2)
        chain = datalayer.killchain.KillChain(
            datalayer.killchain.cariad_stages())
        with span("datalayer.killchain"):
            results = chain.run(service, mitigations=set(mitigations))
        self.stages_run += len(results)
        depth = chain.depth_reached(results)
        want = min((BLOCKED_AT[m] for m in mitigations), default=CHAIN_STAGES)
        if depth != want:
            return f"kill chain under {mitigations} reached {depth}, not {want}"
        return None

    def _sentinel(self, session: dict, span) -> str | None:
        repro, request = self.repro, session["sentinel"]
        plan = repro.faults.get_plan(request["plan"])
        with span("sentinel.run"):
            result = repro.sentinel.run_sentinel_scenario(
                request["scenario"], plan, base_seed=request["seed"],
                duration=DURATION)
        key = reference_key("sentinel", request["scenario"], request["plan"],
                            request["seed"])
        if SHARD_VERDICT["sentinel"](result) != self.reference[key]["verdict"]:
            return f"sentinel verdict for {key} differs from the reference"
        return None

    # -- metrics --------------------------------------------------------------

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def layer_metrics(self, tracer: Tracer) -> dict[str, float]:
        sentinel_ms = tracer.per_item_ms("sentinel.run")
        return {
            "phy.ds_twr_batch_us": tracer.per_item_ms("phy.ds_twr_batch") * 1e3,
            "phy.pkes_unlock_us": tracer.per_item_ms("phy.pkes_unlock") * 1e3,
            "ivn.secoc_secure_us": tracer.per_item_ms("ivn.secoc_secure") * 1e3,
            "ivn.secoc_verify_us": tracer.per_item_ms("ivn.secoc_verify") * 1e3,
            "ivn.can_frame_us": tracer.per_item_ms("ivn.can_transport") * 1e3,
            "ivn.frames_verified": self.frames_verified,
            "ivn.macs_rejected": self.macs_rejected,
            "ssi.vc_issue_ms": tracer.per_item_ms("ssi.vc_issue"),
            "ssi.vc_verify_ms": tracer.per_item_ms("ssi.vc_verify"),
            "datalayer.killchain_ms": tracer.per_item_ms("datalayer.killchain"),
            "datalayer.stages_run": self.stages_run,
            "sentinel.run_ms": sentinel_ms,
            "sentinel.tick_us": sentinel_ms * 1e3 / DURATION,
            "import.ms": tracer.per_item_ms("import"),
            "import.modules_loaded": self.modules_loaded,
        }
