"""Seeded request generators, one per workload.

Each generator is an endless iterator of plain request descriptions
drawn from ``random.Random`` seeded with ``"<workload>/<seed>"`` (string
seeds hash with SHA-512, so the stream is independent of
``PYTHONHASHSEED``).  The program only ever sees the generated inputs.

Draws that change a request's cost a lot are stratified rather than
independent, so that every run holds the same mix whatever its seed:
``cli-cold`` visits the five tools in a shuffled cycle, and
``vehicle-stack`` visits the five sentinel scenarios in a shuffled cycle.
"""

from __future__ import annotations

import random
from collections.abc import Iterator

from perfbench.oracle import BASE_SEEDS, PLAN_TOOLS, PLANS, SCENARIOS, TOOLS

#: The Fig. 8 kill chain's mitigations, in the order of the first stage
#: each one blocks.
MITIGATIONS = ("rate-limit-enumeration", "disable-debug-endpoints",
               "scrub-secrets-from-memory", "least-privilege-keys",
               "encrypt-at-rest-per-user")
PKES_POLICIES = ("uwb-hrp", "lf-rssi")
#: SecOC burst shape per vehicle session.
SECOC_FRAMES = 48
SECOC_PDU_IDS = (0x101, 0x1A0, 0x244, 0x3C2)


def cli_cold(seed: int) -> Iterator[tuple[str, str, str, int]]:
    """``(tool, scenario, plan, base_seed)`` cells, tools in shuffled cycles."""
    rng = random.Random(f"cli-cold/{seed}")
    while True:
        tools = list(TOOLS)
        rng.shuffle(tools)
        for tool in tools:
            scenario = rng.choice(SCENARIOS)
            if tool in PLAN_TOOLS:
                yield (tool, scenario, rng.choice(PLANS),
                       rng.choice(BASE_SEEDS))
            else:
                yield (tool, scenario, "", 0)


def campaign_sweep(seed: int) -> Iterator[dict]:
    """One campaign cycle per item: the matrix's two shard seeds."""
    rng = random.Random(f"campaign-sweep/{seed}")
    while True:
        yield {"seeds": sorted(rng.sample(BASE_SEEDS, 2))}


def vehicle_stack(seed: int) -> Iterator[dict]:
    """One vehicle session per item (see ``vehicle_stack.py``)."""
    rng = random.Random(f"vehicle-stack/{seed}")
    session = 0
    while True:
        scenarios = list(SCENARIOS)
        rng.shuffle(scenarios)
        for scenario in scenarios:
            frames = list(range(SECOC_FRAMES))
            attacked = rng.sample(frames, 8)
            yield {
                "session": session,
                "pkes": {
                    "policy": rng.choice(PKES_POLICIES),
                    "relay": rng.random() < 0.5,
                    # one fob inside the 2 m unlock range, one far away
                    "distances": [round(rng.uniform(0.2, 1.5), 3),
                                  round(rng.uniform(5.0, 40.0), 3)],
                },
                "secoc": {
                    "pdu_ids": [rng.choice(SECOC_PDU_IDS) for _ in frames],
                    "payloads": [rng.getrandbits(32) for _ in frames],
                    "forged": sorted(attacked[:4]),
                    "replayed": sorted(attacked[4:]),
                },
                "vc": {"kind": rng.choice(("genuine", "genuine", "revoked",
                                           "forged")),
                       "claim": rng.getrandbits(24)},
                "killchain": {"mitigations": sorted(
                    rng.sample(MITIGATIONS, rng.randint(0, 2)))},
                "sentinel": {"scenario": scenario, "plan": rng.choice(PLANS),
                             "seed": rng.choice(BASE_SEEDS)},
            }
            session += 1


GENERATORS = {"cli-cold": cli_cold, "campaign-sweep": campaign_sweep,
              "vehicle-stack": vehicle_stack}
