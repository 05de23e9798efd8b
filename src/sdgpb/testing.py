"""Deterministic scripted backend for offline runs and fixture building.

Produces plausible, schema-valid stage responses as a pure function of the
request's record key, so recording it once and replaying forever yields
identical corpora. Category and direction frequencies roughly follow the
distribution seen in large climate corpora so that downstream statistics
exercise every bucket.
"""

from __future__ import annotations

import hashlib
import json
import random
import re

from .gateway import PromptRequest, record_key

_BODY_BLOCK = re.compile(
    r"=== ARTICLE TEXT ===\n(.*)\n=== END ARTICLE TEXT ===", re.DOTALL
)
_PAIR_CATEGORY = re.compile(
    r"- SDG (\d+) \(.*?\) and PB (\d+) \(.*?\): currently classified as (synergy|trade-off)"
)

_CATEGORIES = ["synergy", "trade-off", "neutral"]
_CATEGORY_WEIGHTS = [0.35, 0.45, 0.20]
_SYNERGY_LABELS = ["Actual Synergy", "Misled by Positivity", "Generality"]
_SYNERGY_WEIGHTS = [0.55, 0.25, 0.20]
_TRADEOFF_LABELS = ["Actual Trade-off", "Double Negative (Co-Degradation)", "Generic Negative Association"]
_TRADEOFF_WEIGHTS = [0.45, 0.35, 0.20]


class ScriptedBackend:
    """Offline backend; same request always gets the same reply."""

    live = False
    backend_id = "scripted"

    def __init__(self, seed: int = 0):
        self.seed = seed

    def _rng(self, req: PromptRequest) -> random.Random:
        h = hashlib.sha256(str(self.seed).encode() + record_key(req))
        return random.Random(int.from_bytes(h.digest()[:8], "big"))

    def send(self, req: PromptRequest) -> str:
        rng = self._rng(req)
        if req.stage == 1:
            k = 0 if rng.random() < 0.08 else rng.randint(1, 4)
            return json.dumps({"sdgs": sorted(rng.sample(range(1, 18), k))})
        if req.stage == 2:
            k = 0 if rng.random() < 0.08 else rng.randint(1, 3)
            return json.dumps({"pbs": sorted(rng.sample(range(1, 10), k))})

        # the template's PAIRS line comes before the article text
        start = req.user_text.index("\nPAIRS: ") + len("\nPAIRS: ")
        end = req.user_text.index("\n", start)
        pairs = [tuple(p) for p in json.loads(req.user_text[start:end])]

        if req.stage == 3:
            body = _BODY_BLOCK.search(req.user_text).group(1)
            sentences = [s for s in (piece.strip() for piece in body.split(".")) if len(s) > 20]
            verdicts = []
            for s, p in pairs:
                category = rng.choices(_CATEGORIES, weights=_CATEGORY_WEIGHTS)[0]
                if category == "neutral" or not sentences:
                    verdicts.append(
                        {"sdg": s, "pb": p, "category": "neutral",
                         "justification": "", "evidence_quote": ""}
                    )
                    continue
                quote = rng.choice(sentences)
                verdicts.append(
                    {
                        "sdg": s,
                        "pb": p,
                        "category": category,
                        "justification": (
                            f"The article reports measurable outcomes linking "
                            f"SDG {s} and PB {p}."
                        ),
                        "evidence_quote": quote,
                    }
                )
            return json.dumps({"verdicts": verdicts})

        if req.stage == 4:
            directions = [
                {"sdg": s, "pb": p,
                 "direction": "pb_to_sdg" if rng.random() < 0.7 else "sdg_to_pb"}
                for s, p in pairs
            ]
            return json.dumps({"directions": directions})

        if req.stage == 5:
            categories = {
                (int(m[0]), int(m[1])): m[2]
                for m in _PAIR_CATEGORY.findall(req.user_text)
            }
            refinements = []
            for s, p in pairs:
                if categories.get((s, p)) == "synergy":
                    label = rng.choices(_SYNERGY_LABELS, weights=_SYNERGY_WEIGHTS)[0]
                else:
                    label = rng.choices(_TRADEOFF_LABELS, weights=_TRADEOFF_WEIGHTS)[0]
                refinements.append({"sdg": s, "pb": p, "label": label})
            return json.dumps({"refinements": refinements})

        raise ValueError(f"unexpected stage {req.stage}")
