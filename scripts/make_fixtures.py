#!/usr/bin/env python3
"""Regenerate the bundled fixture corpus, recorded LLM cache, and goldens.

Run from the repository root:

    python3 scripts/make_fixtures.py

Produces fixtures/corpus/*.tei.xml, fixtures/manifest.jsonl,
fixtures/llm_cache/cache.jsonl, and fixtures/golden/*. Everything is
deterministic given the seeds below, so re-running must be a no-op unless
prompts or the scripted backend change.
"""

from __future__ import annotations

import random
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sdgpb import corpus, store
from sdgpb.gateway import CACHE_FILE, CACHE_SUBDIR

N_DOCS = 32
CORPUS_SEED = 20240501
BACKEND_SEED = 0

TOPICS = [
    "irrigation efficiency programs in semi-arid farmland",
    "coral reef monitoring under rising surface temperatures",
    "biofuel feedstock expansion on former pastureland",
    "urban heat mitigation through street tree planting",
    "fertilizer runoff controls in river catchments",
    "community fisheries management in coastal lagoons",
    "reforestation incentives for smallholder farmers",
    "industrial decarbonization in cement production",
    "groundwater recharge schemes for drinking water supply",
    "protected area expansion and pastoral livelihoods",
    "renewable electrification of rural health clinics",
    "sustainable tourism certification in mountain regions",
]

SENTENCE_POOL = [
    "Field measurements over three growing seasons showed a {pct} percent change in soil organic carbon across the treatment plots.",
    "The intervention reduced household water consumption by {pct} percent while crop yields remained stable.",
    "Satellite imagery documented the conversion of {pct} square kilometres of woodland to cropland during the study period.",
    "Policy enforcement after 2018 coincided with a measurable decline of {pct} percent in nutrient loading downstream.",
    "Survey respondents in {n} villages reported improved access to clean energy following the subsidy program.",
    "Acidification proxies in sediment cores indicate a steady pH decline of {pct} hundredths per decade at the sampling sites.",
    "The certification scheme covered {n} producers and reduced reported agrochemical use by {pct} percent.",
    "Model projections suggest that continued expansion would breach regional land-use thresholds within {n} years.",
    "Employment in the restoration program rose to {n} full-time positions, concentrated among smallholder households.",
    "Monitoring buoys recorded {n} marine heatwave days per year, twice the baseline frequency.",
    "The levy funded {n} kilometres of riparian buffer strips, with documented reductions in sediment transport.",
    "Interviews revealed that {n} percent of displaced herders received compensation under the new land statute.",
]

TEI_TEMPLATE = """<?xml version="1.0" encoding="UTF-8"?>
<TEI xmlns="http://www.tei-c.org/ns/1.0">
 <teiHeader>
  <fileDesc>
   <titleStmt><title>{title}</title></titleStmt>
  </fileDesc>
 </teiHeader>
 <text>
  <body>
   <div type="introduction"><head>Introduction</head><p>{intro}</p></div>
   <div><head>Results</head><p>{results}</p></div>
   <figure><head>Figure 1</head><figDesc>SENTINEL_FIGURE_{i:03d} stacked bars of observed changes.</figDesc></figure>
   <div><head>Discussion</head><p>{discussion}</p></div>
   <div type="acknowledgement"><head>Acknowledgements</head><p>SENTINEL_ACK_{i:03d} The authors thank the field teams and funding agencies.</p></div>
  </body>
  <back>
   <div type="references"><listBibl><bibl>SENTINEL_BIB_{i:03d} Placeholder citation list.</bibl></listBibl></div>
  </back>
 </text>
</TEI>
"""


def make_sentence(rng: random.Random) -> str:
    return rng.choice(SENTENCE_POOL).format(pct=rng.randint(3, 60), n=rng.randint(4, 240))


def make_corpus(fixtures: Path) -> None:
    rng = random.Random(CORPUS_SEED)
    corpus_dir = fixtures / "corpus"
    corpus_dir.mkdir(parents=True, exist_ok=True)
    manifest = []
    for i in range(N_DOCS):
        topic = TOPICS[i % len(TOPICS)]
        title = f"A field study of {topic} (case {i:03d})"
        intro = " ".join(make_sentence(rng) for _ in range(rng.randint(3, 5)))
        results = " ".join(make_sentence(rng) for _ in range(rng.randint(4, 7)))
        discussion = " ".join(make_sentence(rng) for _ in range(rng.randint(3, 5)))
        xml = TEI_TEMPLATE.format(title=title, intro=intro, results=results,
                                  discussion=discussion, i=i)
        (corpus_dir / f"doc-{i:03d}.tei.xml").write_text(xml, "utf-8")
        manifest.append(corpus.WorkRecord(f"doc-{i:03d}", title, 2020 + (i % 5)))
    store.write(fixtures / "manifest.jsonl", (rec.to_json() for rec in manifest))


def record_and_golden(fixtures: Path) -> None:
    """Records the scripted backend's replies and writes the goldens through
    the chain `sdgpb validate-fixtures` checks them with: run, aggregate,
    report."""
    # imported here, not at the top: bench/corpusgen.py loads this module for
    # its corpus tables, and the benchmark's memory should not count click
    from sdgpb import cli
    from sdgpb.config import RunConfig

    with tempfile.TemporaryDirectory() as tmp:
        cfg = RunConfig(corpus_dir=str(fixtures / "corpus"), run_dir=str(Path(tmp) / "run"),
                        report_dir=str(Path(tmp) / "report"), backend="record",
                        scripted_seed=BACKEND_SEED)
        cli._run_and_report(cfg)
        cli._aggregate(cfg)
        cli._report(cfg)
        copies = {path: fixtures / "golden" / name for name, path in cli._outputs(cfg).items()}
        cache = Path(CACHE_SUBDIR) / CACHE_FILE
        copies[Path(cfg.run_dir) / cache] = fixtures / cache
        for source, target in copies.items():
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(source, target)
    print(f"cache and goldens written to {fixtures}")


def main() -> None:
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    make_corpus(fixtures)
    record_and_golden(fixtures)


if __name__ == "__main__":
    main()
