"""Seeded inputs for the two benchmark workloads.

Every input is built from the workload name, the seed and the bundled demo
corpus ``src/bridgeref/data/demo.adc``; the same pair always gives
byte-identical files.  Nothing here imports bridgeref: the demo corpus is
read as text, so the generator stays independent of the code it feeds.

Regenerate the inputs of one workload without running anything::

    python3 bench/workloads.py --workload long_doc --seed 1 --out /tmp/long_doc
"""
from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

WORKLOADS = ("long_doc", "many_short")

# Sizes of the full runs, and of the quick mode that runs every workload small.
SIZES = {
    "long_doc": {"copies": 32},                 # 32 x 47 = 1,504 phrases
    "many_short": {"copies": 500},              # 3,000 documents
}
QUICK_SIZES = {
    "long_doc": {"copies": 4},
    "many_short": {"copies": 20},
}


# ---------------------------------------------------------------------------
# ADC text helpers
# ---------------------------------------------------------------------------

def read_demo_documents(path: Path) -> list[tuple[str, list[list[list[str]]]]]:
    """Demo documents as (doc_id, sentences), each sentence a list of field lists."""
    documents = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith("%"):
            continue
        if line.startswith("#DOC"):
            documents.append((line.split(None, 1)[1].strip(), []))
        elif line.startswith("#SENT"):
            documents[-1][1].append([])
        else:
            documents[-1][1][-1].append(line.split("\t"))
    return documents


def _shift_gold(gold: str, offset: int) -> str:
    if gold == "-":
        return gold
    items = []
    for item in gold.split(","):
        label, sep, target = item.partition(":")
        if sep and target != "NONE":
            item = f"{label}:{int(target) + offset}"
        items.append(item)
    return ",".join(items)


def _shifted(fields: list[str], offset: int) -> list[str]:
    out = list(fields)
    out[0] = str(int(fields[0]) + offset)
    if fields[6] != "-":
        out[6] = str(int(fields[6]) + offset)
    out[10] = _shift_gold(fields[10], offset)
    return out


def format_document(doc_id: str, sentences: list[list[list[str]]]) -> str:
    lines = [f"#DOC {doc_id}"]
    for index, sentence in enumerate(sentences):
        lines.append(f"#SENT {index}")
        lines.extend("\t".join(fields) for fields in sentence)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

# Seed-independent documents added to many_short: their tables read back
# wrongly every time, because of the label fault in
# explain.render_score_table / parse_total_row.  Phrase 5 (yane) scores ie#3 but the bare "ie" label
# reads back as phrase 1; yane in document "empty" (definite, nothing
# before it) has no candidates and renders no header row.
READBACK_FAULT_DOC = """\
#DOC readback
#SENT 0
1\tie\tie\tnoun\tcommon\t-\t2\t-\t15410\t-\t-
2\tmita.\tmiru\tverb\t-\t-\t-\t-\t-\t-\t-
#SENT 1
3\tie\tie\tnoun\tcommon\twa\t4\tsubject_main\t15410\t-\t-
4\tatta.\taru\tverb\t-\t-\t-\t-\t-\t-\t-
#SENT 2
5\tyane\tyane\tnoun\tcommon\tga\t6\tsubject_main\t15414\tindefinite\trel=part:3
6\tmieta.\tmieru\tverb\t-\t-\t-\t-\t-\t-\t-
#DOC empty
#SENT 0
1\tyane\tyane\tnoun\tcommon\tga\t2\tsubject_main\t15414\tdefinite\trel=NONE
2\tmieta.\tmieru\tverb\t-\t-\t-\t-\t-\t-\t-
"""
READBACK_FAULT_DOCS = ["readback", "empty"]     # one target each


def build(workload: str, seed: int, checkout: Path, out: Path,
          quick: bool = False) -> dict:
    """Write the workload's inputs into ``out`` and return its spec."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    size = (QUICK_SIZES if quick else SIZES)[workload]
    rng = random.Random(f"{workload}:{seed}")
    out.mkdir(parents=True, exist_ok=True)
    data = checkout / "src" / "bridgeref" / "data"
    demo = read_demo_documents(data / "demo.adc")
    spec = {"workload": workload, "seed": seed, "corpus": str(out / "corpus.adc"),
            "lexicons": str(data / "lexicons"), "cli": [], "quick": quick}

    if workload == "long_doc":
        # The demo set concatenated and renumbered; each copy in a seeded order.
        sentences = []
        offset = 0
        for _ in range(size["copies"]):
            for _, doc_sentences in rng.sample(demo, len(demo)):
                for sentence in doc_sentences:
                    sentences.append([_shifted(f, offset) for f in sentence])
                offset += sum(len(s) for s in doc_sentences)
        text = format_document("long", sentences)
        spec["cli"] = [["resolve"]]
    else:  # many_short
        # Renamed copies of the demo documents, in a seeded order, after the
        # two fixed read-back fault documents.
        docs = [(f"{name}.{k:04d}", body) for k in range(size["copies"])
                for name, body in demo]
        rng.shuffle(docs)
        text = READBACK_FAULT_DOC + "".join(format_document(doc_id, body)
                                            for doc_id, body in docs)
        spec["cli"] = [["resolve"], ["eval"]]
        spec["readback_fault_docs"] = READBACK_FAULT_DOCS
    (out / "corpus.adc").write_text(text, encoding="utf-8")
    (out / "spec.json").write_text(json.dumps(spec, indent=1) + "\n", encoding="utf-8")
    return spec


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--checkout", default=".",
                        help="repository root holding src/bridgeref (default: .)")
    args = parser.parse_args()
    spec = build(args.workload, args.seed, Path(args.checkout).resolve(),
                 Path(args.out).resolve(), args.quick)
    print(json.dumps(spec, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
