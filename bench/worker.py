"""One measured round of a workload, in a fresh interpreter.

    python3 bench/worker.py SPEC OUT [check] [trace]

Set-up (``import bridgeref``, ``load_lexicons``, the default config and
``parse_corpus``) runs first, and the time at which it is done is written
out, so the parent can measure set-up from before this interpreter was
spawned.  Then one timed resolution pass resolves each document once.
Everything after the pass is untimed: the digest of all results that later
rounds must reproduce, the read-back of score tables, the operation counts,
and with ``check`` the comparisons against the independent oracle in
``tests/randgen.py`` and the benchmark's own counting.  With ``trace`` the
public functions of the package are wrapped (see tracing.py) and per-layer
figures are written out.
"""
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _setup(spec_path: str, tracer):
    import json
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    if tracer is not None:
        start = time.perf_counter()
        import bridgeref.cli  # noqa: F401  (the CLI's whole import chain)
        tracer.add_span("cli.import", start, time.perf_counter())
        tracer.install()
    import bridgeref as br
    if not Path(br.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"bridgeref imported from {br.__file__}, not from {ROOT / 'src'}")
    lex = br.load_lexicons(spec["lexicons"])
    config = br.ResolverConfig.default()
    with open(spec["corpus"], encoding="utf-8") as f:
        docs = br.parse_corpus(f.read())
    return spec, br, lex, config, docs


def _resolve_pass(br, lex, config, docs):
    """The timed section: each document resolved once.

    Returns the results, and the error of each document whose resolution
    raised.
    """
    results, errors = {}, {}
    for d in docs:
        try:
            results[d.doc_id] = br.resolve_discourse(d, lex, config)
        except Exception as exc:  # a failing document is counted, not fatal
            errors[d.doc_id] = f"{type(exc).__name__}: {exc}"
    return results, errors


# ---------------------------------------------------------------------------
# Independent bookkeeping: target counts, winners, gold counting, read-backs
# ---------------------------------------------------------------------------

def modifier_index(lex) -> dict:
    by_y = {}
    for x, y in lex.xnoy.pairs:
        by_y.setdefault(y, []).append(x)
    return by_y


def expected_targets(d, lex, by_y) -> int:
    """Targets of a document by the documented rules, without the resolver."""
    excluded = {"adjectival", "numeral", "temporal"}
    flags = lex.attrs.flags
    count = 0
    for p in d.phrases():
        if p.pos != "noun" or p.noun_subtype in ("pronoun", "zero_pronoun"):
            continue
        if p.noun_subtype == "verbal":
            frame = lex.case_frames.frames.get(p.lemma)
            if frame is None and p.lemma in lex.case_frames.verbal_nouns:
                frame = lex.case_frames.frames.get(lex.case_frames.verbal_nouns[p.lemma])
            if frame is not None:
                count += len(frame.slots)
                continue
        if p.noun_subtype == "relational" or "relational" in flags.get(p.lemma, ()):
            count += 1
        elif "non_anaphoric" not in flags.get(p.lemma, ()) and any(
                not set(flags.get(x, ())) & excluded for x in by_y.get(p.lemma, ())):
            count += 1
    return count


def best_candidate(all_scores: dict):
    """Winner under the documented tie-break: score, real over pseudo, recency."""
    best = None
    for candidate, points in all_scores.items():
        real = isinstance(candidate, int)
        key = (points, real, candidate if real else -1)
        if best is None or key > best[0]:
            best = (key, candidate, points)
    return (None, 0) if best is None else (best[1], best[2])


def gold_counts(predictions, docs_by_id) -> dict:
    """Correct / gold-positive / system-positive per class, counted directly."""
    counts = {"verbal": [0, 0, 0], "non_verbal": [0, 0, 0]}
    for doc_id, anaphor, slot, winner, _ in predictions:
        phrase = docs_by_id[doc_id].phrase(anaphor)
        gold = {g.antecedent_id for g in phrase.gold_antecedents
                if g.antecedent_id is not None and (slot is None or g.label == slot)}
        row = counts["verbal" if slot is not None else "non_verbal"]
        row[0] += int(winner is not None and winner in gold)
        row[1] += int(bool(gold))
        row[2] += int(winner is not None)
    return counts


def faulty_readback(all_scores: dict, d):
    """What parse_total_row returns under its known labelling fault.

    A column gets ``#id`` only when its lemma repeats within the table, and
    a bare lemma reads back as the first phrase of the document with that
    lemma.  A table without candidates has no header row and raises.
    """
    if not all_scores:
        return ValueError
    real = [c for c in all_scores if isinstance(c, int)]
    lemmas = [d.phrase(c).lemma for c in real]
    first = {}
    for p in d.phrases():
        if p.lemma:
            first.setdefault(p.lemma, p.id)
    out = {}
    for candidate, points in all_scores.items():
        if isinstance(candidate, int):
            lemma = d.phrase(candidate).lemma
            candidate = candidate if lemmas.count(lemma) > 1 else first[lemma]
        out[candidate] = points
    return out


def _digest(results) -> str:
    import hashlib
    h = hashlib.sha256()
    for doc_id in sorted(results):
        for r in results[doc_id]:
            scores = sorted((str(k), v) for k, v in r.all_scores.items())
            h.update(repr((doc_id, r.anaphor_id, r.slot, r.winner, r.total,
                           scores)).encode())
    return h.hexdigest()


def _check(spec, br, lex, config, docs, results, expected, problems):
    """Full comparison against the oracle and the benchmark's own counting."""
    sys.path.insert(0, str(ROOT / "tests"))
    from randgen import oracle_all_scores

    for d in docs:
        for r in results.get(d.doc_id, ()):
            anaphor = d.phrase(r.anaphor_id)
            oracle = oracle_all_scores(anaphor, r.slot, d, lex, config)
            if oracle != r.all_scores:
                problems.append(f"{d.doc_id}:{r.anaphor_id}/{r.slot}: all_scores "
                                f"{r.all_scores} != oracle {oracle}")
            if best_candidate(r.all_scores) != (r.winner, r.total):
                problems.append(f"{d.doc_id}:{r.anaphor_id}/{r.slot}: winner "
                                f"{r.winner}/{r.total} breaks the tie-break rule")
        if d.doc_id in results and len(results[d.doc_id]) != expected[d.doc_id]:
            problems.append(f"{d.doc_id}: {len(results[d.doc_id])} targets resolved, "
                            f"{expected[d.doc_id]} expected")

    if spec["workload"] == "many_short":
        demo = ROOT / "src" / "bridgeref" / "data" / "demo.adc"
        alone = {}
        for d in br.parse_corpus(demo.read_text(encoding="utf-8")):
            alone[d.doc_id] = [(r.anaphor_id, r.slot, r.winner, r.total)
                               for r in br.resolve_discourse(d, lex, config)]
        fault_docs = set(spec["readback_fault_docs"])
        for doc_id, rs in results.items():
            if doc_id in fault_docs:
                continue
            got = [(r.anaphor_id, r.slot, r.winner, r.total) for r in rs]
            if got != alone[doc_id.rsplit(".", 1)[0]]:
                problems.append(f"{doc_id}: predictions differ from its original alone")


def _render(br, results, docs_by_id, doc_ids) -> dict:
    return {doc_id: [br.render_score_table(r, docs_by_id[doc_id]) for r in results[doc_id]]
            for doc_id in doc_ids}


def main(argv) -> int:
    spec_path, out_path, flags = argv[1], Path(argv[2]), set(argv[3:])
    tracer = None
    if "trace" in flags:
        sys.path.insert(0, str(ROOT / "bench"))
        from tracing import Tracer
        tracer = Tracer()
    sys.path.insert(0, str(ROOT / "src"))
    if tracer is None:
        spec, br, lex, config, docs = _setup(spec_path, None)
    else:
        with tracer.phase("bench.setup"):
            spec, br, lex, config, docs = _setup(spec_path, tracer)
    t_ready = time.perf_counter()

    if tracer is None:
        results, errors = _resolve_pass(br, lex, config, docs)
    else:
        with tracer.phase("bench.pass"):
            results, errors = _resolve_pass(br, lex, config, docs)
    t_done = time.perf_counter()

    import json
    docs_by_id = {d.doc_id: d for d in docs}
    predictions = []
    for doc_id, rs in results.items():
        predictions.extend(
            (doc_id, r.anaphor_id, r.slot, r.winner if isinstance(r.winner, int) else None,
             r.total) for r in rs)
    # Score tables to read back: the fixed fault documents' in every round,
    # and on a check or traced round every document's.
    fault_docs = set(spec.get("readback_fault_docs", ()))
    render_ids = [doc_id for doc_id in results
                  if doc_id in fault_docs or flags & {"check", "trace"}]
    if tracer is None:
        tables = _render(br, results, docs_by_id, render_ids)
    else:
        # Downstream views of the same results, measured on every workload.
        with tracer.phase("bench.serialize"):
            br.serialize_predictions([p for doc_id, rs in results.items()
                                      for p in br.predictions_from_results(doc_id, rs)])
        with tracer.phase("bench.evaluate"):
            br.evaluate([br.Prediction(*p) for p in predictions], docs_by_id)
        with tracer.phase("bench.render"):
            tables = _render(br, results, docs_by_id, render_ids)
        tracer.uninstall()

    # Operations: one per target resolved and one per read-back of a fixed
    # fault document's table.  A document that raised counts all its
    # targets as failed.  Other read-backs must give all_scores exactly or
    # exactly what the known fault predicts; they are not operations, since
    # how many hit the fault depends on the seed.
    by_y = modifier_index(lex)
    expected = {d.doc_id: expected_targets(d, lex, by_y) for d in docs}
    attempted = sum(expected.values())
    failed = sum(expected[doc_id] for doc_id in errors)
    problems = []
    readback = {"fault_doc_failed": 0, "known_fault": 0, "exact": 0}
    for doc_id, ts in tables.items():
        d = docs_by_id[doc_id]
        for r, table in zip(results[doc_id], ts):
            try:
                back = br.parse_total_row(table, d)
            except Exception as exc:  # a raising read-back is a result to compare
                back = type(exc)
            ok = back == r.all_scores
            if doc_id in fault_docs:
                attempted += 1
                if not ok:
                    failed += 1
                    readback["fault_doc_failed"] += 1
            elif ok:
                readback["exact"] += 1
            elif back == faulty_readback(r.all_scores, d):
                readback["known_fault"] += 1
            else:
                problems.append(f"{doc_id}:{r.anaphor_id}: score table reads back "
                                f"as {back}, not {r.all_scores}")

    out = {
        "t_ready": t_ready,
        "pass_s": t_done - t_ready,
        "targets": sum(len(rs) for rs in results.values()),
        "attempted": attempted,
        "failed": failed,
        "digest": _digest(results),
        "predictions": predictions,
        "readback": readback,
        "errors": errors,
        "problems": problems,
    }
    if "check" in flags:
        _check(spec, br, lex, config, docs, results, expected, problems)
        out["gold_counts"] = gold_counts(predictions, docs_by_id)
        report = br.evaluate([br.Prediction(*p) for p in predictions], docs_by_id)
        if {k: list(v) for k, v in report.by_class.items()} != out["gold_counts"]:
            problems.append(f"evaluate() {dict(report.by_class)} != own count "
                            f"{out['gold_counts']}")
    if tracer is not None:
        tracer.write(out_path.with_name("trace.jsonl"))
        out["trace"] = _layer_metrics(tracer, readback)
    out_path.write_text(json.dumps(out), encoding="utf-8")
    return 0


def _layer_metrics(tracer, readback) -> dict:
    t, c = tracer.total, tracer.calls
    resolve_s = t("resolver.resolve")
    scored = tracer.candidates_scored
    metrics = {
        "corpus.parse_s": (t("corpus.parse_corpus"), "s"),
        "corpus.phrases": (tracer.phrases_parsed, "count"),
        "lexicons.load_s": (t("lexicons.load_lexicons"), "s"),
        "lexicons.similarity_calls": (c("lexicons.similarity_level"), "count"),
        "lexicons.similarity_distinct_pairs": (len(tracer.similarity_pairs), "count"),
        "lexicons.similarity_s": (t("lexicons.similarity_level"), "s"),
        "lexicons.constraint_calls": (c("lexicons.satisfies_constraint"), "count"),
        "lexicons.constraint_s": (t("lexicons.satisfies_constraint"), "s"),
        "lexicons.modifier_set_calls": (c("lexicons.xnoy_modifier_set"), "count"),
        "salience.list_calls": (c("salience.salience_list"), "count"),
        "salience.list_s": (t("salience.salience_list"), "s"),
        "salience.classify_calls": (c("salience.classify_salience"), "count"),
        "resolver.detect_s": (t("resolver.detect_targets"), "s"),
        "resolver.targets": (c("resolver.resolve"), "count"),
        "resolver.resolve_self_s": (tracer.stats.get("resolver.resolve", [0, 0, 0])[2], "s"),
        "resolver.candidates_scored": (scored, "count"),
        "resolver.us_per_candidate": (1e6 * resolve_s / scored if scored else 0.0, "us"),
        "evaluate.serialize_s": (t("evaluate.serialize_predictions"), "s"),
        "evaluate.eval_s": (t("evaluate.evaluate"), "s"),
        "explain.render_s": (t("explain.render_score_table"), "s"),
        "explain.readback_failed": (readback["fault_doc_failed"] + readback["known_fault"],
                                    "count"),
        "cli.import_s": (t("cli.import"), "s"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    self_times = tracer.layer_self_times()
    for layer in ("corpus", "lexicons", "salience", "resolver", "evaluate", "explain"):
        metrics[f"{layer}.self_s"] = (self_times.get(layer, 0.0), "s")
    return metrics


if __name__ == "__main__":
    sys.exit(main(sys.argv))
