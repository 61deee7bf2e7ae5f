"""Independent brute-force scorers used to cross-check the real code.

Everything here recomputes results straight from raw documents (or raw
ranked lists, or raw query text), deliberately avoiding the index /
recommender / metric / query-parser code paths under test. Only the analyzer chains are shared, since every
route needs identical tokenization (`naive_chain_run` checks them against
their stage functions, with `naive_porter_stem` in place of the
production stemmer), and the media-link pattern, which defines what the
stripper oracle recognises.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

from sparse_expand.analysis import chain_for, de_light_stem, de_normalize, en_possessive, tokenize
from sparse_expand.corpus import DEFAULT_SCHEMA
from sparse_expand.errors import DataError
from sparse_expand.index import Phrase, Query, Term
from sparse_expand.wiki_lead import _MEDIA_LINK_RE

SEGMENT_GAP = 1


# Each built-in profile's stages, in order, as README "Analysis" names
# them: the specification `naive_chain_run` applies.
PROFILE_STAGES = {
    "en": ("tokenize", "en_possessive", "lowercase", "stopwords", "porter_stem"),
    "de": ("tokenize", "lowercase", "stopwords", "de_normalize", "de_light_stem"),
}


def naive_chain_run(chain, text):
    """A chain's profile applied stage by stage to the whole token list,
    with no per-token cache."""
    terms = tokenize(text)
    for stage in PROFILE_STAGES[chain.lang]:
        if stage == "tokenize":
            continue
        if stage == "en_possessive":
            terms = [en_possessive(t) for t in terms]
        elif stage == "lowercase":
            terms = [t.lower() for t in terms]
        elif stage == "stopwords":
            terms = [t for t in terms if t.lower() not in chain.stopword_list]
        elif stage == "porter_stem":
            terms = [naive_porter_stem(t) for t in terms]
        elif stage == "de_normalize":
            terms = [de_normalize(t) for t in terms]
        elif stage == "de_light_stem":
            terms = [de_light_stem(t) for t in terms]
        else:
            raise ValueError(f"unknown analyzer stage: {stage}")
    return [t for t in terms if t]


def field_token_positions(doc, chain, schema=DEFAULT_SCHEMA, all_field="chic_all"):
    """(term, position) pairs per composite field, assembled from scratch."""
    in_schema = set(schema)
    ordered = [n for n in schema if n in doc.fields] + sorted(
        n for n in doc.fields if n not in in_schema
    )
    streams = {}
    for name in ordered:
        pairs = []
        pos = 0
        for value in doc.fields[name]:
            tokens = chain.run(value)
            if not tokens:
                continue
            for i, term in enumerate(tokens):
                pairs.append((term, pos + i))
            pos += len(tokens) + SEGMENT_GAP
        streams[f"{name}-{doc.lang}"] = pairs
    pairs = []
    pos = 0
    for name in ordered:
        for value in doc.fields[name]:
            tokens = chain.run(value)
            if not tokens:
                continue
            for i, term in enumerate(tokens):
                pairs.append((term, pos + i))
            pos += len(tokens) + SEGMENT_GAP
    streams[f"{all_field}-{doc.lang}"] = pairs
    return streams


def _clause_tf(stream_pairs, tokens):
    if len(tokens) == 1:
        return sum(1 for term, _ in stream_pairs if term == tokens[0])
    positions = {}
    for term, pos in stream_pairs:
        positions.setdefault(term, set()).add(pos)
    if any(t not in positions for t in tokens):
        return 0
    return sum(
        1
        for start in positions[tokens[0]]
        if all(start + i in positions[t] for i, t in enumerate(tokens))
    )


def naive_search(documents, chains, query, k, schema=DEFAULT_SCHEMA, all_field="chic_all"):
    """Score every document against every clause; returns (doc_id, score)."""
    streams = [
        field_token_positions(doc, chains[doc.lang], schema, all_field) for doc in documents
    ]
    n_docs = len(documents)
    scores: dict[int, float] = {}
    for clause in query.clauses:
        lang = clause.field.rsplit("-", 1)[1]
        chain = chains[lang]
        text = clause.text if isinstance(clause, Term) else " ".join(clause.terms)
        tokens = chain.run(text)
        if not tokens:
            continue
        tfs = {}
        for i, stream in enumerate(streams):
            tf = _clause_tf(stream.get(clause.field, []), tokens)
            if tf:
                tfs[i] = tf
        if not tfs:
            continue
        idf = 1.0 + math.log(n_docs / (1.0 + len(tfs)))
        for i in sorted(tfs):
            scores[i] = scores.get(i, 0.0) + clause.boost * math.sqrt(tfs[i]) * idf
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], documents[kv[0]].doc_id))
    return [(documents[i].doc_id, score) for i, score in ranked[:k]]


def naive_ascending_runs_below(values, starts, limit):
    """True if every run values[starts[i]:starts[i+1]] is strictly
    ascending and holds no value of `limit` or more, checked run by run
    and pair by pair."""
    for lo, hi in zip(starts, starts[1:]):
        run = list(values[lo:hi])
        for value in run:
            if value >= limit:
                return False
        for before, after in zip(run, run[1:]):
            if before >= after:
                return False
    return True


def naive_rises(values):
    """Byte j is 1 if item j + 1 is greater than item j, else 0, compared
    pair by pair."""
    return bytes(1 if after > before else 0 for before, after in zip(values, values[1:]))


def naive_descends(values):
    """True if some item is less than the one before it, compared pair by
    pair."""
    return any(after < before for before, after in zip(values, values[1:]))


def naive_pos_starts(starts, tfs):
    """Each term's first position, then the end of the last term: a
    running sum of tfs posting by posting, read where each term's run of
    postings starts and where the last ends."""
    ends = [0]
    for tf in tfs:
        ends.append(ends[-1] + tf)
    return [ends[start] for start in starts]


def naive_concept_table(documents, lang):
    """Document frequency of each concept value of one language, and each
    document's set of values by doc ordinal (doc_id order): a value is a
    trimmed, non-empty value of a concept field, counted once per
    document however often it occurs there."""
    from sparse_expand.corpus import CONCEPT_FIELDS

    doc_values = {}
    for ordinal, doc in enumerate(sorted(documents, key=lambda d: d.doc_id)):
        if doc.lang != lang:
            continue
        values = {v.strip() for name in CONCEPT_FIELDS for v in doc.fields.get(name, ()) if v.strip()}
        if values:
            doc_values[ordinal] = values
    value_df = {}
    for values in doc_values.values():
        for value in values:
            value_df[value] = value_df.get(value, 0) + 1
    return value_df, doc_values


def naive_str_scores(documents, topic, chain, input_fields, concept_fields, log=False):
    """Suggestion scores recomputed by explicit set arithmetic."""
    from sparse_expand.analysis import query_tokens

    tokens = query_tokens(chain, topic.title)
    candidates = [d for d in documents if d.lang == topic.lang]

    # analyzed token set of the input fields, once per document
    doc_tokens = []
    for doc in candidates:
        bag = set()
        for name in input_fields:
            for value in doc.fields.get(name, ()):
                bag.update(chain.run(value))
        doc_tokens.append((doc.doc_id, bag))

    analyzed = [chain.run(t)[0] for t in tokens]
    per_token = [
        {doc_id for doc_id, bag in doc_tokens if token in bag} for token in analyzed
    ]
    ds_x = set.intersection(*per_token) if per_token else set()
    if not ds_x and per_token:
        ds_x = set.union(*per_token)

    value_docs: dict[str, set[str]] = {}
    for doc in candidates:
        for name in concept_fields:
            for value in doc.fields.get(name, ()):
                if value.strip():  # a whitespace-only value is no concept
                    value_docs.setdefault(value.strip(), set()).add(doc.doc_id)

    scored = {}
    for value, ds_y in value_docs.items():
        inter = len(ds_x & ds_y)
        if inter == 0:
            continue
        if log:
            lx, ly, lxy = (
                math.log(1 + len(ds_x)),
                math.log(1 + len(ds_y)),
                math.log(1 + inter),
            )
            scored[value] = lxy / (lx + ly - lxy)
        else:
            scored[value] = Fraction(inter, len(ds_x) + len(ds_y) - inter)
    return scored


def naive_important_words(bodies: dict[str, str], chain, title, n):
    """Top-n tf*idf words recomputed with plain counting."""
    tokens = {t: chain.run(body) for t, body in bodies.items()}
    n_docs = len(bodies)
    df: dict[str, int] = {}
    for toks in tokens.values():
        for term in set(toks):
            df[term] = df.get(term, 0) + 1
    counts: dict[str, int] = {}
    for term in tokens[title]:
        counts[term] = counts.get(term, 0) + 1
    weight = {
        term: counts[term] * (1.0 + math.log(n_docs / (1.0 + df[term]))) for term in counts
    }
    ranked = sorted(weight, key=lambda t: (-weight[t], t))
    return set(ranked[:n])


def naive_docsim_ranking(bodies: dict[str, str], chain, seed, k, n):
    """All-pairs similarity ranking, O(corpus^2) route."""
    scores = []
    seed_words = naive_important_words(bodies, chain, seed, n)
    for title in bodies:
        if title == seed:
            continue
        words = naive_important_words(bodies, chain, title, n)
        score = Fraction(len(seed_words & words), n)
        if score > 0:
            scores.append((title, score))
    scores.sort(key=lambda pair: (-pair[1], pair[0]))
    return scores[:k]


def naive_strip_pairs(text: str, open_tok: str, close_tok: str) -> tuple[str, bool]:
    """Drop balanced open..close regions, one character at a time.

    An opener wins over a closer starting at the same place; an opener
    that never closes drops the rest (truncated); stray closers are text.
    """
    out: list[str] = []
    i = 0
    depth = 0
    n = len(text)
    while i < n:
        if text.startswith(open_tok, i):
            depth += 1
            i += len(open_tok)
        elif depth and text.startswith(close_tok, i):
            depth -= 1
            i += len(close_tok)
        elif depth == 0:
            out.append(text[i])
            i += 1
        else:
            i += 1
    return "".join(out), depth > 0


def naive_strip_media_links(text: str) -> tuple[str, bool]:
    """Drop [[File:/Image:/Category: ...]] links, trying the link pattern
    at every character; an unclosed one drops the rest (truncated)."""
    out: list[str] = []
    i = 0
    n = len(text)
    truncated = False
    while i < n:
        match = _MEDIA_LINK_RE.match(text, i)
        if match is None:
            out.append(text[i])
            i += 1
            continue
        depth = 1
        j = match.end()
        while j < n and depth:
            if text.startswith("[[", j):
                depth += 1
                j += 2
            elif text.startswith("]]", j):
                depth -= 1
                j += 2
            else:
                j += 1
        if depth:
            truncated = True
            break
        i = j
    return "".join(out), truncated


def naive_strip_comments(text: str) -> tuple[str, bool]:
    """Drop <!-- ... --> comments, one character at a time; comments do
    not nest, and an unclosed one drops the rest (truncated)."""
    out: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        if text.startswith("<!--", i):
            end = text.find("-->", i + 4)
            if end == -1:
                return "".join(out), True
            i = end + 3
        else:
            out.append(text[i])
            i += 1
    return "".join(out), False


# The one-character strippers, in the production stage order.
NAIVE_STRIP_STAGES = (
    naive_strip_comments,
    lambda t: naive_strip_pairs(t, "{{", "}}"),
    naive_strip_media_links,
    lambda t: naive_strip_pairs(t, "{|", "|}"),
)


def naive_strip_markup(text: str) -> tuple[str, bool]:
    """Repeat the one-character strippers, in the production stage
    order, until a whole pass changes nothing."""
    truncated = False
    while True:
        before = text
        for stage in NAIVE_STRIP_STAGES:
            text, flag = stage(text)
            truncated = truncated or flag
        if text == before:
            return text, truncated


def naive_link_targets(text: str) -> list[str]:
    """Targets of plain [[...]] links in first occurrence order, each kept
    once: the text before any pipe and any '#', whitespace collapsed;
    empty and interlanguage (`xx:`, `xx-yy:`) targets are dropped."""
    targets: list[str] = []
    seen: set[str] = set()
    for match in re.finditer(r"\[\[(.*?)\]\]", text, re.S):
        target = match.group(1).split("|", 1)[0]
        target = target.split("#", 1)[0]
        target = " ".join(target.split())
        if not target or re.match(r"^[a-z]{2,3}(?:-[a-z0-9]+)*:", target):
            continue
        if target not in seen:
            seen.add(target)
            targets.append(target)
    return targets


def naive_extract_lead(wikitext: str, min_links: int = 3) -> tuple[tuple[str, ...], bool]:
    """(links, used_full_article): the link targets of the stripped text's
    lines, split at line feeds only, above the first line that starts
    with `==`. A lead with fewer than `min_links` targets falls back to
    the whole stripped text, and the flag says whether that gave other
    targets."""
    text, _ = naive_strip_markup(wikitext)
    lead_lines = []
    for line in text.split("\n"):
        if line.startswith("=="):
            break
        lead_lines.append(line)
    lead = naive_link_targets("\n".join(lead_lines))
    if len(lead) >= min_links:
        return tuple(lead), False
    full = naive_link_targets(text)
    return tuple(full), full != lead


def _naive_query_words(chain, text):
    """The surface tokens of `text` that analyze to a term, each without
    its possessive when that leaves its term as it is."""
    words = []
    for surface in tokenize(text):
        term = naive_chain_run(chain, surface)
        if term:
            word = en_possessive(surface) if chain.lang == "en" else surface
            words.append(word if naive_chain_run(chain, word) == term else surface)
    return words


def naive_build_query(title, lang, concepts=(), max_concepts=10, title_boost=2.0):
    """README "Query expansion", clause by clause, or None for a title with
    no query words. Each query word of the title, once per occurrence, is
    a term boosted by `title_boost`. Of the first `max_concepts` concepts,
    each one whose lower case is not an earlier one's gives an unboosted
    clause: none if it has no query words, a term of its one query word,
    or a phrase of its text split at whitespace and `"`."""
    chain = chain_for(lang)
    field = f"chic_all-{lang}"
    title_words = _naive_query_words(chain, title)
    if not title_words:
        return None
    clauses = [Term(field, word, title_boost) for word in title_words]
    seen = set()
    for text in concepts[:max_concepts]:
        if text.lower() in seen:
            continue
        seen.add(text.lower())
        words = _naive_query_words(chain, text)
        if len(words) == 1:
            clauses.append(Term(field, words[0], 1.0))
        elif words:
            clauses.append(Phrase(field, tuple(w for w in re.split(r'[\s"]', text) if w), 1.0))
    return Query(tuple(clauses))


def _occurrences(terms, phrase):
    """How many starts in `terms` begin a consecutive `phrase`."""
    return sum(1 for i in range(len(terms)) if terms[i : i + len(phrase)] == phrase)


def naive_article_match(titles, topic_title, lang="en"):
    """WIKI_ENTITY's title match by brute force: (title, stage, score) or
    None. Each stage's texts are analyzed and counted against every
    title's tokens, one text at a time, with the bundled stopwords, or
    with none for the words as given; the first stage with a hit wins."""
    if not tokenize(topic_title):
        return None
    standard, exact = chain_for(lang), chain_for(lang, frozenset())
    words = _naive_query_words(standard, topic_title)
    distinct = sorted(set(words))
    orderings = itertools.permutations(distinct) if 2 <= len(distinct) <= 6 else ()
    stages = (
        ("original", exact, [topic_title]),
        ("stopword_free", standard, [" ".join(words)]),
        ("permutation", standard, [" ".join(ordering) for ordering in orderings]),
        ("single_word", standard, words),
    )
    for stage, chain, texts in stages:
        title_terms = {title: naive_chain_run(chain, title) for title in titles}
        hits = []
        for text in texts:
            phrase = naive_chain_run(chain, text)
            if not phrase:
                continue
            tfs = {title: tf for title, terms in title_terms.items() if (tf := _occurrences(terms, phrase))}
            idf = 1.0 + math.log(len(titles) / (1.0 + len(tfs)))
            hits.extend((1.0 * math.sqrt(tf) * idf, title) for title, tf in tfs.items())
        if hits:
            score, title = min(hits, key=lambda hit: (-hit[0], len(hit[1]), hit[1]))
            return title, stage, score
    return None


# COMBO's merge order; any other system follows these, in input order.
COMBO_ORDER = ("WIKI_ENTITY", "WIKI_SIM", "WIKI_BACK", "STR")


def naive_combo(sets, k):
    """COMBO's merged texts by brute force: rank by rank, the sets of
    `COMBO_ORDER`'s systems and then any others, each text kept unless
    an earlier kept one equals it ignoring case; the first k of them."""
    lists = [s.texts() for name in COMBO_ORDER for s in sets if s.system == name]
    lists += [s.texts() for s in sets if s.system not in COMBO_ORDER]
    merged = []
    for rank in range(max((len(texts) for texts in lists), default=0)):
        for texts in lists:
            if rank < len(texts) and all(texts[rank].lower() != kept.lower() for kept in merged):
                merged.append(texts[rank])
    return merged[:k]


def naive_suggestion_set_ok(rows) -> bool:
    """Whether (text, rank, score) rows in list order form a valid set:
    ranks 1..k, scores finite and non-increasing as floats, texts unique."""
    for i, (text, rank, score) in enumerate(rows):
        if rank != i + 1:
            return False
        if not math.isfinite(float(score)):
            return False
        if i > 0 and float(score) > float(rows[i - 1][2]):
            return False
        if any(text == earlier for earlier, _, _ in rows[:i]):
            return False
    return True


_QUERY_FIELD_RE = re.compile(r'([^\s()"]+):\(')
_QUERY_BARE_RE = re.compile(r'[^\s()"]+')
_QUERY_BOOST_RE = re.compile(r"\^([0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)")


def _is_or(text: str, pos: int) -> bool:
    """Whether `OR` stands as a word of its own at `pos`."""
    return text.startswith("OR", pos) and not _QUERY_BARE_RE.match(text, pos + 2)


def naive_parse_query(expression: str) -> Query:
    """The query surface syntax read a character at a time, building
    each clause twice: once unboosted, again once its group's boost is
    read. `OR` separates only as a word of its own, and one between
    groups must be followed by another group."""
    clauses = []
    pos = 0
    text = expression.strip()

    def syntax_error(what):
        return DataError(f"bad query expression at offset {pos}: {what}: {text!r}")

    while pos < len(text):
        match = _QUERY_FIELD_RE.match(text, pos)
        if not match:
            raise syntax_error("expected field:(...)")
        field = match.group(1)
        pos = match.end()
        items = []
        while True:
            while pos < len(text) and text[pos] == " ":
                pos += 1
            if pos >= len(text):
                raise syntax_error("unterminated group")
            if text[pos] == '"':
                end = text.find('"', pos + 1)
                if end == -1:
                    raise syntax_error("unterminated phrase quote")
                words = text[pos + 1 : end].split()
                if not words:
                    raise syntax_error("empty phrase")
                items.append(Phrase(field, tuple(words)))
                pos = end + 1
            else:
                word = _QUERY_BARE_RE.match(text, pos)
                if not word:
                    raise syntax_error("expected a term")
                items.append(Term(field, word.group(0)))
                pos = word.end()
            while pos < len(text) and text[pos] == " ":
                pos += 1
            if pos < len(text) and text[pos] == ")":
                pos += 1
                break
            if _is_or(text, pos):
                pos += 2
                continue
            raise syntax_error("expected OR or )")
        boost = 1.0
        boost_match = _QUERY_BOOST_RE.match(text, pos)
        if boost_match:
            boost = float(boost_match.group(1))
            if not 0 < boost < math.inf:
                raise syntax_error("boost must be positive and finite")
            pos = boost_match.end()
        clauses.extend(
            Term(field, c.text, boost) if isinstance(c, Term) else Phrase(field, c.terms, boost)
            for c in items
        )
        while pos < len(text) and text[pos] == " ":
            pos += 1
        if pos < len(text):
            if _is_or(text, pos):
                pos += 2
                while pos < len(text) and text[pos] == " ":
                    pos += 1
                if pos == len(text):
                    raise syntax_error("expected field:(...)")
            else:
                raise syntax_error("expected OR between groups")
    if not clauses:
        raise DataError(f"empty query expression: {expression!r}")
    return Query(tuple(clauses))


def naive_average_precision(ranked_docs, judgments, threshold=1):
    relevant = {doc for doc, grade in judgments.items() if grade >= threshold}
    if not relevant:
        return None
    found = []
    for position in range(1, len(ranked_docs) + 1):
        if ranked_docs[position - 1] in relevant:
            top = ranked_docs[:position]
            found.append(sum(1 for d in top if d in relevant) / position)
    return sum(found) / len(relevant)


def naive_r_precision(ranked_docs, judgments, threshold=1):
    relevant = {doc for doc, grade in judgments.items() if grade >= threshold}
    if not relevant:
        return None
    r = len(relevant)
    return sum(1 for doc in ranked_docs[:r] if doc in relevant) / r


def naive_run_file_text(run, run_tag):
    """A TREC run file written one line at a time: `run` maps each topic
    id to its (doc id, score) pairs in rank order."""
    text = ""
    for topic_id, pairs in run.items():
        for rank, (doc_id, score) in enumerate(pairs, 1):
            text += f"{topic_id} Q0 {doc_id} {rank} {score:.6f} {run_tag}\n"
    return text


def naive_se_precision(grades_in_rank_order):
    if not grades_in_rank_order:
        return (0.0, 0.0)
    n = len(grades_in_rank_order)
    weak = sum(1 for g in grades_in_rank_order if g >= 1)
    strong = sum(1 for g in grades_in_rank_order if g == 2)
    return (weak / n, strong / n)


# -- Porter's 1980 stemmer step by step, as published: a recursive
# consonant test, loops over letters and a scan for the longest rule --


_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        # y is a consonant at the start or after a vowel
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Count VC sequences in [C](VC)^m[V]."""
    n = len(stem)
    i = 0
    while i < n and _is_consonant(stem, i):
        i += 1
    m = 0
    while i < n:
        while i < n and not _is_consonant(stem, i):
            i += 1
        if i >= n:
            break
        m += 1
        while i < n and _is_consonant(stem, i):
            i += 1
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(stem: str) -> bool:
    # consonant-vowel-consonant where the final consonant is not w, x or y
    if len(stem) < 3:
        return False
    return (
        _is_consonant(stem, len(stem) - 3)
        and not _is_consonant(stem, len(stem) - 2)
        and _is_consonant(stem, len(stem) - 1)
        and stem[-1] not in "wxy"
    )


def _longest_rule(word: str, rules: list[tuple[str, str]]) -> tuple[str, str] | None:
    """Pick the rule with the longest suffix matching `word`, or None.

    Only one rule per step may be considered; if its condition later
    fails, no shorter suffix is retried.
    """
    best = None
    for suffix, repl in rules:
        if word.endswith(suffix) and (best is None or len(suffix) > len(best[0])):
            best = (suffix, repl)
    return best


_STEP2 = [
    ("ational", "ate"),
    ("tional", "tion"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("izer", "ize"),
    ("abli", "able"),
    ("alli", "al"),
    ("entli", "ent"),
    ("eli", "e"),
    ("ousli", "ous"),
    ("ization", "ize"),
    ("ation", "ate"),
    ("ator", "ate"),
    ("alism", "al"),
    ("iveness", "ive"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("aliti", "al"),
    ("iviti", "ive"),
    ("biliti", "ble"),
]

_STEP3 = [
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ful", ""),
    ("ness", ""),
]

_STEP4 = [
    ("al", ""),
    ("ance", ""),
    ("ence", ""),
    ("er", ""),
    ("ic", ""),
    ("able", ""),
    ("ible", ""),
    ("ant", ""),
    ("ement", ""),
    ("ment", ""),
    ("ent", ""),
    ("ion", ""),
    ("ou", ""),
    ("ism", ""),
    ("ate", ""),
    ("iti", ""),
    ("ous", ""),
    ("ive", ""),
    ("ize", ""),
]


def _step1a(w: str) -> str:
    if w.endswith("sses"):
        return w[:-2]
    if w.endswith("ies"):
        return w[:-2]
    if w.endswith("ss"):
        return w
    if w.endswith("s"):
        return w[:-1]
    return w


def _step1b(w: str) -> str:
    if w.endswith("eed"):
        if _measure(w[:-3]) > 0:
            return w[:-1]
        return w
    if w.endswith("ed"):
        stem = w[:-2]
        if not _has_vowel(stem):
            return w
    elif w.endswith("ing"):
        stem = w[:-3]
        if not _has_vowel(stem):
            return w
    else:
        return w
    # ED or ING was removed; tidy up the stem
    if stem.endswith(("at", "bl", "iz")):
        return stem + "e"
    if _ends_double_consonant(stem) and stem[-1] not in "lsz":
        return stem[:-1]
    if _measure(stem) == 1 and _ends_cvc(stem):
        return stem + "e"
    return stem


def _step1c(w: str) -> str:
    if w.endswith("y") and _has_vowel(w[:-1]):
        return w[:-1] + "i"
    return w


def _step2(w: str) -> str:
    rule = _longest_rule(w, _STEP2)
    if rule is not None:
        stem = w[: -len(rule[0])]
        if _measure(stem) > 0:
            return stem + rule[1]
    return w


def _step3(w: str) -> str:
    rule = _longest_rule(w, _STEP3)
    if rule is not None:
        stem = w[: -len(rule[0])]
        if _measure(stem) > 0:
            return stem + rule[1]
    return w


def _step4(w: str) -> str:
    rule = _longest_rule(w, _STEP4)
    if rule is not None:
        stem = w[: -len(rule[0])]
        if _measure(stem) > 1:
            if rule[0] == "ion" and not stem.endswith(("s", "t")):
                return w
            return stem
    return w


def _step5a(w: str) -> str:
    if w.endswith("e"):
        stem = w[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return w


def _step5b(w: str) -> str:
    if w.endswith("l") and _ends_double_consonant(w) and _measure(w) > 1:
        return w[:-1]
    return w


def naive_porter_stem(term: str) -> str:
    """Stem one lowercase English token."""
    w = term
    w = _step1a(w)
    w = _step1b(w)
    w = _step1c(w)
    w = _step2(w)
    w = _step3(w)
    w = _step4(w)
    w = _step5b(_step5a(w))
    return w
