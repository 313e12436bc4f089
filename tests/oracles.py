"""Independent reference implementations used to check the fast paths.

These deliberately use different algorithms from the library: exhaustive
enumeration instead of arithmetic counting, memoized recursion instead of
the distance matrix, a derivability search instead of trusting the
sampler, a deep copy of the whole dialog instead of rebuilding only the
rewritten turns, a rescan of the reply per name instead of one index of
its windows, a rescan of every other name per partial-mention window
instead of one set of their windows, a fresh gold scan and comparison per
score bucket instead of one judgement per turn, gold target and state scans
of their own instead of the one ``gold_index`` pass, and a copying decoder
followed by a second walk of the whole corpus instead of checking each
dialog as it is decoded, and the resolver as it was before the name index
(every name re-normalized per call, pairs screened by character sets,
distances by a banded cutoff DP) instead of the memoized name records,
the multiset-mask screen and the bit-parallel recurrence,
and entity and prediction rows decoded into the ``Entity`` and
``PredictionRow`` classes and dumped again, and example and record rows
read by their hand-written checks, instead of one table-built checker each,
and grammar sampling by a recursive closure instead of an explicit stack.
Keep them slow and obvious.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import lru_cache

from disambig.augmenter import (
    AUGMENT_METHODS,
    DEFAULT_ALLOWED,
    SKIP_NOT_ENOUGH_ENTITIES,
    AugmentationRecord,
    _ensure_sentence_final,
    find_augmentable_turns,
)
from disambig.corpus import (
    SPLITS,
    SYSTEM,
    USER,
    Corpus,
    Database,
    _infer_split,
    _schema_guided_files,
    guess_name_field,
    name_key,
)
from disambig.errors import GrammarError, NoMatch, SchemaMismatch, Unwordable
from disambig.grammar import Grammar, Nonterminal
from disambig.jsonl import iter_jsonl, read_json, wrong_type
from disambig.metrics import ALL, AUGMENTED_ONLY
from disambig.resolver import (
    ATTRIBUTE,
    DEFAULT_MAX_FUZZY,
    EXACT_NAME,
    FUZZY_NAME,
    ORDINAL,
    STOPWORDS,
    Match,
    Resolution,
    _edit_budget,
    _finish,
    _ordinal_positions,
    _spans,
    has_conjunction,
    normalize,
)
from disambig.seeding import derive_seed, rng_for
from disambig.synthesizer import (
    CANDIDATE_COUNTS,
    AddressingMethod,
    SingleTurnExample,
    apply_addressing,
    build_system_utterance,
    build_user_utterance,
)


def _expect(value, kind: type, what: str) -> None:
    """The type check of the hand-written readers: ``isinstance``, a bool not being an integer."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise wrong_type(value, kind, what)


def enumerate_templates(grammar: Grammar, start: str, cap: int = 20_000) -> list[tuple]:
    """Every derivable token sequence from ``start``, by brute force."""
    memo: dict[str, list[tuple]] = {}

    def expand(name: str) -> list[tuple]:
        if name in memo:
            return memo[name]
        sequences: list[tuple] = []
        for alternative in grammar.rules[name]:
            partial: list[tuple] = [()]
            for symbol in alternative:
                suffixes = expand(symbol.name) if isinstance(symbol, Nonterminal) else [(symbol,)]
                partial = [p + s for p in partial for s in suffixes]
                if len(partial) > cap:
                    raise AssertionError(f"enumeration blew past {cap} sequences")
            sequences.extend(partial)
        memo[name] = sequences
        return sequences

    return expand(start)


def slow_sample(grammar: Grammar, start: str, seed: int) -> tuple:
    """``grammar.sample`` as a recursive descent, drawing each alternative as it is reached."""
    if start not in grammar.rules:
        raise GrammarError(f"unknown start symbol or rule name {start!r}")
    rng = rng_for("grammar.sample", start, seed)
    tokens: list = []

    def expand(name: str) -> None:
        alternatives = grammar.rules[name]
        for symbol in alternatives[rng.randrange(len(alternatives))]:
            if isinstance(symbol, Nonterminal):
                expand(symbol.name)
            else:
                tokens.append(symbol)

    expand(start)
    return tuple(tokens)


def derivable(grammar: Grammar, start: str, tokens: tuple) -> bool:
    """Recursive membership test for a token sequence on an acyclic grammar."""

    @lru_cache(maxsize=None)
    def matches(symbols: tuple, remaining: tuple) -> bool:
        if not symbols:
            return not remaining
        head, *rest = symbols
        rest = tuple(rest)
        if isinstance(head, Nonterminal):
            return any(matches(alt + rest, remaining) for alt in grammar.rules[head.name])
        return bool(remaining) and remaining[0] == head and matches(rest, remaining[1:])

    return matches((Nonterminal(start),), tuple(tokens))


def template_in_language(grammar: Grammar, start: str, tokens: tuple) -> bool:
    return derivable(grammar, start, tokens)


def slow_edit_distance(a: str, b: str) -> int:
    """Plain recursive Damerau-Levenshtein (restricted), memoized."""

    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        best = min(
            go(i - 1, j) + 1,
            go(i, j - 1) + 1,
            go(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )
        if i >= 2 and j >= 2 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
            best = min(best, go(i - 2, j - 2) + 1)
        return best

    return go(len(a), len(b))


def slow_fuzzy_evidence(utterance: list[str], names: list[list[str]], max_fuzzy: float) -> dict[int, float]:
    """The fuzzy-name stage with the full distance for every pair: for each
    name, one minus the smallest ``distance / longer`` over utterance windows
    of one token fewer to one token more, among those at most ``max_fuzzy``."""
    scored: dict[int, float] = {}
    for index, name in enumerate(names):
        name_text = " ".join(name)
        best: float | None = None
        for length in range(max(1, len(name) - 1), len(name) + 2):
            for start in range(len(utterance) - length + 1):
                window_text = " ".join(utterance[start:start + length])
                longer = max(len(window_text), len(name_text))
                if longer == 0 or abs(len(window_text) - len(name_text)) / longer > max_fuzzy:
                    continue
                distance = slow_edit_distance(window_text, name_text) / longer
                if distance <= max_fuzzy and (best is None or distance < best):
                    best = distance
        if best is not None:
            scored[index] = 1.0 - best
    return scored


def _windows(tokens: list[str], length: int) -> list[tuple[str, ...]]:
    return [tuple(tokens[i:i + length]) for i in range(len(tokens) - length + 1)]


def _contains_window(haystack: list[str], needle: tuple[str, ...]) -> bool:
    return any(tuple(haystack[i:i + len(needle)]) == needle for i in range(len(haystack) - len(needle) + 1))


def slow_name_evidence(utterance: list[str], names: list[list[str]]) -> dict[int, float]:
    """The name stage rescanning the reply for every name and every window:
    indices with exact or uniquely-identifying partial name windows."""
    matched: dict[int, float] = {}
    for index, name in enumerate(names):
        if _contains_window(utterance, tuple(name)):
            matched[index] = 1.0
    max_len = max((len(n) for n in names), default=0)
    for length in range(1, max_len + 1):
        for window in _windows(utterance, length):
            if all(token in STOPWORDS for token in window):
                continue
            owners = [i for i, name in enumerate(names) if len(window) < len(name) and _contains_window(name, window)]
            if len(owners) == 1:
                matched.setdefault(owners[0], 1.0)
    return matched


# --- partial mentions: rescan every other name for every window ---------------


def _token_windows(tokens: list[str]) -> list[tuple[int, int]]:
    spans = []
    for length in range(1, len(tokens)):
        for start in range(len(tokens) - length + 1):
            spans.append((start, length))
    return spans


def _window_in(tokens: list[str], window: list[str]) -> bool:
    return any(tokens[i:i + len(window)] == window for i in range(len(tokens) - len(window) + 1))


def slow_partial_mention(target: dict, others: list[dict]) -> str:
    """``synthesizer._partial_mention``: prefixes by length, then every
    window by length and start, each normalized on its own and checked by a
    window scan of the normalized tokens of the target and every other name:
    a proper window of the target, not only stopwords, no window of any
    other name, and holding no other name whole."""
    tokens = target["name"].split()
    target_tokens = normalize(target["name"])
    other_tokens = [normalize(e["name"]) for e in others]

    def unique(window: list[str]) -> bool:
        words = normalize(" ".join(window))
        if not words or all(t in STOPWORDS for t in words):
            return False
        if len(words) >= len(target_tokens) or not _window_in(target_tokens, words):
            return False
        return not any(_window_in(ot, words) or _window_in(words, ot) for ot in other_tokens)

    for length in range(1, len(tokens)):
        prefix = tokens[:length]
        if unique(prefix):
            return " ".join(prefix)
    for start, length in sorted(_token_windows(tokens), key=lambda sl: (sl[1], sl[0])):
        window = tokens[start:start + length]
        if unique(window):
            return " ".join(window)
    raise Unwordable(f"every proper subsequence of {target['name']!r} is ambiguous")


def slow_attribute_evidence(utterance: list[str], candidates: list[dict]) -> dict[int, float]:
    """The attribute stage rescanning the reply for every attribute value."""
    scored: dict[int, float] = {}
    for index, entity in enumerate(candidates):
        if not entity["attributes"]:
            continue
        hits = sum(
            1 for value in entity["attributes"].values()
            if (value_tokens := normalize(str(value))) and _contains_window(utterance, tuple(value_tokens))
        )
        if hits:
            scored[index] = hits / len(entity["attributes"])
    return scored


# --- the resolver before the name index: re-normalize, banded cutoff DP -------


def _cutoff_edit_distance(a: str, b: str, bound: int | None = None) -> int:
    """OSA distance by the row-by-row DP over the band ``|i - j| <= k``
    (Ukkonen's cutoff), cells clipped at ``k + 1``, stopping once two
    consecutive rows are over the bound."""
    if a == b:
        return 0
    len_b = len(b)
    k = max(len(a), len_b) if bound is None else bound
    over = k + 1
    if abs(len(a) - len_b) > k:
        return over
    previous2: list[int] = []
    previous = [j if j <= k else over for j in range(len_b + 1)]
    previous_min = 0
    for i, ca in enumerate(a, start=1):
        current = [over] * (len_b + 1)
        if i <= k:
            current[0] = i
        row_min = current[0]
        for j in range(max(1, i - k), min(len_b, i + k) + 1):
            cb = b[j - 1]
            value = previous[j - 1] if ca == cb else previous[j - 1] + 1
            if previous[j] < value:
                value = previous[j] + 1
            if current[j - 1] < value:
                value = current[j - 1] + 1
            if i > 1 and j > 1 and ca == b[j - 2] and a[i - 2] == cb and previous2[j - 2] < value:
                value = previous2[j - 2] + 1
            if value > over:
                value = over
            current[j] = value
            if value < row_min:
                row_min = value
        if row_min > k and previous_min > k:
            return over
        previous2, previous, previous_min = previous, current, row_min
    return previous[-1]


def _char_set_bound(a: set[str], b: set[str]) -> int:
    """A lower bound on the OSA distance of two strings with character sets
    ``a`` and ``b``: each character found in one string but not the other
    needs its own edit, and a transposition changes neither set."""
    return max(len(a - b), len(b - a))


def _unindexed_name_evidence(utterance: list[str], names: list[list[str]]) -> dict[int, float]:
    spans = _spans(utterance, max((len(name) for name in names), default=0))
    matched = {index: 1.0 for index, name in enumerate(names) if tuple(name) in spans}
    owners: dict[tuple[str, ...], set[int]] = {}
    for index, name in enumerate(names):
        for window in _spans(name, len(name) - 1):
            owners.setdefault(window, set()).add(index)
    for window in spans:
        owner = owners.get(window)
        if owner is not None and len(owner) == 1 and not STOPWORDS.issuperset(window):
            matched.setdefault(next(iter(owner)), 1.0)
    return matched


def _unindexed_fuzzy_evidence(utterance: list[str], names: list[list[str]], max_fuzzy: float) -> dict[int, float]:
    windows: dict[int, list[tuple[str, int, set[str]]]] = {}
    scored: dict[int, float] = {}
    for index, name in enumerate(names):
        name_text = " ".join(name)
        name_len = len(name_text)
        name_chars = set(name_text)
        best: float | None = None
        for length in range(max(1, len(name) - 1), len(name) + 2):
            if length not in windows:
                texts = (" ".join(utterance[start:start + length]) for start in range(len(utterance) - length + 1))
                windows[length] = [(text, len(text), set(text)) for text in texts]
            for window_text, window_len, window_chars in windows[length]:
                longer = max(window_len, name_len)
                if longer == 0 or abs(window_len - name_len) / longer > max_fuzzy:
                    continue
                k = _edit_budget(longer, max_fuzzy)
                if _char_set_bound(window_chars, name_chars) > k:
                    continue
                distance = _cutoff_edit_distance(window_text, name_text, bound=k)
                if distance <= k and (best is None or distance / longer < best):
                    best = distance / longer
        if best is not None:
            scored[index] = 1.0 - best
    return scored


def _unindexed_attribute_evidence(utterance: list[str], candidates: list[dict]) -> dict[int, float]:
    values = [[tuple(normalize(str(value))) for value in entity["attributes"].values()] for entity in candidates]
    spans = _spans(utterance, max((len(value) for entity_values in values for value in entity_values), default=0))
    scored: dict[int, float] = {}
    for index, entity_values in enumerate(values):
        hits = sum(1 for value in entity_values if value and value in spans)
        if hits:
            scored[index] = hits / len(entity_values)
    return scored


def _unindexed_resolve(candidates: list[dict], user_utterance: str, max_fuzzy: float) -> Resolution:
    if not 1 <= len(candidates) <= 5:
        raise ValueError("resolve expects between 1 and 5 candidates")
    tokens = normalize(user_utterance)
    if not tokens:
        raise NoMatch("empty utterance")
    positions = _ordinal_positions(tokens, len(candidates))
    if positions is not None:
        return _finish([Match(position - 1, 1.0, ORDINAL) for position in positions])
    names = [normalize(entity["name"]) for entity in candidates]
    for evidence_kind, evidence in (
        (EXACT_NAME, lambda: _unindexed_name_evidence(tokens, names)),
        (FUZZY_NAME, lambda: _unindexed_fuzzy_evidence(tokens, names, max_fuzzy)),
        (ATTRIBUTE, lambda: _unindexed_attribute_evidence(tokens, candidates)),
    ):
        scored = evidence()
        if scored:
            return _finish([Match(index, score, evidence_kind) for index, score in scored.items()])
    raise NoMatch(f"no candidate matches {user_utterance!r}")


def slow_predict_names(candidates: list[dict], user_utterance: str,
                       max_fuzzy: float = DEFAULT_MAX_FUZZY) -> list[str]:
    """``predict_names`` as it was before the name index and the
    bit-parallel distance: names re-normalized on every call, attribute
    values re-tokenized, and the banded cutoff DP for each fuzzy pair."""
    try:
        resolution = _unindexed_resolve(candidates, user_utterance, max_fuzzy)
    except NoMatch:
        return []
    top = resolution.matches[0].score
    selected = [m for m in resolution.matches if m.score == top]
    if len(selected) > 1 and not has_conjunction(user_utterance):
        selected = [resolution.matches[0]]
    return [candidates[m.index]["name"] for m in selected]


def slow_augment_dialog(
    dialog: dict,
    db: Database,
    grammar: Grammar,
    seed: int,
    allowed=DEFAULT_ALLOWED,
    methods: tuple[AddressingMethod, ...] = (AddressingMethod.EXACT,),
) -> tuple[dict, list[AugmentationRecord]]:
    """``augment_dialog`` as it was before it shared turns: deep-copy the
    whole dialog, then rewrite the chosen turns of the copy in place."""
    for method in methods:
        if method not in AUGMENT_METHODS:
            raise SchemaMismatch(f"method {method.value!r} cannot voice a single accepted entity")
    found = find_augmentable_turns(dialog, db, allowed)
    new_dialog = copy.deepcopy(dialog)
    records: list[AugmentationRecord] = []
    for turn_index, pool, accepted in found:
        base = (dialog["id"], turn_index, seed)
        system_turn = new_dialog["turns"][turn_index]
        user_turn = new_dialog["turns"][turn_index + 1]

        count = rng_for("augment.count", *base).choice(CANDIDATE_COUNTS)
        accepted_key = name_key(accepted["name"])
        others = [e for e in db.tables[accepted["domain"]] if name_key(e["name"]) != accepted_key]
        if len(others) < count - 1:
            records.append(AugmentationRecord(
                dialog_id=dialog["id"], turn_index=turn_index,
                original_system=system_turn["utterance"], new_system=system_turn["utterance"],
                user_prefix="", original_user=user_turn["utterance"],
                candidates=pool, target=accepted, skipped_reason=SKIP_NOT_ENOUGH_ENTITIES,
            ))
            continue

        fill_rng = rng_for("augment.fill", *base)
        candidates = fill_rng.sample(others, count - 1)
        position = fill_rng.randrange(count)
        candidates.insert(position, accepted)

        method = methods[rng_for("augment.method", *base).randrange(len(methods))]
        noun = db.noun(accepted["domain"])
        new_system = build_system_utterance(grammar, candidates, noun, derive_seed("augment.system", *base))
        mention = apply_addressing(
            candidates, [position], method, derive_seed("augment.mention", *base),
            grammar=grammar, domain_noun=noun,
        )
        prefix = _ensure_sentence_final(build_user_utterance(grammar, mention, derive_seed("augment.user", *base)))

        original_system = system_turn["utterance"]
        original_user = user_turn["utterance"]
        system_turn["utterance"] = new_system
        system_turn["extras"]["disambig"] = {
            "origin": "augment",
            "method": method.value,
            "target_names": [accepted["name"]],
            "candidate_names": [e["name"] for e in candidates],
            "user_prefix": prefix,
        }
        user_turn["utterance"] = prefix + " " + original_user

        records.append(AugmentationRecord(
            dialog_id=dialog["id"], turn_index=turn_index,
            original_system=original_system, new_system=new_system,
            user_prefix=prefix, original_user=original_user,
            candidates=candidates, target=accepted,
        ))
    return new_dialog, records


def _no_prediction(key: tuple[str, int]) -> SchemaMismatch:
    return SchemaMismatch(f"no prediction row for (dialog_id={key[0]!r}, turn_index={key[1]})")


def _not_in_gold(key: tuple[str, int]) -> SchemaMismatch:
    return SchemaMismatch(f"prediction key (dialog_id={key[0]!r}, turn_index={key[1]}) not in gold corpus")


def _slow_dialogs(gold: Corpus) -> list[dict]:
    """The gold dialogs, refusing a repeated dialog id as every metric does."""
    ids = [dialog["id"] for dialog in gold.dialogs]
    if len(set(ids)) != len(ids):
        raise SchemaMismatch("gold corpus has duplicate dialog ids")
    return gold.dialogs


def slow_gold_entity_turns(gold: Corpus, origin: str | None = None) -> dict:
    """``metrics.gold_entity_turns`` as its own scan of the corpus: each
    marked turn's normalized target names, of one marker origin if given."""
    turns = {}
    for dialog in _slow_dialogs(gold):
        for index, turn in enumerate(dialog["turns"]):
            marker = turn["extras"].get("disambig")
            if marker and (origin is None or marker.get("origin") == origin):
                turns[(dialog["id"], index)] = {" ".join(normalize(n)) for n in marker["target_names"]}
    return turns


def slow_gold_states(gold: Corpus) -> dict:
    """``metrics.gold_states`` as its own scan of the corpus: each user
    turn's slots, each with the set of its values' ``name_key``."""
    states = {}
    for dialog in _slow_dialogs(gold):
        for index, turn in enumerate(dialog["turns"]):
            if turn["speaker"] == USER:
                state: dict[str, set[str]] = {}
                for frame in turn["frames"]:
                    for slot, values in frame["slot_values"].items():
                        state.setdefault(slot, set()).update(name_key(v) for v in values)
                states[(dialog["id"], index)] = state
    return states


def _slow_select(table: dict, subset, gold: Corpus, turn_offset: int = 0) -> dict:
    if subset == ALL:
        return table
    if subset == AUGMENTED_ONLY:
        keys = [(dialog_id, index + turn_offset) for dialog_id, index in slow_gold_entity_turns(gold, "augment")]
        return {key: table[key] for key in keys if key in table}
    if isinstance(subset, str):
        raise ValueError(f"unknown subset {subset!r}: expected ALL, AUGMENTED_ONLY or an iterable of keys")
    chosen = {}
    for key in subset:
        if key not in table:
            raise _not_in_gold(key)
        chosen[key] = table[key]
    return chosen


def _slow_entity_mean(preds, targets: dict) -> float:
    if not targets:
        raise SchemaMismatch("no gold turns define an entity target in this subset")
    correct = 0
    for key, gold_names in sorted(targets.items()):
        if key not in preds:
            raise _no_prediction(key)
        predicted = {" ".join(normalize(n)) for n in preds[key]["entities"]}
        correct += predicted == gold_names
    return correct / len(targets)


def slow_entity_accuracy(preds, gold: Corpus, subset=ALL) -> float:
    """``metrics.entity_accuracy`` as a fresh gold scan plus its own loop."""
    return _slow_entity_mean(preds, _slow_select(slow_gold_entity_turns(gold), subset, gold))


def slow_joint_goal_accuracy(preds, gold: Corpus, subset=ALL) -> float:
    """``metrics.joint_goal_accuracy`` with its own comparison loop."""
    states = _slow_select(slow_gold_states(gold), subset, gold, turn_offset=1)
    if not states:
        raise SchemaMismatch("no gold turns carry a dialog state in this subset")
    correct = 0
    for key, gold_state in sorted(states.items()):
        if key not in preds or preds[key].get("state") is None:
            raise _no_prediction(key)
        predicted = {slot: {name_key(v) for v in values} for slot, values in preds[key]["state"].items()}
        correct += all(predicted.get(slot) == values for slot, values in gold_state.items())
    return correct / len(states)


def slow_slot_accuracy(preds, gold: Corpus, subset=ALL) -> float:
    """``metrics.slot_accuracy`` with its own comparison loop."""
    states = _slow_select(slow_gold_states(gold), subset, gold, turn_offset=1)
    fractions: list[float] = []
    for key, gold_state in sorted(states.items()):
        if key not in preds or preds[key].get("state") is None:
            raise _no_prediction(key)
        predicted = {slot: {name_key(v) for v in values} for slot, values in preds[key]["state"].items()}
        if gold_state:
            hits = sum(predicted.get(slot) == values for slot, values in gold_state.items())
            fractions.append(hits / len(gold_state))
        else:
            fractions.append(1.0)
    return sum(fractions) / len(fractions) if fractions else 1.0


def slow_score(preds, gold: Corpus, records: list[AugmentationRecord] | None = None) -> dict:
    """``metrics.score`` as a JSON report, judging every bucket afresh: one
    entity comparison per bucket and one state scan per JGA number."""
    report: dict = {"entity_accuracy_all": None, "entity_accuracy_augmented": None,
                    "jga_all": None, "jga_augmented": None, "per_method": None, "counts": {}}
    dialogs = {dialog["id"]: dialog for dialog in gold.dialogs}
    if len(dialogs) != len(gold.dialogs):
        raise SchemaMismatch("gold corpus has duplicate dialog ids")
    for key in preds:
        if key[0] not in dialogs or not 0 <= key[1] < len(dialogs[key[0]]["turns"]):
            raise _not_in_gold(key)
    marked = slow_gold_entity_turns(gold)
    markers = {key: dialogs[key[0]]["turns"][key[1]]["extras"]["disambig"] for key in marked}
    total_turns = sum(len(dialog["turns"]) for dialog in dialogs.values())
    report["counts"]["turns_total"] = total_turns
    report["counts"]["turns_with_gold_targets"] = len(marked)
    report["counts"]["turns_skipped_no_target"] = total_turns - len(marked)
    if marked:
        report["entity_accuracy_all"] = _slow_entity_mean(preds, marked)
        by_method: dict[str, dict] = {}
        for key, marker in markers.items():
            if marker.get("method"):
                by_method.setdefault(marker["method"], {})[key] = marked[key]
        report["per_method"] = {m: _slow_entity_mean(preds, t) for m, t in sorted(by_method.items())}
    if records is not None:
        augmented_keys = [(r.dialog_id, r.turn_index) for r in records if r.skipped_reason is None]
    else:
        augmented_keys = sorted(key for key, marker in markers.items() if marker.get("origin") == "augment")
    report["counts"]["turns_augmented"] = len(augmented_keys)
    if augmented_keys:
        report["entity_accuracy_augmented"] = _slow_entity_mean(preds, _slow_select(marked, augmented_keys, gold))
    if not any(row.get("state") is not None for row in preds.values()):
        return report
    states = slow_gold_states(gold)
    has_states = bool(states) and all(preds[key].get("state") is not None for key in states if key in preds)
    if has_states and all(key in preds for key in states):
        report["jga_all"] = slow_joint_goal_accuracy(preds, gold, subset=ALL)
        if augmented_keys:
            user_keys = [(d, t + 1) for d, t in augmented_keys if (d, t + 1) in states]
            if user_keys:
                report["jga_augmented"] = slow_joint_goal_accuracy(preds, gold, subset=user_keys)
    return report


# --- entity and prediction rows as the classes they were decoded into ---------


@dataclass
class Entity:
    """One database row: a named entity plus its non-name attributes."""

    domain: str
    name: str
    attributes: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _expect(self.name, str, "entity name")
        if not self.name:
            raise SchemaMismatch(f"entity in domain {self.domain!r} has an empty name")
        _expect(self.attributes, dict, f"entity {self.name!r} attributes")
        self.attributes = {k: str(v) for k, v in self.attributes.items()}

    def to_json(self) -> dict:
        return {"domain": self.domain, "name": self.name, "attributes": self.attributes}

    @classmethod
    def from_json(cls, obj: dict) -> "Entity":
        try:
            return cls(domain=obj["domain"], name=obj["name"], attributes=obj.get("attributes", {}))
        except KeyError as exc:
            raise SchemaMismatch(f"entity record missing key {exc}") from exc


def slow_entity_row(obj: dict) -> dict:
    """``corpus.entity_row`` as a round trip through ``Entity``, which did
    not check the domain."""
    return Entity.from_json(obj).to_json()


@dataclass
class PredictionRow:
    dialog_id: str
    turn_index: int
    entities: list[str] = field(default_factory=list)
    state: dict[str, list[str]] | None = None

    def to_json(self) -> dict:
        obj: dict = {"dialog_id": self.dialog_id, "turn_index": self.turn_index, "entities": self.entities}
        if self.state is not None:
            obj["state"] = self.state
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "PredictionRow":
        row = cls(dialog_id=obj["dialog_id"], turn_index=obj["turn_index"], entities=obj.get("entities", []),
                  state=obj.get("state"))
        _expect(row.dialog_id, str, "dialog_id")
        _expect(row.turn_index, int, "turn_index")
        _expect(row.entities, list, "entities")
        for name in row.entities:
            _expect(name, str, "entities item")
        for slot, values in ({} if row.state is None else row.state).items():
            _expect(values, list, f"state slot {slot!r}")
            for value in values:
                _expect(value, str, f"state slot {slot!r} value")
        return row


def slow_prediction_row(obj: dict) -> dict:
    """``metrics.prediction_row`` as a round trip through ``PredictionRow``."""
    return PredictionRow.from_json(obj).to_json()


# --- example and record rows as their hand-written checks read them ----------


def slow_example_row(obj: dict) -> SingleTurnExample:
    """``SingleTurnExample.from_json`` as it was before the example table:
    two type checks, the candidates through the ``Entity`` class, and the
    rest taken as it is, so a wrong value surfaces as whatever Python raises."""
    for key in ("system", "user"):
        _expect(obj[key], str, key)
    candidates = [slow_entity_row(e) for e in obj["candidates"]]
    by_key = {name_key(e["name"]): i for i, e in enumerate(candidates)}
    names = obj["target_names"]
    targets = [by_key.get(name_key(name)) for name in names]
    if None in targets:
        raise SchemaMismatch(f"target name {names[targets.index(None)]!r} is not one of the candidates")
    return SingleTurnExample(system_utterance=obj["system"], user_utterance=obj["user"], candidates=candidates,
                             targets=targets, method=AddressingMethod(obj["method"]), domain=obj["domain"],
                             seed=obj["seed"])


def slow_record_row(obj: dict) -> AugmentationRecord:
    """``AugmentationRecord.from_json`` as it was before the record table:
    four type checks, the entities through the ``Entity`` class, and the
    utterances taken as they are."""
    for key, kind in (("dialog_id", str), ("turn_index", int), ("user_prefix", str)):
        _expect(obj[key], kind, key)
    if obj.get("skipped_reason") is not None:
        _expect(obj["skipped_reason"], str, "skipped_reason")
    return AugmentationRecord(
        dialog_id=obj["dialog_id"],
        turn_index=obj["turn_index"],
        original_system=obj["original_system"],
        new_system=obj["new_system"],
        user_prefix=obj["user_prefix"],
        original_user=obj["original_user"],
        candidates=[slow_entity_row(e) for e in obj["candidates"]],
        target=slow_entity_row(obj["target"]),
        skipped_reason=obj.get("skipped_reason"),
    )


# --- corpus loading: copy every container, then validate the whole corpus ------


def _slow_entity(obj: dict) -> dict:
    try:
        return Entity(domain=obj["domain"], name=obj["name"], attributes=dict(obj.get("attributes", {}))).to_json()
    except KeyError as exc:
        raise SchemaMismatch(f"entity record missing key {exc}") from exc


def _slow_frame(obj: dict) -> dict:
    if "service" not in obj:
        raise SchemaMismatch("frame missing key 'service'")
    return {
        "service": obj["service"],
        "slot_values": {k: list(v) for k, v in obj.get("slot_values", {}).items()},
        "requested_slots": list(obj.get("requested_slots", [])),
        "extras": dict(obj.get("extras", {})),
    }


def _slow_turn(obj: dict) -> dict:
    turn = {
        "speaker": obj["speaker"],
        "utterance": obj["utterance"],
        "frames": [_slow_frame(f) for f in obj.get("frames", [])],
    }
    if obj.get("search_results") is not None:
        turn["search_results"] = [_slow_entity(e) for e in obj["search_results"]]
    turn["extras"] = dict(obj.get("extras", {}))
    return turn


def slow_dialog_from_json(obj: dict) -> dict:
    """A native dialog row decoded into fresh copies of every container,
    unchecked but for missing keys, which a turn's error names."""
    try:
        dialog = {"id": obj["id"], "services": list(obj["services"]), "turns": obj["turns"],
                  "extras": dict(obj.get("extras", {}))}
    except KeyError as exc:
        raise SchemaMismatch(f"dialog record missing key {exc}") from exc
    turns = []
    for index, raw in enumerate(dialog["turns"]):
        try:
            turns.append(_slow_turn(raw))
        except KeyError as exc:
            raise SchemaMismatch(f"dialog {dialog['id']!r} turn {index}: missing key {exc}") from exc
        except SchemaMismatch as exc:
            raise SchemaMismatch(f"dialog {dialog['id']!r} turn {index}: {exc}") from exc
    return {**dialog, "turns": turns}


def slow_validate_corpus(corpus: Corpus) -> None:
    """Re-check every type invariant; raises SchemaMismatch, never repairs."""
    if corpus.split_name not in SPLITS:
        raise SchemaMismatch(f"split_name {corpus.split_name!r} not one of {SPLITS}")
    seen_ids: set[str] = set()
    for dialog in corpus.dialogs:
        if dialog["id"] in seen_ids:
            raise SchemaMismatch(f"duplicate dialog id {dialog['id']!r}")
        seen_ids.add(dialog["id"])
        for service in dialog["services"]:
            _expect(service, str, f"dialog {dialog['id']!r} service")
        declared = set(dialog["services"])
        for index, turn in enumerate(dialog["turns"]):
            where = f"dialog {dialog['id']!r} turn {index}"
            if not isinstance(turn["speaker"], str):
                raise SchemaMismatch(f"{where}: speaker: expected a string, got {turn['speaker']!r:.60}")
            if turn["speaker"] not in (USER, SYSTEM):
                raise SchemaMismatch(f"{where}: speaker {turn['speaker']!r}")
            if index > 0 and turn["speaker"] == dialog["turns"][index - 1]["speaker"]:
                raise SchemaMismatch(f"{where}: speakers do not alternate")
            if turn["speaker"] == USER and "search_results" in turn:
                raise SchemaMismatch(f"{where}: user turns cannot carry search results")
            for frame in turn["frames"]:
                if frame["service"] not in declared:
                    raise SchemaMismatch(f"{where}: frame service {frame['service']!r} not in dialog services")
                for slot, values in frame["slot_values"].items():
                    if not slot:
                        raise SchemaMismatch(f"{where}: empty slot name")
                    for value in values:
                        if not isinstance(value, str):
                            raise SchemaMismatch(f"{where}: slot {slot!r} value: expected a string, got {value!r:.60}")
                        if not value:
                            raise SchemaMismatch(f"{where}: slot {slot!r} has an empty value")


def _slow_result_to_entity(service: str, record: dict) -> dict:
    name_field = guess_name_field(service, record)
    if name_field not in record:
        raise SchemaMismatch(f"search result for {service!r} lacks its name field {name_field!r}")
    attributes = {k: v for k, v in record.items() if k != name_field}
    return Entity(domain=service, name=str(record[name_field]), attributes=attributes).to_json()


def _slow_dialog_from_schema_guided(obj: dict) -> dict:
    if "turns" not in obj:
        raise SchemaMismatch(f"dialog {obj.get('dialogue_id')!r} has no 'turns' key")
    dialog_id = obj.get("dialogue_id") or obj.get("dialog_id")
    if not dialog_id:
        raise SchemaMismatch("dialog without a dialogue_id")
    turns: list[dict] = []
    for raw_turn in obj["turns"]:
        speaker, utterance = raw_turn.get("speaker"), raw_turn.get("utterance")
        if speaker is None or utterance is None:  # a null one is missing too
            raise SchemaMismatch(f"turn in {dialog_id!r} missing speaker/utterance")
        frames: list[dict] = []
        results: list[dict] = []
        for raw_frame in raw_turn.get("frames", []):
            service = raw_frame.get("service")
            if not service:
                raise SchemaMismatch(f"frame without service in dialog {dialog_id!r}")
            state = raw_frame.get("state", {})
            slot_values = {k: [str(v) for v in vs] for k, vs in state.get("slot_values", {}).items()}
            requested = list(state.get("requested_slots", []))
            state_extras = {k: v for k, v in state.items() if k not in ("slot_values", "requested_slots")}
            frame_extras = {k: v for k, v in raw_frame.items() if k not in ("service", "state")}
            if state_extras:
                frame_extras["state_extras"] = state_extras
            for record in raw_frame.get("service_results", []):
                results.append(_slow_result_to_entity(service, record))
            frames.append({"service": service, "slot_values": slot_values, "requested_slots": requested,
                           "extras": frame_extras})
        turn = {"speaker": speaker, "utterance": utterance, "frames": frames,
                "extras": {k: v for k, v in raw_turn.items() if k not in ("speaker", "utterance", "frames")}}
        if speaker == SYSTEM and results:
            turn["search_results"] = results
        turns.append(turn)
    services = list(obj.get("services", []))
    dialog_extras = {k: v for k, v in obj.items() if k not in ("dialogue_id", "dialog_id", "services", "turns")}
    return {"id": str(dialog_id), "services": services, "turns": turns, "extras": dialog_extras}


def _slow_native_row(obj: dict) -> dict | tuple[str, str]:
    if "meta" in obj:
        meta = {"split_name": "train", "source_format": "native", **obj["meta"]}
        return meta["split_name"], meta["source_format"]
    return slow_dialog_from_json(obj)


def slow_load_corpus(path: str, format: str = "native") -> Corpus:
    """``corpus.load_corpus``: decode every dialog with copies, then validate the whole corpus."""
    if format == "native":
        rows = list(iter_jsonl(path, _slow_native_row))
        split_name, source_format = rows.pop(0) if rows and isinstance(rows[0], tuple) else ("train", "native")
        if any(isinstance(row, tuple) for row in rows):
            raise SchemaMismatch(f"{path}: only the first row may be a meta header")
        corpus = Corpus(dialogs=rows, split_name=split_name, source_format=source_format)
    else:
        dialogs = []
        for file_path in _schema_guided_files(path):
            payload = read_json(str(file_path))
            if not isinstance(payload, list):
                raise SchemaMismatch(f"{file_path}: expected a list of dialogs")
            dialogs.extend(_slow_dialog_from_schema_guided(obj) for obj in payload)
        corpus = Corpus(dialogs=dialogs, split_name=_infer_split(path), source_format=format)
    slow_validate_corpus(corpus)
    return corpus
