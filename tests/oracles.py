"""Independent reference implementations used to check the fast paths.

These deliberately use different algorithms from the library: exhaustive
enumeration instead of arithmetic counting, memoized recursion instead of
the distance matrix, a derivability search instead of trusting the
sampler, a deep copy of the whole dialog instead of rebuilding only the
rewritten turns, a rescan of the reply per name instead of one index of
its windows, and a fresh gold scan and comparison per score bucket instead
of one judgement per turn.  Keep them slow and obvious.
"""

from __future__ import annotations

import copy
from functools import lru_cache

from disambig.augmenter import (
    AUGMENT_METHODS,
    DEFAULT_ALLOWED,
    SKIP_NOT_ENOUGH_ENTITIES,
    AugmentationRecord,
    _ensure_sentence_final,
    find_augmentable_turns,
)
from disambig.corpus import Corpus, Database, Dialog, Entity, name_key
from disambig.errors import MissingPrediction, SchemaMismatch, UnknownSubsetTurn
from disambig.grammar import Grammar, Nonterminal, Template
from disambig.metrics import ALL, AUGMENTED_ONLY, gold_entity_turns, gold_states
from disambig.resolver import STOPWORDS, normalize
from disambig.seeding import derive_seed, rng_for
from disambig.synthesizer import (
    CANDIDATE_COUNTS,
    AddressingMethod,
    apply_addressing,
    build_system_utterance,
    build_user_utterance,
)


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


def template_in_language(grammar: Grammar, template: Template) -> bool:
    assert template.source_start is not None
    return derivable(grammar, template.source_start, template.tokens)


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


def slow_attribute_evidence(utterance: list[str], candidates: list[Entity]) -> dict[int, float]:
    """The attribute stage rescanning the reply for every attribute value."""
    scored: dict[int, float] = {}
    for index, entity in enumerate(candidates):
        if not entity.attributes:
            continue
        hits = sum(
            1 for value in entity.attributes.values()
            if (value_tokens := normalize(str(value))) and _contains_window(utterance, tuple(value_tokens))
        )
        if hits:
            scored[index] = hits / len(entity.attributes)
    return scored


def slow_augment_dialog(
    dialog: Dialog,
    db: Database,
    grammar: Grammar,
    seed: int,
    allowed=DEFAULT_ALLOWED,
    methods: tuple[AddressingMethod, ...] = (AddressingMethod.EXACT,),
) -> tuple[Dialog, list[AugmentationRecord]]:
    """``augment_dialog`` as it was before it shared turns: deep-copy the
    whole dialog, then rewrite the chosen turns of the copy in place."""
    for method in methods:
        if method not in AUGMENT_METHODS:
            raise SchemaMismatch(f"method {method.value!r} cannot voice a single accepted entity")
    found = find_augmentable_turns(dialog, db, allowed)
    new_dialog = copy.deepcopy(dialog)
    records: list[AugmentationRecord] = []
    for turn_index, pool, accepted in found:
        base = (dialog.id, turn_index, seed)
        system_turn = new_dialog.turns[turn_index]
        user_turn = new_dialog.turns[turn_index + 1]

        count = rng_for("augment.count", *base).choice(CANDIDATE_COUNTS)
        accepted_key = name_key(accepted.name)
        others = [e for e in db.tables[accepted.domain] if name_key(e.name) != accepted_key]
        if len(others) < count - 1:
            records.append(AugmentationRecord(
                dialog_id=dialog.id, turn_index=turn_index,
                original_system=system_turn.utterance, new_system=system_turn.utterance,
                user_prefix="", original_user=user_turn.utterance,
                candidates=pool, target=accepted, skipped_reason=SKIP_NOT_ENOUGH_ENTITIES,
            ))
            continue

        fill_rng = rng_for("augment.fill", *base)
        candidates = fill_rng.sample(others, count - 1)
        position = fill_rng.randrange(count)
        candidates.insert(position, accepted)

        method = methods[rng_for("augment.method", *base).randrange(len(methods))]
        noun = db.noun(accepted.domain)
        new_system = build_system_utterance(grammar, candidates, noun, derive_seed("augment.system", *base))
        mention = apply_addressing(
            candidates, [position], method, derive_seed("augment.mention", *base),
            grammar=grammar, domain_noun=noun,
        )
        prefix = _ensure_sentence_final(build_user_utterance(grammar, mention, derive_seed("augment.user", *base)))

        original_system = system_turn.utterance
        original_user = user_turn.utterance
        system_turn.utterance = new_system
        system_turn.extras["disambig"] = {
            "origin": "augment",
            "method": method.value,
            "target_names": [accepted.name],
            "candidate_names": [e.name for e in candidates],
            "user_prefix": prefix,
        }
        user_turn.utterance = prefix + " " + original_user

        records.append(AugmentationRecord(
            dialog_id=dialog.id, turn_index=turn_index,
            original_system=original_system, new_system=new_system,
            user_prefix=prefix, original_user=original_user,
            candidates=candidates, target=accepted,
        ))
    return new_dialog, records


def _slow_select(table: dict, subset, gold: Corpus, turn_offset: int = 0) -> dict:
    if subset == ALL:
        return table
    if subset == AUGMENTED_ONLY:
        keys = [(dialog_id, index + turn_offset) for dialog_id, index in gold_entity_turns(gold, origin="augment")]
        return {key: table[key] for key in keys if key in table}
    if isinstance(subset, str):
        raise ValueError(f"unknown subset {subset!r}: expected ALL, AUGMENTED_ONLY or an iterable of keys")
    chosen = {}
    for key in subset:
        if key not in table:
            raise UnknownSubsetTurn(key)
        chosen[key] = table[key]
    return chosen


def _slow_entity_mean(preds, targets: dict) -> float:
    if not targets:
        raise SchemaMismatch("no gold turns define an entity target in this subset")
    correct = 0
    for key, gold_names in sorted(targets.items()):
        if key not in preds:
            raise MissingPrediction(key)
        predicted = {" ".join(normalize(n)) for n in preds[key].entities}
        correct += predicted == gold_names
    return correct / len(targets)


def slow_entity_accuracy(preds, gold: Corpus, subset=ALL) -> float:
    """``metrics.entity_accuracy`` as a fresh gold scan plus its own loop."""
    return _slow_entity_mean(preds, _slow_select(gold_entity_turns(gold), subset, gold))


def slow_joint_goal_accuracy(preds, gold: Corpus, subset=ALL) -> float:
    """``metrics.joint_goal_accuracy`` with its own comparison loop."""
    states = _slow_select(gold_states(gold), subset, gold, turn_offset=1)
    if not states:
        raise SchemaMismatch("no gold turns carry a dialog state in this subset")
    correct = 0
    for key, gold_state in sorted(states.items()):
        if key not in preds or preds[key].state is None:
            raise MissingPrediction(key)
        predicted = {slot: {name_key(v) for v in values} for slot, values in preds[key].state.items()}
        correct += all(predicted.get(slot) == values for slot, values in gold_state.items())
    return correct / len(states)


def slow_slot_accuracy(preds, gold: Corpus, subset=ALL) -> float:
    """``metrics.slot_accuracy`` with its own comparison loop."""
    states = _slow_select(gold_states(gold), subset, gold, turn_offset=1)
    fractions: list[float] = []
    for key, gold_state in sorted(states.items()):
        if key not in preds or preds[key].state is None:
            raise MissingPrediction(key)
        predicted = {slot: {name_key(v) for v in values} for slot, values in preds[key].state.items()}
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
    dialogs = {dialog.id: dialog for dialog in gold.dialogs}
    if len(dialogs) != len(gold.dialogs):
        raise SchemaMismatch("gold corpus has duplicate dialog ids")
    for key in preds:
        if key[0] not in dialogs or not 0 <= key[1] < len(dialogs[key[0]].turns):
            raise UnknownSubsetTurn(key)
    marked = gold_entity_turns(gold)
    markers = {key: dialogs[key[0]].turns[key[1]].extras["disambig"] for key in marked}
    total_turns = sum(len(dialog.turns) for dialog in dialogs.values())
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
    if not any(row.state is not None for row in preds.values()):
        return report
    states = gold_states(gold)
    has_states = bool(states) and all(preds[key].state is not None for key in states if key in preds)
    if has_states and all(key in preds for key in states):
        report["jga_all"] = slow_joint_goal_accuracy(preds, gold, subset=ALL)
        if augmented_keys:
            user_keys = [(d, t + 1) for d, t in augmented_keys if (d, t + 1) in states]
            if user_keys:
                report["jga_augmented"] = slow_joint_goal_accuracy(preds, gold, subset=user_keys)
    return report
