import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semrank.dataprep import (BRIEF_RATIONALE_CHARS, SHINGLE_SIZE, CorpusChunk,
                              QaItem, chunk_tokens, clean_text, dedup_paragraphs,
                              filter_items, qa_item_from_dict, qa_item_to_dict,
                              read_jsonl, shingle_jaccard, split_paragraphs,
                              stratified_split, to_instruction, write_jsonl)
from semrank.text_protocol import parse_tagged
from semrank.tokenizers import word_tokenize


def make_item(i=0, subject="biologia", difficulty=1, rationale=None,
              question=None):
    return QaItem(
        question=question or f"che cosa regola la membrana {i}?",
        options={"a": "uno", "b": "due", "c": "tre", "d": "quattro"},
        answer="b",
        rationale=rationale if rationale is not None else (
            "la membrana cellulare regola in modo selettivo il passaggio di "
            "molecole e ioni tra interno ed esterno della cellula, quindi "
            f"la risposta corretta e' la b. caso {i}."),
        subject=subject,
        difficulty=difficulty,
        item_id=f"item{i:03d}",
    )


class TestCleanText:
    def test_strips_html(self):
        assert clean_text("<b>ciao</b>") == "ciao"

    def test_decodes_entities(self):
        assert clean_text("pi&ugrave; alto") == "più alto"

    def test_page_number_line_removed(self):
        text = "primo paragrafo.\n\n42\n\nsecondo paragrafo."
        assert clean_text(text) == "primo paragrafo.\n\nsecondo paragrafo."

    def test_pagina_header_removed(self):
        assert clean_text("testo.\npagina 12\naltro testo.") == "testo.\naltro testo."

    def test_separator_rows_removed(self):
        assert clean_text("inizio\n-----\nfine") == "inizio\nfine"

    def test_clean_text_unchanged(self):
        text = "già pulito, senza markup.\n\nsecondo paragrafo regolare."
        assert clean_text(text) == text

    def test_ocr_ligatures_fixed(self):
        assert clean_text("efﬁcienza") == "efficienza"

    @given(st.text(max_size=300))
    @settings(max_examples=50)
    def test_idempotent(self, text):
        once = clean_text(text)
        assert clean_text(once) == once


class TestDedup:
    def para(self, i, words=60):
        rng = np.random.default_rng(i)
        vocab = ["cellula", "energia", "membrana", "enzima", "nucleo",
                 "acido", "massa", "forza", "campo", "onda", "limite",
                 "derivata", "insieme", "logica", "numero", "atomo"]
        return " ".join(rng.choice(vocab, size=words)) + f" chiusura{i}"

    def test_exact_duplicate_removed(self):
        p = self.para(1)
        assert dedup_paragraphs([p, p]) == [p]

    def test_normalized_exact_duplicate_removed(self):
        p = self.para(2)
        assert dedup_paragraphs([p, "  " + p.upper() + "  "]) == [p]

    def test_unrelated_both_kept(self):
        a, b = self.para(3), self.para(4)
        assert dedup_paragraphs([a, b]) == [a, b]

    def test_near_duplicate_removed_with_jaccard_oracle(self):
        base_words = self.para(5, words=200).split()
        changed = list(base_words)
        changed[100] = "diversa"
        a, b = " ".join(base_words), " ".join(changed)
        assert shingle_jaccard(a, b) > 0.9  # direct shingle-set oracle
        assert dedup_paragraphs([a, b]) == [a]

    def test_below_threshold_kept(self):
        a = self.para(6, words=30)
        b = self.para(7, words=30)
        assert shingle_jaccard(a, b) < 0.9
        assert dedup_paragraphs([a, b]) == [a, b]

    def test_first_occurrence_kept(self):
        a = self.para(8)
        survivors = dedup_paragraphs([a, self.para(9), a])
        assert survivors[0] == a and len(survivors) == 2

    def test_idempotent(self):
        paragraphs = [self.para(i % 6) for i in range(20)]
        once = dedup_paragraphs(paragraphs)
        assert dedup_paragraphs(once) == once

    @pytest.mark.parametrize("threshold", [-1, 0, 1.5])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        with pytest.raises(ValueError, match="threshold"):
            dedup_paragraphs([self.para(10)], threshold=threshold)


def quadratic_dedup(paragraphs, threshold):
    """Reference: compare each paragraph with every earlier survivor."""
    k = SHINGLE_SIZE
    survivors, survivor_shingles, seen_exact = [], [], set()
    for para in paragraphs:
        norm = " ".join(para.split()).casefold()
        if norm in seen_exact:
            continue
        tokens = word_tokenize(para)
        if len(tokens) < k:
            shingles = {tuple(tokens)} if tokens else set()
        else:
            shingles = {tuple(tokens[i:i + k]) for i in range(len(tokens) - k + 1)}
        size = len(shingles)
        dup = False
        for other in survivor_shingles:
            other_size = len(other)
            if size and other_size and min(size, other_size) < threshold * max(size, other_size):
                continue
            common = len(shingles & other)
            union = size + other_size - common
            if union == 0 or common / union >= threshold:
                dup = True
                break
        if not dup:
            seen_exact.add(norm)
            survivors.append(para)
            survivor_shingles.append(shingles)
    return survivors


@st.composite
def paragraph_lists(draw):
    """Paragraphs of 0-12 words over a 3-4 word vocabulary, so that short
    paragraphs and repeated shingles are common, with punctuation-only
    paragraphs and case/space variants of earlier ones."""
    vocab = ["alfa", "beta", "gamma", "delta"][:draw(st.integers(3, 4))]
    separators = st.sampled_from([" ", "  ", ", ", ". ", "\n", " - "])
    paragraphs = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["words", "words", "words", "punct", "variant"]))
        if kind == "punct":
            paragraphs.append(draw(st.sampled_from(["", "...", "?!", " - "])))
        elif kind == "variant" and paragraphs:
            p = draw(st.sampled_from(paragraphs))
            paragraphs.append(draw(st.sampled_from(
                [p.upper(), f"  {p} ", p.replace(" ", "   ")])))
        else:
            words = draw(st.lists(st.sampled_from(vocab), max_size=12))
            paragraphs.append("".join(w + draw(separators) for w in words))
    return paragraphs


class TestPrefixFilterDedup:
    @given(paragraph_lists(),
           st.one_of(st.sampled_from([1.0, 0.9, 2 / 3, 0.5, 0.2]),
                     st.floats(min_value=0.01, max_value=1.0)))
    @settings(max_examples=200, deadline=None)
    def test_equals_quadratic_reference(self, paragraphs, threshold):
        assert dedup_paragraphs(paragraphs, threshold) == \
            quadratic_dedup(paragraphs, threshold)

    def test_near_duplicate_source_of_220(self):
        # 200 distinct 200-word paragraphs over 16 words, then 20 copies with
        # one word changed (shingle Jaccard about 0.95)
        rng = np.random.default_rng(23)
        vocab = ["cellula", "energia", "membrana", "enzima", "nucleo", "acido",
                 "massa", "forza", "campo", "onda", "limite", "derivata",
                 "insieme", "logica", "numero", "atomo"]
        originals = [" ".join(rng.choice(vocab, size=199).tolist() + [f"chiusura{i}"])
                     for i in range(200)]
        injected = []
        for i in range(20):
            words = originals[i * 10].split()
            words[int(rng.integers(10, 180))] = "mutata"
            injected.append(" ".join(words))
        corpus = originals + injected
        assert dedup_paragraphs(corpus) == quadratic_dedup(corpus, 0.9) == originals


class TestChunking:
    def test_spec_stride_arithmetic(self):
        chunks = chunk_tokens(list(range(10_000)), window=4096, overlap=256)
        assert [c.char_span[0] for c in chunks] == [0, 3840, 7680]
        assert len(chunks) == 3
        assert chunks[-1].char_span[1] == 10_000

    def test_short_input_single_chunk(self):
        chunks = chunk_tokens([1, 2, 3], window=10, overlap=2)
        assert len(chunks) == 1
        assert chunks[0].tokens == (1, 2, 3)

    def test_exact_window_single_chunk(self):
        chunks = chunk_tokens(list(range(4096)), window=4096, overlap=256)
        assert len(chunks) == 1

    def test_zero_overlap_partition(self):
        tokens = list(range(1000))
        chunks = chunk_tokens(tokens, window=128, overlap=0)
        assert sum(len(c.tokens) for c in chunks) == 1000
        rebuilt = [t for c in chunks for t in c.tokens]
        assert rebuilt == tokens

    def test_every_token_covered(self):
        tokens = list(range(777))
        chunks = chunk_tokens(tokens, window=100, overlap=30)
        covered = set()
        for c in chunks:
            covered.update(range(c.char_span[0], c.char_span[1]))
        assert covered == set(range(777))

    def test_chunk_indices_consecutive(self):
        chunks = chunk_tokens(list(range(500)), window=100, overlap=10,
                              source_title="doc")
        assert [c.chunk_index for c in chunks] == list(range(len(chunks)))
        assert all(c.source_title == "doc" for c in chunks)

    def test_overlap_validation(self):
        with pytest.raises(ValueError):
            chunk_tokens([1, 2], window=10, overlap=10)


class TestFilterItems:
    def test_missing_rationale_rejected(self):
        kept, rejected = filter_items([make_item(rationale="")])
        assert not kept
        assert rejected[0].reason == "missing_rationale"

    def test_image_reference_rejected(self):
        kept, rejected = filter_items(
            [make_item(question='osserva <img src="x.png"> e rispondi')])
        assert rejected[0].reason == "image_reference"
        kept, rejected = filter_items(
            [make_item(rationale="come mostra la figura 2, la risposta e' b "
                                 + "x" * 120)])
        assert rejected[0].reason == "image_reference"

    def test_brief_rationale_boundary(self):
        at_threshold = "x" * BRIEF_RATIONALE_CHARS
        below = "x" * (BRIEF_RATIONALE_CHARS - 1)
        kept, rejected = filter_items([make_item(rationale=at_threshold)])
        assert len(kept) == 1 and not rejected
        kept, rejected = filter_items([make_item(rationale=below)])
        assert not kept and rejected[0].reason == "brief_rationale"

    def test_good_item_kept_with_empty_log(self):
        kept, rejected = filter_items([make_item()])
        assert len(kept) == 1 and rejected == []


class TestStratifiedSplit:
    def test_single_stratum_100(self):
        items = [make_item(i) for i in range(100)]
        splits = stratified_split(items, seed=0)
        assert [len(splits[n]) for n in ("train", "dev", "test")] == [80, 10, 10]

    def test_single_stratum_10(self):
        items = [make_item(i) for i in range(10)]
        splits = stratified_split(items, seed=0)
        assert [len(splits[n]) for n in ("train", "dev", "test")] == [8, 1, 1]

    def test_five_item_stratum_largest_remainder(self):
        items = [make_item(i) for i in range(5)]
        splits = stratified_split(items, seed=0)
        # remainders 0.0/0.5/0.5: dev listed before test wins the tie
        assert [len(splits[n]) for n in ("train", "dev", "test")] == [4, 1, 0]

    def test_partition_no_overlap(self):
        items = [make_item(i, subject=s, difficulty=d)
                 for i, (s, d) in enumerate(
                     (s, d) for s in ("biologia", "chimica", "fisica")
                     for d in (1, 2, 3) for _ in range(11))]
        splits = stratified_split(items, seed=5)
        ids = [it.item_id for split in splits.values() for it in split]
        assert len(ids) == len(items)
        assert len(set(ids)) == len(ids)

    def test_per_stratum_train_fraction(self):
        items = [make_item(i, subject=s, difficulty=d)
                 for i, (s, d) in enumerate(
                     (s, d) for s in ("biologia", "chimica")
                     for d in (1, 2) for _ in range(25))]
        splits = stratified_split(items, seed=2)
        for subject in ("biologia", "chimica"):
            for d in (1, 2):
                train_n = sum(1 for it in splits["train"]
                              if it.subject == subject and it.difficulty == d)
                assert abs(train_n - 0.8 * 25) <= 1

    def test_deterministic(self):
        items = [make_item(i) for i in range(37)]
        a = stratified_split(items, seed=9)
        b = stratified_split(items, seed=9)
        assert all([x.item_id for x in a[n]] == [x.item_id for x in b[n]]
                   for n in a)

    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            stratified_split([make_item()], ratios=(0.5, 0.2, 0.2))

    @pytest.mark.parametrize("ratios", [(0.5, 0.5), (0.8, 0.1, 0.05, 0.05),
                                        (1.2, -0.1, -0.1)])
    def test_ratios_must_be_three_fractions(self, ratios):
        with pytest.raises(ValueError, match="non-negative"):
            stratified_split([make_item()], ratios=ratios)


class TestToInstruction:
    def test_round_trip_answer_and_rationale(self):
        item = make_item(3)
        prompt, completion = to_instruction(item)
        parsed = parse_tagged(completion)
        assert parsed.risposta == item.answer
        assert parsed.spiegazione == item.rationale
        assert parsed.structurally_valid

    def test_think_left_empty(self):
        _, completion = to_instruction(make_item())
        assert parse_tagged(completion).think == ""

    def test_prompt_injective_on_question(self):
        p1, _ = to_instruction(make_item(1))
        p2, _ = to_instruction(make_item(2))
        assert p1 != p2

    def test_prompt_contains_options(self):
        prompt, _ = to_instruction(make_item())
        assert "a) uno" in prompt and "d) quattro" in prompt


class TestQaItemIO:
    def test_dict_round_trip(self, tmp_path):
        items = [make_item(i) for i in range(4)]
        path = tmp_path / "items.jsonl"
        write_jsonl(path, [qa_item_to_dict(it) for it in items])
        loaded = [qa_item_from_dict(row, i)
                  for i, row in enumerate(read_jsonl(path))]
        assert loaded == items

    def test_invalid_answer_label(self):
        with pytest.raises(ValueError):
            QaItem(question="q", options={"a": "x"}, answer="z",
                   rationale="r", difficulty=1)

    def test_invalid_difficulty(self):
        with pytest.raises(ValueError):
            QaItem(question="q", options={"a": "x"}, answer="a",
                   rationale="r", difficulty=4)


class TestParagraphSplit:
    def test_blank_line_separation(self):
        text = "primo blocco\nriga due\n\nsecondo blocco\n\n\nterzo"
        assert split_paragraphs(text) == ["primo blocco\nriga due",
                                          "secondo blocco", "terzo"]
