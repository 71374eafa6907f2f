"""Tokenizers: a word splitter for text metrics and a 64-way byte vocab
for the tiny policy model.

The word tokenizer (lowercase, split on whitespace and punctuation) backs
ROUGE-L, shingling, and corpus statistics. The byte-bucket vocab maps each
character to one of 64 ids so the policy can read and emit the tagged
template; characters in its canonical alphabet round-trip exactly, anything
else folds into a shared bucket.
"""

from __future__ import annotations

import re

_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)


def word_tokenize(text: str) -> list[str]:
    """Lowercased word tokens, punctuation and symbols discarded."""
    return _WORD_RE.findall(text.lower())


# 62 canonical characters, one per bucket. Covers the tag grammar
# (<spiegazione>, <risposta>, <think>, '/'), Italian lowercase text,
# digits, and light punctuation.
_CANON_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789<>/ \n.,:;?!'\"-()èéàòùì=+*_"

PAD_ID = 0
EOS_ID = 1


class ByteBucketVocab:
    """Fixed 64-id character vocabulary: PAD=0, EOS=1, 62 character buckets.

    Encoding lowercases first (str.lower, not str.casefold: 'ß' stays one
    character); characters outside the alphabet share the
    final bucket, so decode(encode(s)) == s holds exactly for lowercase
    strings over the canonical alphabet.
    """

    size = 2 + len(_CANON_ALPHABET)  # = 64

    def __init__(self):
        assert self.size == 64
        self._char_to_id = {c: i + 2 for i, c in enumerate(_CANON_ALPHABET)}
        self._id_to_char = {i + 2: c for i, c in enumerate(_CANON_ALPHABET)}
        self.unknown_id = self.size - 1  # last bucket doubles as the fold target

    def encode(self, text: str, add_eos: bool = False) -> list[int]:
        ids = [self._char_to_id.get(c, self.unknown_id) for c in text.lower()]
        if add_eos:
            ids.append(EOS_ID)
        return ids

    def decode(self, ids: list[int]) -> str:
        """Text for the ids; PAD and EOS are dropped, EOS also stops decoding."""
        chars = []
        for i in ids:
            if i == EOS_ID:
                break
            if i == PAD_ID:
                continue
            chars.append(self._id_to_char.get(int(i), "?"))
        return "".join(chars)
