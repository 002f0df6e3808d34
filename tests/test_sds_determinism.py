"""Pinned outcomes of sds_search.

For every supported length the panel fixes how many pairs sds_search
returns and the sha256 of their "r s" texts (each sequence written as
+/- characters) joined by newlines, so
the set of pairs, the canonical representative of each sequence and the
order of the list are all pinned.  The values were recorded with the
hash-bucket implementation, before the search moved onto sorted PAF keys
and integer canonical codes; they held again when the search began to
match canonical sequences only, instead of deduplicating all matches.
"""

import hashlib

import pytest

from approxhad.families import sds_search

# half -> (number of pairs, sha256 of the newline-joined "r s" texts)
SDS_PANEL = {
    1: (1, "75f9d4f11ae6fa5729e4080d39113a7d3dd31f7d7b64ba11ab23d7c9c79a16d6"),
    2: (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    3: (2, "0078ae2aaff6ee5a8dcffd7073f88675bf12bdb3c2baff5d034e03e74ea0cbe5"),
    4: (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    5: (1, "21cfbb46013ab4ea80ddd865e1865484347b237bcc90708ee6377cbfa9f270af"),
    6: (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    7: (4, "941aa229b87dcc246cf1f2bf863acba5385c44c5444dd79e1431cdd1065e723c"),
    8: (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    9: (12, "591297b2eeb20b016d37ab433c7a89403eb546d4aad56001a0e2c71d56ad6ce6"),
    10: (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    11: (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    12: (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    13: (40, "ee5247b3e17b2655ec6f689852e1f0c32c79658a64c7e9e12bfe48e3de6d0411"),
    14: (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    15: (72, "f40d37a19001213e8d9a22732137114e196fbacb8ad4f5b91b3ee1c386384309"),
    16: (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


def signs(seq):
    return "".join("+" if v > 0 else "-" for v in seq)


@pytest.mark.parametrize("half", sorted(SDS_PANEL))
def test_sds_search_is_pinned(half):
    pairs = sds_search(half)
    count, digest = SDS_PANEL[half]
    assert len(pairs) == count
    text = "\n".join(f"{signs(p.r)} {signs(p.s)}" for p in pairs)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "half,message",
    [(0, "length must be >= 1"), (17, "exhaustive search supports lengths up to 16")],
)
def test_sds_search_rejects_unsupported_lengths(half, message):
    with pytest.raises(ValueError, match=message):
        sds_search(half)

