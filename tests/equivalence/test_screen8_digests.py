"""Screen 8's ranked candidate lists, pinned byte for byte.

The ranked list is built off the OCS matrix, which keeps its cells per
row by column position; these digests were recorded at commit 3f4395e,
when it kept one dict entry per cell and ranked on a five-part sort key,
and must not move: pair order, equivalent-attribute counts, ratios and
the work counters (cells recomputed and served, rankings rebuilt).

Each world is set up as perfbench's ``sitting`` workload sets it up
(seed-1 worlds, 34 concepts, overlap 0.6, category rate 1.0, two planted
contradictions, every true attribute equivalence declared), plus one
136-concept world of 442 classes.  Both lists are ranked (with and
without the zero-similarity pairs) and ranked again from the memo; then
one attribute leaves its equivalence class and both lists are ranked
again.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.equivalence.session import AnalysisSession
from repro.workloads.generator import GeneratorConfig, generate_schema_pair

#: (world seed, concepts): 1000-1002 are the first three worlds of a
#: perfbench ``sitting`` run at seed 1 (114 classes each); the first is
#: also drawn at 136 concepts (442 classes).
WORLDS = [(1000, 34), (1001, 34), (1002, 34), (1000, 136)]

#: SHA-256 per (world seed, concepts, stage.what), recorded at commit
#: 3f4395e.
GOLDEN = {
    (1000, 34, "ranked.all"): "5114feaf5bd301fd7663777d49427dd9d541055b7eb0640304adf0afaf251cc6",
    (1000, 34, "ranked.candidates"): "9d92e36951b745ed35a1290dcf4b9f20235518bcc2e5250259cbf3f1b7f8ec43",
    (1000, 34, "ranked.counters"): "3185db1ca92aefc07a24f64619f1e61e3e1c3547c99bd8ed4aba586eb0cfaf88",
    (1000, 34, "edited.all"): "fe1b4a0d21f81d1945b9c6b682c4ec44ba3a964144a53c1f5dfe1ee1a608dac1",
    (1000, 34, "edited.candidates"): "df87d1ff6cc95d8e7b059925625d6a8bf82051f333fd2973dd3a6d51e4b28eb3",
    (1000, 34, "edited.counters"): "0f53e1abc9aace136591803cebd3d1ac47a1453d51bb1e78f36f1832f455b97f",
    (1001, 34, "ranked.all"): "4a21519dfa4cb69e3c32cce32c9cc4491366f59af02177b09118055747e6e397",
    (1001, 34, "ranked.candidates"): "ba1ad34819e32a302ba31ffe1602f4539e9601bae4886ca7b4fcecd375e5f99c",
    (1001, 34, "ranked.counters"): "3185db1ca92aefc07a24f64619f1e61e3e1c3547c99bd8ed4aba586eb0cfaf88",
    (1001, 34, "edited.all"): "2f47b3419f422d9a1559dfe66390488245f860b712851d722837a75e87338fef",
    (1001, 34, "edited.candidates"): "5ee50dc3e51b06ab605d8bfd96f041615cc9e36660e4621fcca6686161ee13b9",
    (1001, 34, "edited.counters"): "0f53e1abc9aace136591803cebd3d1ac47a1453d51bb1e78f36f1832f455b97f",
    (1002, 34, "ranked.all"): "887b31a321000a254d84da49ebb9ffb03c789a9522f859a19bb034e7fe0d8e17",
    (1002, 34, "ranked.candidates"): "351971e879336564fdf35860d6a44aba019c02429f5f8965d561d8875a0e57d7",
    (1002, 34, "ranked.counters"): "3185db1ca92aefc07a24f64619f1e61e3e1c3547c99bd8ed4aba586eb0cfaf88",
    (1002, 34, "edited.all"): "0f5bdb18a2dc02d20cb82d9d55f6200300058300f6c717c637752d133cd11357",
    (1002, 34, "edited.candidates"): "952c989fa0c9c328ef606f6421a2d1477b3d0834ce4cfc7a5c3b6899bed2e99b",
    (1002, 34, "edited.counters"): "0f53e1abc9aace136591803cebd3d1ac47a1453d51bb1e78f36f1832f455b97f",
    (1000, 136, "ranked.all"): "fc596ddf3491f03d824ddcc6fa5443a386ecd28ecb53de45200ec286a331cd77",
    (1000, 136, "ranked.candidates"): "34b64ac72fe95e474f8e795611d67d54250fd7dc8e40c9d473e75a025b1974c9",
    (1000, 136, "ranked.counters"): "ace59c9e4701830a7049d4d67d87223b7b6f96d5770d85ae30ce8f5840619342",
    (1000, 136, "edited.all"): "c14beb6d9b0eaaf875e54a2cef991011ef81de6689755d8db1e56c95853b5c74",
    (1000, 136, "edited.candidates"): "7cd35cfb992ca49c9eccd91e6cad79e39cf289cd01d9867d518a4fbe22e35020",
    (1000, 136, "edited.counters"): "460a5ccec7caed38d452ed20db52a66c06481227bb7a1f89c8a7cab16ed321b6",
}


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, separators=(",", ":")).encode()
    ).hexdigest()


def _wire(pairs) -> list:
    return [
        [
            str(pair.first),
            str(pair.second),
            pair.equivalent_attributes,
            repr(pair.attribute_ratio),
        ]
        for pair in pairs
    ]


def _ranked(session, first: str, second: str, stage: str) -> dict[str, str]:
    ranked_all = session.candidate_pairs(first, second, include_zero=True)
    candidates = session.candidate_pairs(first, second)
    assert session.candidate_pairs(first, second, include_zero=True) == ranked_all
    assert session.candidate_pairs(first, second) == candidates
    return {
        f"{stage}.all": _digest(_wire(ranked_all)),
        f"{stage}.candidates": _digest(_wire(candidates)),
        f"{stage}.counters": _digest(session.counters_snapshot()),
    }


def screen8_digests(world_seed: int, concepts: int) -> dict[str, str]:
    pair = generate_schema_pair(
        GeneratorConfig(
            seed=world_seed,
            concepts=concepts,
            overlap=0.6,
            category_rate=1.0,
            contradictions=2,
        )
    )
    session = AnalysisSession([pair.first, pair.second])
    declared = sorted(pair.truth.attribute_pairs)
    for left, right in declared:
        session.declare_equivalent(left, right)
    session.reset_counters()
    first, second = pair.first.name, pair.second.name
    digests = _ranked(session, first, second, "ranked")
    # one Screen 7 delete dirties a row or a column: only its cells
    # are counted again
    session.remove_from_class(declared[0][0])
    digests.update(_ranked(session, first, second, "edited"))
    return digests


@pytest.mark.parametrize(("world_seed", "concepts"), WORLDS)
def test_screen8_lists_match_their_golden_digests(world_seed, concepts):
    digests = screen8_digests(world_seed, concepts)
    assert digests == {
        what: digest
        for (seed, size, what), digest in GOLDEN.items()
        if (seed, size) == (world_seed, concepts)
    }
