"""The array-native front-end against frozen digests of the object path.

The GateTable IR refactor's contract: for every circuit the library can
produce, the table passes (FT synthesis, peephole) and the table-built
CSR cores (QODG, IIG, the mapper's compiled QODG) are **bitwise
identical** to the object implementations they replaced — same gate
streams, same ancilla names, same adjacency arrays, same LEQA latencies.
Those implementations are gone; their outputs are pinned as digests
recorded from them after asserting that they and the table path agreed
(:data:`FT_DIGESTS`, :data:`QODG_DIGESTS`, :data:`IIG_DIGESTS`,
:data:`COMPILED_DIGESTS`, :data:`LEQA_DIGESTS`,
:data:`OPTIMIZED_FINGERPRINTS`).

The default run covers every benchmark family at tractable parameter
points plus synthetic edge cases (MCF/SWAP kinds, idle qubits, empty
circuits); set ``REPRO_FULL=1`` to sweep the registered library rows up
to the multi-million-gate entries.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pytest

from repro.circuits.circuit import Circuit
from repro.circuits.decompose import synthesize_ft
from repro.circuits.generators import (
    cnot_ladder,
    gf2_multiplier,
    ham3,
    hamming_coder,
    hwb,
    modular_adder,
    random_ft,
    random_reversible,
    ripple_adder,
)
from repro.circuits.library import BENCHMARKS, build_ft
from repro.circuits.optimize import optimize_ft
from repro.circuits.parser import reads_qasm_lite, writes_qasm_lite
from repro.circuits.stream import estimate_stream, stream_table
from repro.circuits.table import TableBuilder
from repro.core.estimator import LEQAEstimator
from repro.core.pipeline import StagedPipeline
from repro.engine import ArtifactCache, CircuitSpec
from repro.engine.runner import sweep_workload, BatchRunner
from repro.exceptions import EstimationError, MappingError
from repro.fabric.params import DEFAULT_PARAMS
from repro.qodg.graph import build_qodg
from repro.qodg.iig import build_iig
from repro.qspr.mapper import QSPRMapper
from repro.qspr.scheduling import _alap_order, compile_qodg, delays_table_token


def _mixed_kinds() -> Circuit:
    """A circuit exercising every synthesis-level kind incl. MCF/SWAP."""
    builder = TableBuilder(7, name="mixed")
    builder.x(0)
    builder.cnot(0, 1)
    builder.toffoli(0, 1, 2)
    builder.fredkin(2, 3, 4)
    builder.swap(5, 6)
    builder.mct((0, 1, 2, 3), 4)
    builder.mcf((0, 1, 2), 5, 6)
    builder.mct((4, 5), 6)
    return Circuit.from_table(builder.finish())


#: (name, builder) cases covering every family; small enough for tier 1.
CASES = [
    ("ham3", ham3),
    ("adder", lambda: ripple_adder(6)),
    ("modadder", lambda: modular_adder(4)),
    ("gf2", lambda: gf2_multiplier(7)),
    ("hwb", lambda: hwb(7)),
    ("ham-coder", lambda: hamming_coder(3)),
    ("random-nct", lambda: random_reversible(6, 120, seed=11)),
    ("random-ft", lambda: random_ft(8, 200, seed=4)),
    ("ladder", lambda: cnot_ladder(5, 2)),
    ("mixed", _mixed_kinds),
    ("empty", lambda: Circuit(3, "empty")),
]

if os.environ.get("REPRO_FULL") == "1":
    CASES += [
        (f"lib:{name}", spec.builder)
        for name, spec in BENCHMARKS.items()
    ]


#: ``fingerprint()`` of each case's peephole-optimized FT table, recorded
#: from the object peephole pass after asserting that it and the table
#: scan produced the same gates and qubit names.
OPTIMIZED_FINGERPRINTS = {
    "ham3": "8024629ab206bf7374ff3b6a79cfb9c8",
    "adder": "55a6e96d978264917ce2d00c090b1ec8",
    "modadder": "8b9569de935b0d3044dd37f0153ad962",
    "gf2": "a167173d93029b8964eabbbedfab2369",
    "hwb": "a1abda3ecb811ac033b039c396495948",
    "ham-coder": "81379f8a74e54ef8738e7a685624df97",
    "random-nct": "1095bf8f820003de24d0ad03ead01996",
    "random-ft": "49740affe9220f6b852916b80f7642c2",
    "ladder": "3d10b5af5550332c634284e429c79507",
    "mixed": "6e6abf1b3b07cab9c107f718701fba42",
    "empty": "8e79fdf1428e95842eaa9af0b22414be",
    # The registry rows, which REPRO_FULL=1 adds to CASES.
    "lib:ham3": "8024629ab206bf7374ff3b6a79cfb9c8",
    "lib:8bitadder": "f65632cd4da3cd2a8250ca6c13ffc5fd",
    "lib:gf2^16mult": "b1fb1ffe354e5d1a94cd148cc621ba5c",
    "lib:hwb15ps": "0fde130eeb4a0e80bc78a54d92e64619",
    "lib:hwb16ps": "7ca7c27da86006f5a83a595db3f660e0",
    "lib:gf2^18mult": "b38747f350403c0761c10a6f7bc334cf",
    "lib:gf2^19mult": "578562f0b1d6cea172a1f52099421f5b",
    "lib:gf2^20mult": "40886d3383e752698686f562a6cbab8e",
    "lib:ham15": "733573c0fcf345735f3a8e3b7a6d96cf",
    "lib:hwb20ps": "3481626e5e00aecb4c0ba62a1407ea0d",
    "lib:hwb50ps": "cb30b36025adf79442d55c1fef6b9733",
    "lib:gf2^50mult": "27b4f61e67e54019e695760e57cc4028",
    "lib:mod1048576adder": "4365c6bb11e4277ac6365f31a6295d57",
    "lib:gf2^64mult": "9b51639cd8480feb10c050926c4c97db",
    "lib:hwb100ps": "4416eb41566a090e7c0a23e4dffe1e23",
    "lib:gf2^100mult": "a25f1ae62810cc98e239500cf2ec4c84",
    "lib:hwb200ps": "3757f18ea5530d13ec1c0a6ebdccc1ee",
    "lib:gf2^128mult": "86501ed5bbb41f7b2dfe20f80c6220ac",
    "lib:gf2^256mult": "c7af38f54fbfdcda5741e946eeb848c3",
}

#: Per case, ``(fingerprint(), names digest)`` of the FT table from
#: ``synthesize_ft`` without and with ``share_ancillas``.  The names
#: digest is :func:`_names_digest`; the fingerprint does not cover the
#: ancilla names.  Recorded from the object synthesis after asserting
#: that its gates and qubit names equalled the table lowering's (every
#: case but ``lib:gf2^256mult``, which was recorded from the table
#: lowering alone).
FT_DIGESTS = {
    "ham3": (
        ("8024629ab206bf7374ff3b6a79cfb9c8", "ceee8ca0f4aa0c61c2ed2565b072e780"),
        ("8024629ab206bf7374ff3b6a79cfb9c8", "ceee8ca0f4aa0c61c2ed2565b072e780"),
    ),
    "adder": (
        ("3042fd30aae49157abc2c2b3fbe2ca18", "f1d21b4194ef754a917295b00d2cb636"),
        ("3042fd30aae49157abc2c2b3fbe2ca18", "f1d21b4194ef754a917295b00d2cb636"),
    ),
    "modadder": (
        ("91f8d9fb2c4f7173cadcee82b21882c2", "8e2d025ab1f0dc7119a0576825d0e704"),
        ("91f8d9fb2c4f7173cadcee82b21882c2", "8e2d025ab1f0dc7119a0576825d0e704"),
    ),
    "gf2": (
        ("3b0a24d8b2f5ea125c2340d8eb59e7b4", "a952b01b50d364a5b9a72a1bbd527933"),
        ("3b0a24d8b2f5ea125c2340d8eb59e7b4", "a952b01b50d364a5b9a72a1bbd527933"),
    ),
    "hwb": (
        ("c965278a2f86757ca0990f04a36dc19a", "ca89f7819bf860d2d09e0c1192d6927e"),
        ("f0b0bcbcf08b93d2835162f4cd659a1d", "633e09b65c30b0722640ba1eb3353f4e"),
    ),
    "ham-coder": (
        ("e70eeacee2fbc7fdbf3c9867e8032b8c", "b99d2148eb60033bb471fd8ea65577f8"),
        ("7bd81f2c4fa0b94f101349d0ff1d9a76", "2e7c213ff0f22b9ba7c8413ab5f2c6f2"),
    ),
    "random-nct": (
        ("db742c058a1e701c9c927803233324bc", "1c39fbf06716094ac80972c63bd105f8"),
        ("db742c058a1e701c9c927803233324bc", "1c39fbf06716094ac80972c63bd105f8"),
    ),
    "random-ft": (
        ("f00c152b5a5b199439b33568453d5b29", "cf323024bb973c4a43a5f81db58618d7"),
        ("f00c152b5a5b199439b33568453d5b29", "cf323024bb973c4a43a5f81db58618d7"),
    ),
    "ladder": (
        ("3d10b5af5550332c634284e429c79507", "afaea8eae5f5cc4c4003fe816106b261"),
        ("3d10b5af5550332c634284e429c79507", "afaea8eae5f5cc4c4003fe816106b261"),
    ),
    "mixed": (
        ("b118fef5ecbd2b3add62ab2ef0c63743", "0c4f34f4e64d966056f38afb414e4e34"),
        ("6e0cc6d083849236fad26fa0d146e255", "1fd684c096f199d770c81d7b5a57c64d"),
    ),
    "empty": (
        ("8e79fdf1428e95842eaa9af0b22414be", "05118e49a7d6703b7a0841e659324b90"),
        ("8e79fdf1428e95842eaa9af0b22414be", "05118e49a7d6703b7a0841e659324b90"),
    ),
    "lib:ham3": (
        ("8024629ab206bf7374ff3b6a79cfb9c8", "ceee8ca0f4aa0c61c2ed2565b072e780"),
        ("8024629ab206bf7374ff3b6a79cfb9c8", "ceee8ca0f4aa0c61c2ed2565b072e780"),
    ),
    "lib:8bitadder": (
        ("be30e6bab9a419494d6d9e53a04aaa0a", "11a23d3f6b62b5d38e2f982fe4dc4272"),
        ("be30e6bab9a419494d6d9e53a04aaa0a", "11a23d3f6b62b5d38e2f982fe4dc4272"),
    ),
    "lib:gf2^16mult": (
        ("b62e9952b7dc26333de458066088c5f4", "2b7c8e68b7a423826cc880d092403695"),
        ("b62e9952b7dc26333de458066088c5f4", "2b7c8e68b7a423826cc880d092403695"),
    ),
    "lib:hwb15ps": (
        ("0cb273347f429eb0baa6bec682be0b18", "4a08063898306dc25f39ab4ce9b5623d"),
        ("fb14e59a3ec0a921d891c3ac66d774a2", "ab120684c50485e2cd18a9df73ef8f74"),
    ),
    "lib:hwb16ps": (
        ("2bdd3a8fce757b393c18ade73f240268", "91762eb14d32847cb3368cdc9efd19b0"),
        ("bf060767aa2200ded8c89eaef58aa39b", "3e8e2f7e31bbcffcacf7aa91fa393ff4"),
    ),
    "lib:gf2^18mult": (
        ("2ebac53b6ff48203161e101fea36d125", "c51637c8f596c3e35df4aa94ea7f2aa4"),
        ("2ebac53b6ff48203161e101fea36d125", "c51637c8f596c3e35df4aa94ea7f2aa4"),
    ),
    "lib:gf2^19mult": (
        ("7a8f26edac733d800291d4d4bcf40efa", "f47515c6193caff11f5ca380917cbb29"),
        ("7a8f26edac733d800291d4d4bcf40efa", "f47515c6193caff11f5ca380917cbb29"),
    ),
    "lib:gf2^20mult": (
        ("a399d0c6c1120745671236699ad07041", "5875518540081462e34c89b66ab3088d"),
        ("a399d0c6c1120745671236699ad07041", "5875518540081462e34c89b66ab3088d"),
    ),
    "lib:ham15": (
        ("64ec39cd2f61e8d29e8f675957ccd515", "97384c35bea29c29f8af03ef7cd34b7f"),
        ("9c89bc3c50b801d8be9c0dd5bbfcf396", "e8a98e0dcf70f41429ef231a781057ea"),
    ),
    "lib:hwb20ps": (
        ("b09e82fc07931a9cb3be5a5cdd4bd615", "adda05c6d51c32760c94cc82ec339417"),
        ("0019667359e7189dc5d53e0236d64aee", "62fd4c36e9a94ec8b7c5f0bab6a07dbb"),
    ),
    "lib:hwb50ps": (
        ("a1a7f7ffe04a0306c0b2072c7ca036e0", "9d9f1372a7f27e2dd9f98c02a7e71e70"),
        ("2d99f708cfced027fcd4a01f376d1bce", "48899e53f1b3f31a23317e6a755f130e"),
    ),
    "lib:gf2^50mult": (
        ("47e485ae33c5a6506a35aa802760d8fb", "f690149e90bb479708add3b354b53361"),
        ("47e485ae33c5a6506a35aa802760d8fb", "f690149e90bb479708add3b354b53361"),
    ),
    "lib:mod1048576adder": (
        ("28e5a60ffe555fbfd01ead70e5123285", "84dc48a31332ebeba460c0933c3af0d3"),
        ("28e5a60ffe555fbfd01ead70e5123285", "84dc48a31332ebeba460c0933c3af0d3"),
    ),
    "lib:gf2^64mult": (
        ("15199745c28d13ca0e7d459defb14368", "6f3723bc879761eefa42be6d4d5395a2"),
        ("15199745c28d13ca0e7d459defb14368", "6f3723bc879761eefa42be6d4d5395a2"),
    ),
    "lib:hwb100ps": (
        ("18888a70f5ed2fe060a1e02210a318a3", "59277c08aa24698950877ae43d6b336c"),
        ("1d5a4bcc18c4ff8a28fb9a8f6189efd3", "f64b2c23620a1495417c739a18433e9a"),
    ),
    "lib:gf2^100mult": (
        ("65dba848630edd6153e860bc292bdc9c", "362228d3ad7617f6e8166778a4a44a37"),
        ("65dba848630edd6153e860bc292bdc9c", "362228d3ad7617f6e8166778a4a44a37"),
    ),
    "lib:hwb200ps": (
        ("cc390dc5777eb5debae7afcae8243033", "1d72999e50a46267caa487b7eebbf6ea"),
        ("0a475d7baf228ebc68a46ff1ef93586d", "1e7816289f0d6269640291ff12009bad"),
    ),
    "lib:gf2^128mult": (
        ("e076403d7309e397b2ad61d3017b8056", "9c547e8d8eefc73b6b9358b94ecae6e8"),
        ("e076403d7309e397b2ad61d3017b8056", "9c547e8d8eefc73b6b9358b94ecae6e8"),
    ),
    "lib:gf2^256mult": (
        ("15afe638af91ab3ed129da735fd43d01", "0e62849ebbcf98088987428213cb9dd6"),
        ("15afe638af91ab3ed129da735fd43d01", "0e62849ebbcf98088987428213cb9dd6"),
    ),
}

#: Per case, the blake2b-16 of the QODG's six CSR arrays (field order,
#: see :func:`_qodg_digest`) of the synthesis-level circuit and of its
#: FT lowering.  Recorded from the object threading, after asserting
#: that the table threading agreed wherever it applied (one- and
#: two-qubit gates; every FT case but ``lib:gf2^256mult``).
QODG_DIGESTS = {
    "ham3": (
        "ffa8a6e8832ae7bb69e9b2d2d35bd926",
        "ffa8a6e8832ae7bb69e9b2d2d35bd926",
    ),
    "adder": (
        "52d0cc5336e601b60d3037795a7bec1d",
        "598479dd5aa50fb2d54cdf020aae6e10",
    ),
    "modadder": (
        "74c2cb00538182982c817cdedf952426",
        "fb107b960b54f95c2b8900104592f0e2",
    ),
    "gf2": (
        "acf84e36bfbf3605782ce108de710a68",
        "488104374088455bb720e61979198fab",
    ),
    "hwb": (
        "6e8d6910c944949a09adce9c6ec3eb07",
        "29294a63c8a02b702ce28aa6dca1c325",
    ),
    "ham-coder": (
        "3df4c983d50d10ea723cec5baec80f9f",
        "39d08bf0e50a3d3b6bf2558e89d887da",
    ),
    "random-nct": (
        "2f668521f121f2d9352ef1c6e8c2dc4e",
        "535c469b68a43ed9de74e82d4e4963e7",
    ),
    "random-ft": (
        "06b45aa23236d993a3282633b23879a2",
        "06b45aa23236d993a3282633b23879a2",
    ),
    "ladder": (
        "8f3b114932bea2dc4388a4006fca9884",
        "8f3b114932bea2dc4388a4006fca9884",
    ),
    "mixed": (
        "9cf531a89235c9aa1d33f6357ed0f1c2",
        "5f45fae4ea8a1f764469b9f71250ac2d",
    ),
    "empty": (
        "b07fac3456977022318382f64e1aa2e8",
        "b07fac3456977022318382f64e1aa2e8",
    ),
    "lib:ham3": (
        "ffa8a6e8832ae7bb69e9b2d2d35bd926",
        "ffa8a6e8832ae7bb69e9b2d2d35bd926",
    ),
    "lib:8bitadder": (
        "76d1580801bcf331760aecc26d8bae7c",
        "4ce89b28d98fa81944bb580f99eee306",
    ),
    "lib:gf2^16mult": (
        "d2a3def0d082d860068ebcd54d9f2da0",
        "19344aa7f0bb470a4164aafee406cf9b",
    ),
    "lib:hwb15ps": (
        "a1e013b27db6d41126c0ff2b220ac303",
        "df192ec57649af8daf10a372006f7935",
    ),
    "lib:hwb16ps": (
        "88a1a8f1fbd23df868a494b1efd134b7",
        "e4760176286c8f504304088df6c9d694",
    ),
    "lib:gf2^18mult": (
        "e93ea96abb3140217038efc6efc52c0c",
        "9c21c8af32ce29b87da34cb8ab094ba2",
    ),
    "lib:gf2^19mult": (
        "beb9c11734736004aa368e2114911b18",
        "58eef939a36b1535d951f90d9f28a075",
    ),
    "lib:gf2^20mult": (
        "10155ac71fb06c4d08bc632671221404",
        "527fc4f7a314a3021848de6a13a0ceea",
    ),
    "lib:ham15": (
        "6441d2d86e34d77189b8f5319608f534",
        "0fb108500821256815ec0b6af93927b7",
    ),
    "lib:hwb20ps": (
        "acd18a136b30d9e8f022c5baf734ecf2",
        "1876cac9a05f440204edd73ee2f6cf21",
    ),
    "lib:hwb50ps": (
        "44ace848b01c86b5fe75a532560045ca",
        "459509d58e7968d38e5b7f16e9f13e9d",
    ),
    "lib:gf2^50mult": (
        "34bbc8683aecc89a6b265c23130499d5",
        "999aa7aeaa5cd878ecf89063e27280c1",
    ),
    "lib:mod1048576adder": (
        "597e85e5ba47e3705839c2e6e3b43a95",
        "b955340970912835e35afb8bb7e0e900",
    ),
    "lib:gf2^64mult": (
        "a42af00f996cc94e7faa3c1a76eb1a89",
        "054920d51ee8b5e79629cd1c32e228de",
    ),
    "lib:hwb100ps": (
        "ba2452b391c730be5b9b5367be17a9f1",
        "c89f1e01880fc2383cdd2cb4ee296090",
    ),
    "lib:gf2^100mult": (
        "55c8a224b5f08d8d30ace15b2fcfe668",
        "5be8d64f96e1bf9280848f4fc9808a83",
    ),
    "lib:hwb200ps": (
        "7d40f3aadffd662d68e9f9d669c9d45d",
        "bbdd9b00cee225a7728efeac09d1c50e",
    ),
    "lib:gf2^128mult": (
        "064b9971672bb5efda98bd29d8d985d7",
        "ad51f9d0bb35f85965d38b01346904e5",
    ),
    "lib:gf2^256mult": (
        "b487e11a51d60d0ab4382bec016737ab",
        "174bc503a88abb489b785a5053206494",
    ),
}

#: Per case, ``build_iig`` of the FT lowering: ``total_weight`` and the
#: blake2b-16 of its five int64 CSR arrays (see :func:`_iig_digest`).
#: Recorded from the object-backed circuit after asserting that its IIG
#: equalled the table-backed one's (every case but ``lib:gf2^256mult``,
#: which was recorded from the table path alone).
IIG_DIGESTS = {
    "ham3": (10, "46f9c319b631bfadf96a51806086259c"),
    "adder": (142, "7e379312730644e9d2bc425e3c741729"),
    "modadder": (86, "e77eb8040d62cd711e74324a5ce7814a"),
    "gf2": (420, "09f77fd78a5bf37945dfa5b3c3a0a6dc"),
    "hwb": (674, "c0b0c73c98bccb09aad6c485339098f4"),
    "ham-coder": (147, "30339e68d27940a614f4651dcc8deca1"),
    "random-nct": (286, "d10c71ce21e1aa392c185ba955def47e"),
    "random-ft": (76, "a8af4ca916b5381304ed17aa01bae143"),
    "ladder": (8, "8e7afcf07b7f676641a1fdb6785a1587"),
    "mixed": (106, "ae20992260f8ecaba9044dd8a52c5b61"),
    "empty": (0, "b07fac3456977022318382f64e1aa2e8"),
    "lib:ham3": (10, "46f9c319b631bfadf96a51806086259c"),
    "lib:8bitadder": (198, "996704e030ab77950bef1d6cb913e0d7"),
    "lib:gf2^16mult": (3972, "22aab0a5a6a8f45229cefea4e34ab29f"),
    "lib:hwb15ps": (2658, "6c18e29ce22b4ed2a68dfabc1b9027b5"),
    "lib:hwb16ps": (4238, "6e1c88b9c4e3ecde1a2b08858432149d"),
    "lib:gf2^18mult": (2880, "3baeb768f326e0c2d47d8c0e225bd544"),
    "lib:gf2^19mult": (5430, "d3d86ea89621cdf088dbbb6b32fcdded"),
    "lib:gf2^20mult": (3558, "e439642a87bed20fc4e866fcf4facd1d"),
    "lib:ham15": (510, "9a7c125745fe4b61d9153bbb3ab8a28e"),
    "lib:hwb20ps": (5662, "3936f8f60b91e78c644bb6d286ef6d6c"),
    "lib:hwb50ps": (20482, "128bc7b29e9b28e6f4bfe5e03f6b9dcc"),
    "lib:gf2^50mult": (37704, "e3186719633bc5bca4abcae25055c5d6"),
    "lib:mod1048576adder": (534, "9488333043f84c99ce86ff95030b61f4"),
    "lib:gf2^64mult": (61860, "f77853c250d450d8be4e6a1a530da052"),
    "lib:hwb100ps": (55982, "075ae492dbd3412078c16c369db62f0d"),
    "lib:gf2^100mult": (90330, "6bec6ca844db489de32d140834047b73"),
    "lib:hwb200ps": (146782, "3fffb6dac1ff81d8fffc47f369dd1d45"),
    "lib:gf2^128mult": (244992, "129ce5026ba9d247804d3f645a942a93"),
    "lib:gf2^256mult": (1221330, "16d91c3d77054c069227aa6154fe631b"),
}

#: Per case, ``compile_qodg`` of the FT lowering at the default delays:
#: ``num_qubits``, the compiled table's ``fingerprint()`` and the
#: blake2b-16 of its ``q0``/``q1``/``delays`` arrays with their dtypes
#: (see :func:`_compiled_digest`).  Recorded like :data:`IIG_DIGESTS`.
COMPILED_DIGESTS = {
    "ham3": (
        3,
        "8024629ab206bf7374ff3b6a79cfb9c8",
        "79855ae18dfea5740c27eadd55c1cc68",
    ),
    "adder": (
        18,
        "3042fd30aae49157abc2c2b3fbe2ca18",
        "9fe0e09af030afb708a319e5c3fa1211",
    ),
    "modadder": (
        12,
        "91f8d9fb2c4f7173cadcee82b21882c2",
        "b2756920e082f9927e7b029e8017d6fb",
    ),
    "gf2": (
        21,
        "3b0a24d8b2f5ea125c2340d8eb59e7b4",
        "aa7a13cb9bad88091dfb2867c38b6eca",
    ),
    "hwb": (
        24,
        "c965278a2f86757ca0990f04a36dc19a",
        "4933370110e2ddf9924424705aa7f146",
    ),
    "ham-coder": (
        17,
        "e70eeacee2fbc7fdbf3c9867e8032b8c",
        "bfe3dca153ed33c0408bdbba57a6035c",
    ),
    "random-nct": (
        6,
        "db742c058a1e701c9c927803233324bc",
        "d9030be59d05dbd81840bbf255d6271d",
    ),
    "random-ft": (
        8,
        "f00c152b5a5b199439b33568453d5b29",
        "442f030d4ded1351c3660b34efc51889",
    ),
    "ladder": (
        5,
        "3d10b5af5550332c634284e429c79507",
        "500b9e5840496c15729e3b6f76636643",
    ),
    "mixed": (
        11,
        "b118fef5ecbd2b3add62ab2ef0c63743",
        "cd65aaae33fd4e10797680c44b614abb",
    ),
    "empty": (
        3,
        "8e79fdf1428e95842eaa9af0b22414be",
        "9df1cf8e26ce43045dbc5b9a0f49163e",
    ),
    "lib:ham3": (
        3,
        "8024629ab206bf7374ff3b6a79cfb9c8",
        "79855ae18dfea5740c27eadd55c1cc68",
    ),
    "lib:8bitadder": (
        24,
        "be30e6bab9a419494d6d9e53a04aaa0a",
        "12eb0e385bbd4329d7c92fbc3e89f310",
    ),
    "lib:gf2^16mult": (
        48,
        "b62e9952b7dc26333de458066088c5f4",
        "f19b15e681e209fec72a061df8568cb5",
    ),
    "lib:hwb15ps": (
        109,
        "0cb273347f429eb0baa6bec682be0b18",
        "8dff7361f607c8a4e38359cc1da614eb",
    ),
    "lib:hwb16ps": (
        213,
        "2bdd3a8fce757b393c18ade73f240268",
        "86a13ad3b2ce392481214884be36f413",
    ),
    "lib:gf2^18mult": (
        54,
        "2ebac53b6ff48203161e101fea36d125",
        "e831e763c6aa100d5c516a1f30d50ba0",
    ),
    "lib:gf2^19mult": (
        57,
        "7a8f26edac733d800291d4d4bcf40efa",
        "8c9e8b7379b53ffe12ae921997b0e8a4",
    ),
    "lib:gf2^20mult": (
        60,
        "a399d0c6c1120745671236699ad07041",
        "048fde6b8c7db0beb365a171535158ba",
    ),
    "lib:ham15": (
        49,
        "64ec39cd2f61e8d29e8f675957ccd515",
        "623100736cecc1e545f6fe98a8ce9203",
    ),
    "lib:hwb20ps": (
        265,
        "b09e82fc07931a9cb3be5a5cdd4bd615",
        "7e8d9de2c31da000a927276fe4aa7199",
    ),
    "lib:hwb50ps": (
        1056,
        "a1a7f7ffe04a0306c0b2072c7ca036e0",
        "3bc2d597001d13cc91212b6925afdb2d",
    ),
    "lib:gf2^50mult": (
        150,
        "47e485ae33c5a6506a35aa802760d8fb",
        "2695d045b62260fa796d1dce7db7324b",
    ),
    "lib:mod1048576adder": (
        60,
        "28e5a60ffe555fbfd01ead70e5123285",
        "f1054c6f3ff30fe095fc5d7a46f63509",
    ),
    "lib:gf2^64mult": (
        192,
        "15199745c28d13ca0e7d459defb14368",
        "c0ca977bfad5af9d0d1f3eb7c3575d76",
    ),
    "lib:hwb100ps": (
        3107,
        "18888a70f5ed2fe060a1e02210a318a3",
        "b3fe657fe7825d6ef2f13dd8c0af0a83",
    ),
    "lib:gf2^100mult": (
        300,
        "65dba848630edd6153e860bc292bdc9c",
        "891ce3a27783c8e5986d79ef74331a87",
    ),
    "lib:hwb200ps": (
        8608,
        "cc390dc5777eb5debae7afcae8243033",
        "9a536402e9a3b1f9c0b8a0a029be9854",
    ),
    "lib:gf2^128mult": (
        384,
        "e076403d7309e397b2ad61d3017b8056",
        "bd0590b6544475cb8ce29b65f4f7c7a6",
    ),
    "lib:gf2^256mult": (
        768,
        "15afe638af91ab3ed129da735fd43d01",
        "44945876b92d88d10180b518abd694bb",
    ),
}

#: LEQA on ``gf2_multiplier(6)`` and ``hwb(6)`` at ``DEFAULT_PARAMS``:
#: latency and ``l_avg_cnot`` float hex, then blake2b-16 of the
#: critical node ids (int64).  Recorded after asserting that the object
#: synthesis and the table lowering gave the same numbers.
LEQA_DIGESTS = {
    "gf2": (
        "0x1.b907fe114feabp+20",
        "0x1.ba4c371c1068dp+9",
        "82a8abe766594203e72668567bd2be2b",
    ),
    "hwb": (
        "0x1.c07c735416fcfp+22",
        "0x1.bbfd48477b117p+9",
        "589650bbbf54ab3da697a4dc28b15f0f",
    ),
}

#: The QODG's six CSR arrays, in field order.
QODG_FIELDS = (
    "pred_indptr",
    "pred_indices",
    "succ_indptr",
    "succ_indices",
    "qubit_indptr",
    "qubit_ops",
)

#: The IIG's five CSR arrays, in field order.
IIG_FIELDS = ("indptr", "indices", "weights", "degrees", "weight_sums")


def _object_backed(circuit: Circuit) -> Circuit:
    """A copy rebuilt gate by gate through :meth:`Circuit.append`."""
    clone = Circuit(0, circuit.name)
    for name in circuit.qubit_names:
        clone.add_qubit(name)
    clone.extend(circuit.gates)
    return clone


def _blake(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _names_digest(circuit: Circuit) -> str:
    return _blake("\0".join(circuit.qubit_names).encode())


def _qodg_digest(circuit: Circuit) -> str:
    qodg = build_qodg(circuit)
    for field in QODG_FIELDS:
        # The digest covers bytes only, so the dtype is pinned here.
        assert getattr(qodg, field).dtype == np.int64, field
    return _blake(b"".join(getattr(qodg, field).tobytes() for field in QODG_FIELDS))


def _iig_digest(circuit: Circuit) -> tuple[int, str]:
    iig = build_iig(circuit)
    for field in IIG_FIELDS:
        assert getattr(iig, field).dtype == np.int64, field
    return (
        int(iig.total_weight),
        _blake(b"".join(getattr(iig, field).tobytes() for field in IIG_FIELDS)),
    )


def _compiled_digest(circuit: Circuit) -> tuple[int, str, str]:
    delays = DEFAULT_PARAMS.delays.by_kind()
    compiled = compile_qodg(circuit, delays)
    assert compiled.delays_token == delays_table_token(delays)
    arrays = (compiled.q0, compiled.q1, compiled.delays)
    return (
        int(compiled.num_qubits),
        compiled.table.fingerprint(),
        _blake(b"\0".join(a.dtype.str.encode() + a.tobytes() for a in arrays)),
    )


def _assert_same_gates(left: Circuit, right: Circuit) -> None:
    assert left.qubit_names == right.qubit_names
    assert list(left.gates) == list(right.gates)


@pytest.mark.parametrize("label,make", CASES, ids=[c[0] for c in CASES])
class TestFrontEndEquivalence:
    def test_ft_synthesis_bitwise_identical(self, label, make):
        ft = synthesize_ft(make())
        assert (ft.table().fingerprint(), _names_digest(ft)) == FT_DIGESTS[label][0]
        assert ft.content_fingerprint() == FT_DIGESTS[label][0][0]

    def test_ft_synthesis_shared_ancillas(self, label, make):
        ft = synthesize_ft(make(), share_ancillas=True)
        assert (ft.table().fingerprint(), _names_digest(ft)) == FT_DIGESTS[label][1]

    def test_optimize_matches_frozen_fingerprint(self, label, make):
        ft = synthesize_ft(make())
        optimized = optimize_ft(ft)
        assert optimized.qubit_names == ft.qubit_names
        assert optimized.table().fingerprint() == OPTIMIZED_FINGERPRINTS[label]

    def test_qodg_csr_arrays_identical(self, label, make):
        circuit = make()
        ft = synthesize_ft(circuit)
        assert (_qodg_digest(circuit), _qodg_digest(ft)) == QODG_DIGESTS[label]

    def test_iig_arrays_identical(self, label, make):
        assert _iig_digest(synthesize_ft(make())) == IIG_DIGESTS[label]

    def test_compiled_qodg_identical(self, label, make):
        assert _compiled_digest(synthesize_ft(make())) == COMPILED_DIGESTS[label]

    def test_fingerprints_agree_across_backings(self, label, make):
        # A circuit rebuilt gate by gate holds the same table.
        for circuit in (make(), synthesize_ft(make())):
            rebuilt = _object_backed(circuit)
            assert rebuilt.table().same_content(circuit.table())
            assert rebuilt.content_fingerprint() == circuit.content_fingerprint()


def test_every_case_has_a_frozen_fingerprint():
    labels = {label for label, _ in CASES}
    labels |= {f"lib:{name}" for name in BENCHMARKS}
    for digests in (
        OPTIMIZED_FINGERPRINTS,
        FT_DIGESTS,
        QODG_DIGESTS,
        IIG_DIGESTS,
        COMPILED_DIGESTS,
    ):
        assert labels == set(digests)


@pytest.mark.parametrize("backing", ["table", "object"])
def test_gf2_16_qodg_and_alap_order_digests_pinned(backing):
    # blake2b-16 digests recorded before the QODG became one record of
    # its CSR arrays: the six arrays' bytes in field order, and the
    # ALAP visit order the mapper's order="alap" schedules follow.
    ft = build_ft("gf2^16mult")
    if backing == "object":
        ft = _object_backed(ft)
    qodg = build_qodg(ft)
    arrays = b"".join(getattr(qodg, field).tobytes() for field in QODG_FIELDS)
    assert (
        hashlib.blake2b(arrays, digest_size=16).hexdigest()
        == "19344aa7f0bb470a4164aafee406cf9b"
    )
    order = np.array(
        _alap_order(ft, DEFAULT_PARAMS.delays.by_kind()), np.int64
    )
    assert (
        hashlib.blake2b(order.tobytes(), digest_size=16).hexdigest()
        == "4852ad62d86ce073d40373d094e7c169"
    )


class TestEstimationEquivalence:
    """LEQA latencies and mapper schedules across the two front-ends."""

    @pytest.mark.parametrize(
        "label,make",
        [("gf2", lambda: gf2_multiplier(6)), ("hwb", lambda: hwb(6))],
        ids=["gf2", "hwb"],
    )
    def test_leqa_latency_bitwise_equal(self, label, make):
        estimate = LEQAEstimator(params=DEFAULT_PARAMS).estimate(
            synthesize_ft(make())
        )
        node_ids = np.asarray(estimate.critical.node_ids, dtype=np.int64)
        assert (
            float(estimate.latency).hex(),
            float(estimate.l_avg_cnot).hex(),
            _blake(node_ids.tobytes()),
        ) == LEQA_DIGESTS[label]

    def test_mapper_schedule_bitwise_equal(self):
        table_ft = synthesize_ft(gf2_multiplier(5))
        legacy_ft = _object_backed(table_ft)
        mapper = QSPRMapper(params=DEFAULT_PARAMS)
        fast = mapper.map(table_ft)
        slow = mapper.map(legacy_ft)
        assert fast.latency == slow.latency
        assert fast.schedule.finish_times == slow.schedule.finish_times
        assert fast.schedule.final_locations == slow.schedule.final_locations
        assert fast.schedule.stats == slow.schedule.stats


def _swap_bearing() -> Circuit:
    builder = TableBuilder(3, name="swap-bearing")
    builder.h(0)
    builder.cnot(0, 1)
    builder.swap(1, 2)
    builder.t(2)
    return Circuit.from_table(builder.finish())


def _toffoli_bearing() -> Circuit:
    builder = TableBuilder(3, name="toffoli-bearing")
    builder.h(0)
    builder.toffoli(0, 1, 2)
    builder.swap(0, 2)
    return Circuit.from_table(builder.finish())


@pytest.mark.parametrize(
    "make,kind",
    [(_swap_bearing, "swap"), (_toffoli_bearing, "toffoli")],
    ids=["swap", "toffoli"],
)
class TestNonFtErrorParity:
    """Every entry point names the first non-FT gate's kind, alike."""

    def test_estimators_raise_one_error(self, make, kind):
        circuit = make()
        pipeline = StagedPipeline()
        oracle = LEQAEstimator(vectorized=False)
        grid = [DEFAULT_PARAMS, DEFAULT_PARAMS.with_fabric(20, 20)]
        messages = []
        for backing in (circuit, _object_backed(circuit)):
            with pytest.raises(EstimationError) as run_error:
                pipeline.run(backing, DEFAULT_PARAMS)
            with pytest.raises(EstimationError) as sweep_error:
                pipeline.sweep(backing, grid)
            with pytest.raises(EstimationError) as oracle_error:
                oracle.estimate(backing)
            messages += [
                str(run_error.value),
                str(sweep_error.value),
                str(oracle_error.value),
            ]
        for chunk_size in (1, len(circuit) + 10):
            with pytest.raises(EstimationError) as stream_error:
                estimate_stream(
                    stream_table(circuit.table(), chunk_size), DEFAULT_PARAMS
                )
            messages.append(str(stream_error.value))
        expected = (
            f"gate kind {kind!r} is not an FT operation; "
            "run synthesize_ft() before estimating"
        )
        assert messages == [expected] * 8

    def test_compile_qodg_raises_one_error(self, make, kind):
        circuit = make()
        messages = []
        for backing in (circuit, _object_backed(circuit)):
            with pytest.raises(MappingError) as error:
                compile_qodg(backing, DEFAULT_PARAMS.delays.by_kind())
            messages.append(str(error.value))
        expected = (
            f"gate kind {kind!r} is not executable on the fabric; "
            "run synthesize_ft() first"
        )
        assert messages == [expected] * 2


class TestToffoliTemplate:
    def test_template_is_the_textbook_network(self):
        """The Nielsen & Chuang Fig. 4.9 network drawn in the paper's
        Figure 2(a), gate for gate."""
        from repro.circuits.decompose import toffoli_to_ft_gates
        from repro.circuits.gates import cnot, h, t, tdg

        a, b, c = 0, 1, 2
        assert toffoli_to_ft_gates(a, b, c) == [
            h(c), cnot(b, c), tdg(c), cnot(a, c), t(c), cnot(b, c),
            tdg(c), cnot(a, c), t(b), t(c), cnot(a, b), h(c), t(a),
            tdg(b), cnot(a, b),
        ]


class TestTableRoundtrips:
    def test_parser_roundtrip_table_backed(self):
        circuit = _mixed_kinds()
        recovered = reads_qasm_lite(writes_qasm_lite(circuit))
        _assert_same_gates(circuit, recovered)

    def test_incremental_fingerprint_tracks_appends(self):
        from repro.circuits.gates import cnot, h

        base = reads_qasm_lite("qubits 3\nh q0\ncnot q0 q1\n")
        grown = reads_qasm_lite("qubits 3\nh q0\n")
        assert base.content_fingerprint() != grown.content_fingerprint()
        grown.append(cnot(0, 1))  # the cached digest must not go stale
        assert base.content_fingerprint() == grown.content_fingerprint()
        grown.append(h(2))
        assert base.content_fingerprint() != grown.content_fingerprint()

    def test_fingerprint_restarts_after_register_growth(self):
        left = reads_qasm_lite("qubits 2\ncnot q0 q1\n")
        right = reads_qasm_lite("qubits 2\ncnot q0 q1\n")
        right.content_fingerprint()
        right.add_qubit("anc")
        left3 = reads_qasm_lite("qubits 2\nqubit anc\ncnot q0 q1\n")
        assert right.content_fingerprint() == left3.content_fingerprint()
        assert right.content_fingerprint() != left.content_fingerprint()


class TestWorkloadSweepCaching:
    def test_batch_sweep_lowers_each_member_exactly_once(self):
        """The keyed ft stage: members x grid builds |members| netlists."""
        runner = BatchRunner(workers=1, cache=ArtifactCache())
        grid = [
            DEFAULT_PARAMS.with_fabric(size, size) for size in (20, 30, 40)
        ]
        results = sweep_workload(
            "qecc",
            overrides={"r_min": 2, "r_max": 4},
            params_grid=grid,
            runner=runner,
        )
        members = 3  # r = 2, 3, 4
        assert len(results) == members * len(grid)
        assert all(point.ok for point in results)
        stats = runner.cache.stats()
        assert stats.miss_count("ft") == members
        assert stats.hit_count("ft") == members * (len(grid) - 1)

    def test_workload_spec_loads_members(self):
        spec = CircuitSpec("workload:gf2/n=5", ft=True)
        circuit = spec.build()
        assert circuit.is_ft()
        assert circuit.num_qubits >= 15
