"""Oracles for the engine's per-cache memos.

The adequacy search is memoized per ideal class of the target, element
strings are formatted once per cache and parsed through a memo. The
oracles below recompute the first adequacy witness by brute force from the
public ``ring.add``/``ring.mul``/``ring.neg`` on ``Element``s, in the
ring's own enumeration order, and share no code with the library or with
``tests/oracles.py``.
"""

import hashlib
import json
from collections import Counter

import pytest

from ringlab import engine
from ringlab.concrete import (TableRing, builtin_table_path, export_table_data,
                              make_ring, quotient_ring)
from ringlab.errors import ParseError

VARIANTS = ("classic", "feckly", "cvariant")

ORACLE_SPECS = ("Zn:12", "Zn:30", "prod(Zn:4,Zn:9)", "polyq:9:x^2-1",
                f"table:{builtin_table_path()}",
                "polyq:2:x^6",  # |J| = 32 of 64: large feckly cosets
                "polyq:3:x^3",
                # not Bezout
                "quot(polyq:4:x^2,2x)", "prod(Zn:3,quot(polyq:4:x^2,2x))")


class BruteAdequacy:
    """First (r, s) witnessing adequacy, from the definition.

    Clause (1): c = r*s (classic, cvariant) or c - r*s in J (feckly).
    Clause (2): rR + tR = R. Clause (3): every non-unit s' with s in s'R
    satisfies s'R + aR != R, where a is the target (classic, feckly) or c
    itself (cvariant). Candidates run over r, then s, in enumeration order.
    """

    def __init__(self, ring):
        self.ring = ring
        elems = list(ring.elements())
        self.elems = elems
        pos = {e: i for i, e in enumerate(elems)}
        self.pos = pos
        n = len(elems)
        one = ring.one
        prod = [[pos[ring.mul(x, y)] for y in elems] for x in elems]
        self.prod = prod
        units = {i for i in range(n) if pos[one] in prod[i]}
        ideal = [frozenset(row) for row in prod]
        sums = {}

        def comax(i, j):
            key = (ideal[i], ideal[j])
            if key not in sums:
                sums[key] = any(ring.add(elems[u], elems[v]) == one
                                for u in ideal[i] for v in ideal[j])
            return sums[key]

        self.comax = [[comax(i, j) for j in range(n)] for i in range(n)]
        self.radical = {
            x for x in range(n)
            if all(pos[ring.add(one, ring.neg(elems[prod[x][r]]))] in units
                   for r in range(n))
        }
        self.nonunit_divisors = [
            [d for d in range(n) if d not in units and s in ideal[d]]
            for s in range(n)
        ]
        # preimages[r][v]: every s with r*s = v, ascending
        self.preimages = []
        for r in range(n):
            table = {}
            for s in range(n):
                table.setdefault(prod[r][s], []).append(s)
            self.preimages.append(table)
        self._anchor = {}

    def anchored(self, s, a):
        key = (s, a)
        if key not in self._anchor:
            self._anchor[key] = all(not self.comax[d][a]
                                    for d in self.nonunit_divisors[s])
        return self._anchor[key]

    def first_pair(self, c, t, variant):
        ring, elems, pos = self.ring, self.elems, self.pos
        if variant == "feckly":
            targets = {pos[ring.add(elems[c], ring.neg(elems[j]))]
                       for j in self.radical}
        else:
            targets = {c}
        clause3 = c if variant == "cvariant" else t
        for r in range(len(elems)):
            if not self.comax[r][t]:
                continue
            pre = self.preimages[r]
            for s in sorted(s for v in targets for s in pre.get(v, ())):
                if self.anchored(s, clause3):
                    return r, s
        return None


def assert_memo_matches_brute_force(ring):
    spec = ring.spec_string()
    brute = BruteAdequacy(ring)
    cache = engine.build_cache(ring)
    assert [cache.element(i) for i in range(cache.n)] == brute.elems
    n = len(brute.elems)
    for variant in VARIANTS:
        for ci, c in enumerate(brute.elems):
            expected = {t: brute.first_pair(ci, t, variant) for t in range(n)}
            for t, a in enumerate(brute.elems):
                wit = engine.adequate_witness_single(cache, c, a, variant)
                want = expected[t]
                if want is None:
                    assert wit is None, (spec, variant, str(c), str(a))
                else:
                    got = (brute.pos[wit.r], brute.pos[wit.s])
                    assert got == want, (spec, variant, str(c), str(a))
            flag = engine._adequate_flags(cache, variant)[ci]
            assert flag == (None not in expected.values()), (spec, variant, str(c))


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_adequacy_memo_matches_brute_force(spec):
    assert_memo_matches_brute_force(make_ring(spec))


def unit_before_one_ring():
    """Z/10 as a table ring with 1 and 3 swapped in its enumeration, so
    that its first unit, 3, is not its own inverse."""
    table = export_table_data(make_ring("Zn:10"))
    n, one, u = table["size"], table["one"], 3
    perm = list(range(n))
    perm[one], perm[u] = u, one  # an involution: its own inverse

    def relabel(tab):
        return [[perm[tab[perm[i]][perm[j]]] for j in range(n)] for i in range(n)]

    return TableRing(n, relabel(table["add"]), relabel(table["mul"]),
                     perm[table["zero"]], perm[one], spec_str="Zn:10, 1 and 3 swapped")


def test_adequacy_memo_matches_brute_force_with_a_unit_before_1():
    """The oracle on ``unit_before_one_ring``.

    Every ring ``make_ring`` builds enumerates 1 as its first unit. There
    a unit r after 1 is reached only when no s of r = 1 passes clause (3),
    and then no s of r either: they are associates of those of 1, whether
    read from r^-1*c + I or, wrongly, from r*c + I. Only an enumeration
    like this one tells the two apart.
    """
    ring = unit_before_one_ring()
    cache = engine.build_cache(ring)
    first = min(cache.units)
    assert cache.units[first] != first
    assert_memo_matches_brute_force(ring)


NAME_SPECS = ("Zn:2", "Zn:12", "prod(Zn:4,Zn:9)", "prod(Zn:2,polyq:3:x^2-1)",
              "polyq:2:x^6", "polyq:9:x^2-1", f"table:{builtin_table_path()}")


def _name_rings():
    """One ring of every finite kind, and a quotient (a table ring)."""
    rings = [make_ring(spec) for spec in NAME_SPECS]
    z12 = make_ring("Zn:12")
    rings.append(quotient_ring(z12, [z12.make(4)])[0])
    return rings


@pytest.mark.parametrize("ring", _name_rings(), ids=lambda r: r.spec_string())
def test_names_parse_back_to_their_index(ring):
    """parse_element serves names from the memo once the handle holds its
    cache; a handle of the same spec without one keeps the plain parser,
    gets the same payloads and is not given a cache by parsing."""
    cache = engine.build_cache(ring)
    memo = cache.parsed
    bare = make_ring(ring.spec_string())
    assert len(cache.names) == cache.n
    for i, name in enumerate(cache.names):
        assert name == ring.format_element(cache.element(i))
        got = ring.parse_element(name)
        assert got == cache.element(i) and got.ring is ring
        assert memo[name] == i
        assert memo[name] == i  # second lookup is served by the memo
        plain = bare.parse_element(name)
        assert plain.ring is bare and plain.value == got.value
    assert getattr(bare, "_cache_obj", None) is None


def test_parse_memo_keeps_rejecting_bad_strings():
    cache = engine.build_cache(make_ring("prod(Zn:4,Zn:9)"))
    memo = cache.parsed
    for bad in ("(1|2", "(1|2|3)", "x", 5, None):
        for _ in range(2):
            with pytest.raises(ParseError):
                memo[bad]
    assert "(1|2" not in memo and "x" not in memo


@pytest.mark.parametrize("spec", NAME_SPECS)
def test_parse_element_rejects_on_every_call(spec):
    ring = make_ring(spec)
    engine.build_cache(ring)
    for bad in ("", "(1|2", "x^", "?", "1/2"):
        for _ in range(3):
            with pytest.raises(ParseError):
                ring.parse_element(bad)
        assert bad not in engine.build_cache(ring).parsed


@pytest.mark.parametrize("spec", NAME_SPECS)
def test_parse_element_non_str_keeps_its_exceptions(spec):
    """Input that is not a str bypasses the memo: the same outcome with or
    without a cache (AttributeError from ``.strip()`` for these; bytes
    parse on some kinds and raise TypeError on others)."""
    bare, cached = make_ring(spec), make_ring(spec)
    engine.build_cache(cached)

    def outcome(ring, value):
        try:
            return ring.parse_element(value).value
        except Exception as exc:  # the type is what is compared
            return type(exc)

    for value in (5, None, 1.5, ["1"]):
        assert outcome(bare, value) is AttributeError
        assert outcome(cached, value) is AttributeError
    assert outcome(bare, b"1") == outcome(cached, b"1")


def test_two_handles_of_one_spec_keep_their_elements():
    r1, r2 = make_ring("prod(Zn:4,Zn:9)"), make_ring("prod(Zn:4,Zn:9)")
    engine.build_cache(r1)
    engine.build_cache(r2)
    e1, e2 = r1.parse_element("(1|5)"), r2.parse_element("(1|5)")
    assert e1.ring is r1 and e2.ring is r2
    assert e1.value == e2.value and e1 != e2
    assert r1.parse_element("(1|5)").ring is r1


# sha256 of json.dumps(ring_predicate(cache, p).to_json(), sort_keys=True),
# taken with the engine before the memos were added.
PINNED_PAYLOADS = {
    "Zn:96": {
        "bezout":
            "ff37a9dc144b21f2c5ab96ada28f9df71f53e2066d6bb64484c97ccfe14650c1",
        "hermite":
            "48ad780c1264938522c46fcf0e9b70e73c2fd33ca695331d8b47f02369e57098",
        "regular":
            "76af10bce5634f40b6d0cd6ae7c57e8f9be8d1cc010f8c797817589c0bd318cb",
        "regular_mod_J":
            "c282b89ffd202eb5bd77b77d4f3108ac748e2d38ccb775f7944729ef1b3d5a2b",
        "pi_regular_mod_J":
            "3ecfb182329135517d4c73a4f05e8be1e7ac136221a8eda4fcc37622fed112d6",
        "clean":
            "d58b0129c936bc54159cd3f35f545dc1bcec2f415b57ada828f3bb42bb117887",
        "feckly_clean":
            "f99aa9202bba36ede393c54eb414dbfd11382cbbc3f51b49dadfd3404967fd1d",
        "semiregular":
            "af4ec7e6f10fe7628a896a7db564dd64f2f835e9c1dc090271af3c34d8e29a26",
        "zero_adequate":
            "215e8c2ea42d9e99d4701429c9692581b417a029175af740167738a24340b324",
        "feckly_zero_adequate":
            "1ce802d8ee447621f9ac50f4239bf549540809625ab3e45f0887ac067754d291",
        "stable_range_1":
            "40f887cd78a8722f7ece9a82388964a676496ac5c1376b72c84b13771f3d8d4e",
        "idempotents_lift_mod_J":
            "3f151c71504f15b4a06ba2af8aa893cd1604ac0a12014cad9413b062cf20ad00",
        "t216_cond2":
            "5b401360c0ec2a185b686b3addd1cfb398a2b8e963d021ebebed64932f7e305b",
        "t216_cond3":
            "73653e7cfe52f895f077208d4849193da446a132af8ca3b37d5b606f5ffe9a98",
        "c217_cond2":
            "5ca9d0f85cc42662b1c227e341267af6c9af8e6b765990c956c59df753a37e42",
        "c217_cond3":
            "8958f20d8a3da9784d6582a2c0785f7769c671fbd671dd2c28963a9504d4afdb",
        "feckly_adequate_range_1":
            "8b2ebd2f3a4ba5dba6a8f1651a8d884c739ee6cb81928c4ef57d3d45d2305b5a",
        "everywhere_adequate":
            "a8225290d7fee26ab2f716ee1406e0968ba06893bc95e7383fcbde2c439c6367",
    },
    "polyq:2:x^6": {
        "bezout":
            "19c88ffca2dceff85ebde8ecf6c9527221d51c35fb3603338612a7feeda80314",
        "hermite":
            "251cc4e29bcf6a51a5e1157792869775a22f726315df8626dcb5017d04d80796",
        "regular":
            "2704f1181de18ceec02b702eb2926aed32de93f0e0c77c39447ebb80bed04e08",
        "regular_mod_J":
            "a81815599e96ee319b8283c481dcd33575930699954d196233e048ed733beaa2",
        "pi_regular_mod_J":
            "02b01647d301e6df677fad7fcbba7c83fb2081bbca59fd39d1f89c694ac95f3a",
        "clean":
            "6c816ff17d6fb84095f1bc9a9aaced3f83cd6110fa94a935e748005eed3dbe50",
        "feckly_clean":
            "6c816ff17d6fb84095f1bc9a9aaced3f83cd6110fa94a935e748005eed3dbe50",
        "semiregular":
            "8ffaa485bfe3e3e61cdd0b75d79c496bdb823e2ecd1bbe5da2d18283478b6471",
        "zero_adequate":
            "9fef1deb294a4fdf8f4463d9b3f885596af4b8718b9ee11d9bc3bff27531b096",
        "feckly_zero_adequate":
            "9fef1deb294a4fdf8f4463d9b3f885596af4b8718b9ee11d9bc3bff27531b096",
        "stable_range_1":
            "4874ee3f9707c5392c661f52be8d830f2524c13de5ba1a480b27065a446a4352",
        "idempotents_lift_mod_J":
            "46abee4b9a5872884b1d86e9ea12dcad8d61f341e63cd8768aa34a9c231554c3",
        "t216_cond2":
            "fd1c9e3a922265a446f704af7ea6d4d15b9bd705798390e0a57636aa9bb3d0f9",
        "t216_cond3":
            "6c816ff17d6fb84095f1bc9a9aaced3f83cd6110fa94a935e748005eed3dbe50",
        "c217_cond2":
            "fd1c9e3a922265a446f704af7ea6d4d15b9bd705798390e0a57636aa9bb3d0f9",
        "c217_cond3":
            "6c816ff17d6fb84095f1bc9a9aaced3f83cd6110fa94a935e748005eed3dbe50",
        "feckly_adequate_range_1":
            "34fc77f0b7aea6dc8d6e5f4e1254dbb8a431362077673e807596bdcb690aa28c",
        "everywhere_adequate":
            "e368aa115c72354bb5df71eb1b65ce68c9744c8e5a7971ffc4f18a73c9013d36",
    },
    "prod(Zn:4,Zn:9)": {
        "bezout":
            "1afdececc04ada574393b0d7e076e2d637ebab7724bb592bed7bfbfb90a79964",
        "hermite":
            "dc7941747d7bd5e0bf2700ac236487521d7a129afe9091e789ddfa6e302d84e0",
        "regular":
            "1dcf3c7569a4edc68b0f3926ce9326ca3ee2fade2fedbb138ffeb4b8f038b839",
        "regular_mod_J":
            "3b4420a20ec9d271aa04c37e249b16b4a8ad1a83267b7df582f174569ff6ce9c",
        "pi_regular_mod_J":
            "490a1a6ade1014140c6ba2adb0360ffc54a9a2e4be283a0238aa590559c010a1",
        "clean":
            "e4db68d6cc914b5494b442b684cffd85b371b19e3bf40ae15ed054c050cce152",
        "feckly_clean":
            "e4db68d6cc914b5494b442b684cffd85b371b19e3bf40ae15ed054c050cce152",
        "semiregular":
            "2b516ec96741417040692166bff733a3c23a1da7ef723bfa61946b6a2f881172",
        "zero_adequate":
            "437a84641882280ddf51d58bd56305ae9d1b70ea1503522422fd2e1b0b1ac8de",
        "feckly_zero_adequate":
            "437a84641882280ddf51d58bd56305ae9d1b70ea1503522422fd2e1b0b1ac8de",
        "stable_range_1":
            "bec892d98b153e9ddc0e0f9da3ddb3d32f95f145f18bdf85d6434d89dbd7348e",
        "idempotents_lift_mod_J":
            "ab6aa8f5348248071acbd4f41f19442a357ddaef5916938660cc30cea5e20918",
        "t216_cond2":
            "491656fa871b4a8ec36767d10235651c20531bfd0964699236d59df3db3c02b6",
        "t216_cond3":
            "e4db68d6cc914b5494b442b684cffd85b371b19e3bf40ae15ed054c050cce152",
        "c217_cond2":
            "491656fa871b4a8ec36767d10235651c20531bfd0964699236d59df3db3c02b6",
        "c217_cond3":
            "e4db68d6cc914b5494b442b684cffd85b371b19e3bf40ae15ed054c050cce152",
        "feckly_adequate_range_1":
            "4649bed2c7381039da5630777fe957a9b0a517c9956a44279d82667b42893802",
        "everywhere_adequate":
            "5d77a5bdab1a11049b0edbb4a116e62d3338e7f70178533815a28d2149425684",
    },
}


CONTROL = f"table:{builtin_table_path()}"

# The 8-element non-Bezout control ring: bezout, hermite and regular fail.
PINNED_PAYLOADS[CONTROL] = {
    "bezout":
        "5345c6c4bcd311a3ad1cb6f2f9ea2faa7e40f6197e580ff16709816433b6c35b",
    "hermite":
        "c5486b39927f6f34f17818d36266c13c32af07cf6ab8867ae69a14d4a304857f",
    "regular":
        "4cfd83bd3a7a84428c3ba34dcf211562c300dd7acf68d3293da109308c27d7a5",
    "regular_mod_J":
        "3a1b591fe8f81979fff723000e18683819136380eae7bae9c988650189b478fb",
    "pi_regular_mod_J":
        "4bd410de59a4022901447bbfca03dff94ead21e010a07beda51edc4fdfebc8c6",
    "clean":
        "fa47aebaa45992632af620c14c24f08de5498848c5c9567a9452961e664577a3",
    "feckly_clean":
        "fa47aebaa45992632af620c14c24f08de5498848c5c9567a9452961e664577a3",
    "semiregular":
        "2c26fffde35b37ae235e644e89879f1928b8da4fe5f9929ba4310e2a250e5011",
    "zero_adequate":
        "d53af385d2a153df70345b88401cfaf879dd8fd0051c1d6b62b3bd8b293f27c8",
    "feckly_zero_adequate":
        "d53af385d2a153df70345b88401cfaf879dd8fd0051c1d6b62b3bd8b293f27c8",
    "stable_range_1":
        "02739ea004c0a2b92b320233258fdbd3928e436937bbcf7328362f0f81eddb0a",
    "idempotents_lift_mod_J":
        "dbb5e4ac90bff205b062789f3db8ca74c046fc29550c6a7604b5c00609799643",
    "t216_cond2":
        "0571461cb22623183732d757bf37c5cca987b6370c42572f77f4931d7094a6eb",
    "t216_cond3":
        "fa47aebaa45992632af620c14c24f08de5498848c5c9567a9452961e664577a3",
    "c217_cond2":
        "0571461cb22623183732d757bf37c5cca987b6370c42572f77f4931d7094a6eb",
    "c217_cond3":
        "fa47aebaa45992632af620c14c24f08de5498848c5c9567a9452961e664577a3",
    "feckly_adequate_range_1":
        "a4b1fbfb61abb832e985d9faeb5cc02b6a64536b951773bbf2e99257530fd24b",
    "everywhere_adequate":
        "02783770ca15fcdc5fe8e6c491cd273977f145bd603cb0121f1d55cd0f877f8d",
}


# Three more rings, pinned with the per-item searches before the row kernels.
PINNED_PAYLOADS.update({
    "Zn:60": {
        "bezout":
            "7b8ca173927f009a7042bf5fdff328ff37382bf69069afe2fdc6eee46eeb6a0e",
        "hermite":
            "20e23c5030bc49feccd60678d27dfd8a8844efc2bf9a8b2c2ba892da31f78851",
        "regular":
            "cb8f7f597a6b3ce45e527d64f0df2bbb8c31fa2127fef31079afa33e03a84a77",
        "regular_mod_J":
            "668d98ad783195dcd1b1f506749a6dd8e5bdbada55e16a28cddc2f11992f3216",
        "pi_regular_mod_J":
            "81958c42d6e85a2c27e1a32ff216d7e1617ad2dc62990b16b6428a58ecef102d",
        "clean":
            "1a418db1c0259cfc97ca38aa568bf3ce3ffb2d0e4ced0e356628a134eb267bf5",
        "feckly_clean":
            "53e12c2661aa5bd3b7fa682ffeb1cc4e06c450a9481b0280b7a8faa64d49b2ae",
        "semiregular":
            "48030ca46281af8f56dc3df5b237be34f067ef7801e4590101c6202aa2c43624",
        "zero_adequate":
            "1a27b7865ab098decb308f0f020a58fd9f1cd6191e4e90e67b76493871fce270",
        "feckly_zero_adequate":
            "a6f9cfc3f062db795b3072b4bb90151c07e1f5578578b258bbbf42e94174413a",
        "stable_range_1":
            "0a96c2b13ba06390c1235a8a48884bfbd47c81b6cf9a56904743814448949900",
        "idempotents_lift_mod_J":
            "f60b34a91ed6a602b6059942055b7ad28f037594fb08c538b285b4b78ae31b00",
        "t216_cond2":
            "2ae57cb2501e1659231e459f361f500195e53f560387f61ac73343ed647dba84",
        "t216_cond3":
            "44f93ae5bc60202df1fbf20c9234f10c08e150fac68fcdf590d77092ba160df9",
        "c217_cond2":
            "bf0e7f80e7c09927a9efa502b94a972e24bc84fb70dd341e47263b3be521654d",
        "c217_cond3":
            "fa926b8bf68453db3b8ff91a65e3dbeb80586756d7b5c8513b8fde7754274b18",
        "feckly_adequate_range_1":
            "dd618e53ca9acdf3453f6503a32c71ce7912da882a81a2752db329f527ef80b7",
        "everywhere_adequate":
            "c9eaa4df9f63647af46543830dc2f92fd2c54815d7c45c8066de84fe1aec18d1",
    },
    "polyq:3:x^2-1": {
        "bezout":
            "32a216728061ba606094d870b67fb013453898e2201f6b1395aa45380c7bb37a",
        "hermite":
            "d46db1c676817a4d319e79d5fcb87609d9844a338e69caf608d1209d1f0f185a",
        "regular":
            "f1b6821c25ae423c9a79c6e3eec030cf8a7f5c37be14c8cae26bcc49f3565d7e",
        "regular_mod_J":
            "f1b6821c25ae423c9a79c6e3eec030cf8a7f5c37be14c8cae26bcc49f3565d7e",
        "pi_regular_mod_J":
            "22987ddc3f257e357d187c92400294033eb806ec3c84e0ae26614b31f651020c",
        "clean":
            "9d0ccfa0e7054dd082ef47bc053afada314d1d77ae5f8c89b2ad4fa42e340a86",
        "feckly_clean":
            "9d0ccfa0e7054dd082ef47bc053afada314d1d77ae5f8c89b2ad4fa42e340a86",
        "semiregular":
            "846b95bdcf94d9105967a0ca7e82088a5f558ae05b1a6edeff4b1fb4a52331e1",
        "zero_adequate":
            "e6bbcaaf4bfc180eedec03e96eb354d7ae77e378e175a31bed6d612b6bc058f6",
        "feckly_zero_adequate":
            "e6bbcaaf4bfc180eedec03e96eb354d7ae77e378e175a31bed6d612b6bc058f6",
        "stable_range_1":
            "ac9402afedf7555bfff15b2c3cd6cb12e1f770ec8c7ebd565e006bde6d758d29",
        "idempotents_lift_mod_J":
            "64cd5d32f7f5a12f37b7dc89744ac52e1c4febce64d83615df521aad743701dc",
        "t216_cond2":
            "7d0a17e225b46d634e4badf74448c47162be209dda2aecbdaf7a5f1282bd53fd",
        "t216_cond3":
            "086fa0905f619b3e56b38bb77bc5809f96c98233683cb96c633265f03323f34d",
        "c217_cond2":
            "7d0a17e225b46d634e4badf74448c47162be209dda2aecbdaf7a5f1282bd53fd",
        "c217_cond3":
            "086fa0905f619b3e56b38bb77bc5809f96c98233683cb96c633265f03323f34d",
        "feckly_adequate_range_1":
            "6b362c9d887c6ea82aedccf2ba7b2c9b30493ec504c09f941a5b189675fb6a69",
        "everywhere_adequate":
            "9eff2813359f8297329fb7cbc6e0fa06aa6f80666bb0263df504dddc4378cca5",
    },
    "prod(Zn:2,polyq:3:x^2-1)": {
        "bezout":
            "317f9428c6f5ae21f704f746fda7fb75bedf24d36eee1e1cf86bab598ce9fc9d",
        "hermite":
            "08b8af95150c48445cccab5b528d2d65ccc7800b1f26c2c595db094a1bb2c8b0",
        "regular":
            "1a758241791f67adb0c1754f5cd7477fdafc63dc209ab69616275976268266e3",
        "regular_mod_J":
            "1a758241791f67adb0c1754f5cd7477fdafc63dc209ab69616275976268266e3",
        "pi_regular_mod_J":
            "4248dd9504128b919d671e589d43f56e627c54641dd67cbe10c197f6b79f6e35",
        "clean":
            "cdd512890aef5847b63f836b8cdfac3a40a00dd686713e7c4213c22d9539f3dd",
        "feckly_clean":
            "cdd512890aef5847b63f836b8cdfac3a40a00dd686713e7c4213c22d9539f3dd",
        "semiregular":
            "c4f6ff171d87c8d7fd834b7837905a4a35ff163bf0a8444783dc8dfb2f0db290",
        "zero_adequate":
            "162a70bdba801c18132ea1f0edfbb47a18fb4e4ce9fe13dc82fdbc4e166eb5bd",
        "feckly_zero_adequate":
            "162a70bdba801c18132ea1f0edfbb47a18fb4e4ce9fe13dc82fdbc4e166eb5bd",
        "stable_range_1":
            "acbc4337cbb2bb334ff86eafd0adaaa21bf8f1336dd08fc8b937b5565d26efe2",
        "idempotents_lift_mod_J":
            "2d861637c367e0e2d39d03a3b16649ac6c613ec051e91718133c9e9d98d91ea5",
        "t216_cond2":
            "b5b7b43f5cf7e28ddfb5bfb37b7f9366d4fa14cad15f3f9872156db87e9c2f67",
        "t216_cond3":
            "827db028e15076c569891ab6134a5eb111213a71079df5d0259293ace91202ac",
        "c217_cond2":
            "b5b7b43f5cf7e28ddfb5bfb37b7f9366d4fa14cad15f3f9872156db87e9c2f67",
        "c217_cond3":
            "827db028e15076c569891ab6134a5eb111213a71079df5d0259293ace91202ac",
        "feckly_adequate_range_1":
            "0866d93b5022190e94d518b98bbdf2c38d15f18efbc05477db1f9247ae3a1953",
        "everywhere_adequate":
            "c65c46a01071c5a820178a3e1e93309b7593afd7b3db46496e77f937b1768285",
    },
})

def _spec_id(spec):
    return "control" if spec == CONTROL else spec


@pytest.mark.parametrize("spec", sorted(PINNED_PAYLOADS), ids=_spec_id)
def test_ring_predicate_payloads_are_pinned(spec):
    cache = engine.build_cache(make_ring(spec))
    got = {}
    for pid in engine.RING_PREDICATES:
        text = json.dumps(engine.ring_predicate(cache, pid).to_json(),
                          sort_keys=True)
        got[pid] = hashlib.sha256(text.encode()).hexdigest()
    assert got == PINNED_PAYLOADS[spec]


def test_control_ring_negative_payloads():
    """The negative payloads pinned above, spelled out."""
    cache = engine.build_cache(make_ring(CONTROL))
    got = {pid: engine.ring_predicate(cache, pid).to_json()
           for pid in ("bezout", "hermite", "regular")}
    assert got == {
        "bezout": {"verdict": False,
                   "counterexample": {"a": "2", "b": "4",
                                      "ideal": ["0", "2", "4", "6"],
                                      "note": "no element generates this ideal"},
                   "exercised": {"ideal_pairs": 15}},
        "hermite": {"verdict": False,
                    "counterexample": {"a": "2", "b": "4",
                                       "note": "no comaximal cofactor witness"},
                    "exercised": {"pairs": 64}},
        "regular": {"verdict": False, "counterexample": {"a": "2"},
                    "exercised": {"elements": 8}},
    }


# sha256 of json.dumps([element_predicate(cache, a, p).to_json() for every
# element a in index order], sort_keys=True), taken with the engine before
# the predicate registry replaced its per-predicate branches.
PINNED_ELEMENT_PAYLOADS = {
    "Zn:12": {
        "regular":
            "818219f24378d03dd583fd4ec268e4a76d7774b63df35da867cb5edc06094e26",
        "pi_regular":
            "cf347b1e244051df420d31bc407d6e5bcca1b272db5cc9002c4d74aabd4508ee",
        "clean":
            "e28473a34a10886977755bc0ddcfcec7ef582b00a0e6a7df741b4e7f83178a96",
        "feckly_clean":
            "e361ec6359fa4b5d53e1a369455415eabbf51ed5c0671c6e45a0bd6d2676601d",
        "adequate":
            "f71f1e383d70f833918cde22688197213050b530c4534ccc1d9c43540a52691b",
        "feckly_adequate":
            "d54c427f79841f62acc6f81cfba632874b0fe6e021c99c716cf0e2b8fb9cc7c3",
        "adequate_cvariant":
            "b4f9141faed32031d56cb643d41e79e7699512a1bec89ac2e95a484f00c57f34",
    },
    CONTROL: {
        "regular":
            "666ca5fedeaf75c4346855efad4482d0b02dcbccf64caa0592ee0a402d15ab98",
        "pi_regular":
            "188a3a37444f68928f82a79baccd83ac207ee3c1e4d2a0939089966c972f70cc",
        "clean":
            "b51f75e2a1171f12519258e97dc9d2fa64ae8b97b26e096dcbc3455b2d9c17c9",
        "feckly_clean":
            "b51f75e2a1171f12519258e97dc9d2fa64ae8b97b26e096dcbc3455b2d9c17c9",
        "adequate":
            "5ea701a0a4647496bf04e97f7add4c2123045cf508ee2e702786350ade80c440",
        "feckly_adequate":
            "c533035579ba022c8b7720ea3cb6e40f1b0b8d3902bb37a7595a740ccd78aec3",
        "adequate_cvariant":
            "27c9e2e8ebf63a15e9e8f794014ddf59912063d6b35de90a3a8f1ffc53f1b8e2",
    },
}


@pytest.mark.parametrize("spec", sorted(PINNED_ELEMENT_PAYLOADS), ids=_spec_id)
def test_element_predicate_payloads_are_pinned(spec):
    cache = engine.build_cache(make_ring(spec))
    got = {}
    for pid in engine.ELEMENT_PREDICATES:
        payloads = [engine.element_predicate(cache, cache.element(i), pid).to_json()
                    for i in range(cache.n)]
        text = json.dumps(payloads, sort_keys=True)
        got[pid] = hashlib.sha256(text.encode()).hexdigest()
    assert got == PINNED_ELEMENT_PAYLOADS[spec]


def test_semiregular_decides_its_parts_once(monkeypatch):
    """semiregular and its reverify share one decision of regular_mod_J and
    idempotents_lift_mod_J per cache: the spy on the per-item searches sees
    every item of both domains searched exactly once."""
    searched = Counter()
    real = engine._searcher

    def spy(p, c):
        find = real(p, c)

        def counted(item):
            searched[p.name, item] += 1
            return find(item)
        return counted

    monkeypatch.setattr(engine, "_searcher", spy)
    for spec in ("Zn:12", "prod(Zn:4,Zn:9)", CONTROL):
        cache = engine.build_cache(make_ring(spec))
        res = engine.ring_predicate(cache, "semiregular")
        assert res.verdict
        assert engine.reverify(cache, res) and engine.reverify(cache, res)
        domains = {"regular_mod_J": range(cache.n),
                   "idempotents_lift_mod_J": sorted(cache.quasi_idempotents)}
        for part, domain in domains.items():
            got = {item: k for (name, item), k in searched.items() if name == part}
            assert got == dict.fromkeys(domain, 1), (spec, part)
        searched.clear()


CLASSIFY_SPECS = ("Zn:96", "polyq:2:x^6", "prod(Zn:4,Zn:9)")


@pytest.mark.parametrize("spec", CLASSIFY_SPECS)
def test_class_invariants_are_computed_once_per_class(spec, monkeypatch):
    """On a fresh cache, ``_adequate_flags`` searches only the least
    generator of each ideal class against one target per class, at most
    k^2 searches per variant for k classes; and each bound ``t216_cond2``
    or ``c217_cond2`` kernel, search or check, evaluates at most k*|pool|
    meets, one filter of its pool per class of a. The results themselves
    are guarded by ``assert_memo_matches_brute_force``, the per-item
    reference of ``tests/test_row_kernels.py`` and the payload pins."""
    searched, meet_counts = [], []
    real_pair, real_meet = engine._first_adequate_pair, engine._meet_in_radical

    def pair_spy(c, cval, target, variant):
        searched.append((cval, target))
        return real_pair(c, cval, target, variant)

    def meet_spy(c):
        meets, count = real_meet(c), [0]
        meet_counts.append(count)

        def counted(a, e):
            count[0] += 1
            return meets(a, e)
        return counted

    monkeypatch.setattr(engine, "_first_adequate_pair", pair_spy)
    monkeypatch.setattr(engine, "_meet_in_radical", meet_spy)
    cache = engine.build_cache(make_ring(spec))
    reps = {gens[0] for gens in cache.class_gens}
    k = len(reps)
    assert k < cache.n
    for variant in VARIANTS:
        searched.clear()
        engine._adequate_flags(cache, variant)
        assert 0 < len(searched) <= k * k, (variant, len(searched))
        assert {x for pair in searched for x in pair} <= reps, variant
    for pid, pool in (("t216_cond2", cache.quasi_idempotents),
                      ("c217_cond2", cache.idempotents)):
        meet_counts.clear()
        res = engine.ring_predicate(cache, pid)
        assert res.verdict and engine.reverify(cache, res), pid
        assert len(meet_counts) == 2, pid  # one search, one check
        assert all(0 < count <= k * len(pool) for count, in meet_counts), (
            pid, meet_counts)


@pytest.mark.parametrize("spec", CLASSIFY_SPECS + ("Zn:10, 1 and 3 swapped",))
def test_adequate_flags_follow_the_ideal_class(spec, monkeypatch):
    """Every finite commutative ring is a product of local rings, where
    every element is adequate in all three variants, so the real flags are
    all True and cannot tell how a verdict is spread. Here the spy reports
    no witness for one class representative g at a time: the flags must
    then be False on exactly the class of g, the associates of g."""
    ring = unit_before_one_ring() if "swapped" in spec else make_ring(spec)
    cache = engine.build_cache(ring)
    real, cls = engine._first_adequate_pair, cache.ideal_class
    for g in (gens[0] for gens in cache.class_gens):
        def spy(c, cval, target, variant, g=g):
            return None if cval == g else real(c, cval, target, variant)

        monkeypatch.setattr(engine, "_first_adequate_pair", spy)
        for variant in VARIANTS:
            cache._ext.pop(("adequate_flags", variant), None)
            want = [cls[a] != cls[g] for a in range(cache.n)]
            assert engine._adequate_flags(cache, variant) == want, (spec, g, variant)
