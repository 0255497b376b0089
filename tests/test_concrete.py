import json
from pathlib import Path

import pytest

from ringlab.concrete import (
    builtin_table_path,
    export_table_data,
    format_int_poly,
    localized_residue_map,
    make_ring,
    parse_int_poly,
    quotient_ring,
)
from ringlab.engine import build_cache
from ringlab.errors import AxiomViolation, ParseError, TooLarge, UnsupportedSpec


def test_poly_string_helpers():
    assert parse_int_poly("x^2-1") == (-1, 0, 1)
    assert parse_int_poly("3+2x") == (3, 2)
    assert parse_int_poly("x^3") == (0, 0, 0, 1)
    assert parse_int_poly("-x") == (0, -1)
    assert parse_int_poly("0") == (0,)
    assert format_int_poly((-1, 0, 1), descending=True) == "x^2-1"
    assert format_int_poly((3, 2)) == "3+2x"
    with pytest.raises(ParseError):
        parse_int_poly("3**y")
    with pytest.raises(ParseError):
        parse_int_poly("3++2")


def test_make_ring_validation():
    assert make_ring("Zn:12").cardinality == 12
    assert make_ring("zloc:{3,5}").primes == (3, 5)
    assert make_ring("polyq:6:x^2-1").cardinality == 36
    with pytest.raises(UnsupportedSpec):
        make_ring("Zn:1")
    with pytest.raises(ParseError):
        make_ring("Zn:abc")
    with pytest.raises(ParseError):
        make_ring("mystery")
    with pytest.raises(UnsupportedSpec):
        make_ring("zloc:{4}")  # not prime
    with pytest.raises(UnsupportedSpec):
        make_ring("zloc:{3,3}")  # repeated
    with pytest.raises(UnsupportedSpec):
        make_ring("polyq:0:x^2+1")  # modulus 0 only with x^2-1
    with pytest.raises(UnsupportedSpec):
        make_ring("polyq:5:2x^2-1")  # not monic


def test_polyq_cardinality_is_modulus_power():
    for n, f, want in ((6, "x^2-1", 36), (5, "x^3", 125), (3, "x^2", 9)):
        assert make_ring(f"polyq:{n}:{f}").cardinality == want


def test_product_nesting_and_parse():
    ring = make_ring("prod(Zn:2,prod(Zn:2,Zn:3))")
    assert ring.cardinality == 12
    e = ring.parse_element("(1|(0|2))")
    assert ring.format_element(e) == "(1|(0|2))"
    with pytest.raises(UnsupportedSpec):
        make_ring("prod(Z,Zn:2)")  # factors must be finite


def test_table_ring_load_and_reject(tmp_path):
    ring = make_ring(f"table:{builtin_table_path()}")
    assert ring.cardinality == 8
    data = json.loads(Path(builtin_table_path()).read_text())
    data["mul"][3][4] = 7  # breaks commutativity/associativity somewhere
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(AxiomViolation):
        make_ring(f"table:{bad}")
    with pytest.raises(ParseError):
        make_ring(f"table:{tmp_path / 'missing.json'}")


def test_quotient_z12_by_4():
    Z12 = make_ring("Zn:12")
    q, proj = quotient_ring(Z12, [Z12.make(4)])
    assert q.cardinality == 4
    # isomorphic to Z/4: the image of 1 has additive order 4
    one = proj[Z12.make(1)]
    acc, order = one, 1
    while acc != q.zero:
        acc = q.add(acc, one)
        order += 1
    assert order == 4
    # projection is a homomorphism on a sample
    for a in (3, 7, 10):
        for b in (1, 5, 11):
            pa, pb = proj[Z12.make(a)], proj[Z12.make(b)]
            assert proj[Z12.add(Z12.make(a), Z12.make(b))] == q.add(pa, pb)
            assert proj[Z12.mul(Z12.make(a), Z12.make(b))] == q.mul(pa, pb)


def test_quotient_trivial_and_product():
    Z12 = make_ring("Zn:12")
    q, _ = quotient_ring(Z12, [Z12.one])
    assert q.cardinality == 1
    P = make_ring("prod(Zn:6,Zn:6)")
    gen = P.make((2, 3))
    q, _ = quotient_ring(P, [gen])
    ideal_size = 36 // q.cardinality
    assert q.cardinality == 6 and ideal_size == 6


def test_quot_spec_roundtrip():
    ring = make_ring("quot(Zn:12,4)")
    assert ring.cardinality == 4
    assert ring.spec_string() == "quot(Zn:12,4)"


def test_localized_residue_map_examples():
    zl = make_ring("zloc:{3,5}")
    target, mapping = localized_residue_map(zl)
    assert target.spec_string() == "prod(Zn:3,Zn:5)"
    assert mapping(zl.parse_element("7/2")).value == (2, 1)
    assert mapping(zl.parse_element("15")).value == (0, 0)
    assert mapping(zl.parse_element("1")).value == (1, 1)


def test_export_table_data_roundtrip(tmp_path):
    Z6 = make_ring("Zn:6")
    data = export_table_data(Z6)
    path = tmp_path / "z6.json"
    path.write_text(json.dumps(data))
    clone = make_ring(f"table:{path}")
    assert clone.cardinality == 6
    # same multiplication structure
    assert clone.mul(clone.make(2), clone.make(3)) == clone.make(0)


def test_cache_too_large():
    big = make_ring("Zn:5000")
    with pytest.raises(TooLarge):
        build_cache(big)
