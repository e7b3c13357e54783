from __future__ import annotations

import json
import re

import pytest

import spotbatch
from spotbatch import catalog as cat
from spotbatch.errors import MissingRecordError, ParseError, ValidationError


def minimal_doc():
    return {
        "instances": [
            {"name": "g4dn.4xl", "vcpus": 16, "gpus": 1, "gpu_model": "T4", "family": "g4dn"},
        ],
        "regions": [{"name": "us-east-1", "spot_pool": {"g4dn": 10}}],
        "prices": [
            {"instance": "g4dn.4xl", "region": "us-east-1", "on_demand_per_hour": 1.204, "spot_fraction": 0.30}
        ],
    }


def test_load_and_lookup(tmp_path):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(minimal_doc()))
    c = cat.load_catalog(path)
    inst = c.instance("g4dn.4xl")
    assert inst.vcpus == 16 and inst.gpus == 1 and inst.gpu_model == "T4"
    assert cat.lookup_rate(c, "g4dn.4xl", "us-east-1", cat.ON_DEMAND) == 1.204


def test_empty_regions_rejected(tmp_path):
    doc = minimal_doc()
    doc["regions"] = []
    doc["prices"] = []
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError):
        cat.load_catalog(path)


def test_dangling_price_reference_rejected(tmp_path):
    doc = minimal_doc()
    doc["prices"].append({"instance": "x9.zz", "region": "us-east-1", "on_demand_per_hour": 1.0})
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="x9.zz"):
        cat.load_catalog(path)


def test_nonpositive_price_rejected():
    with pytest.raises(ValidationError):
        cat.PriceEntry("a", "r", on_demand_per_hour=0.0)


def test_duplicate_instance_rejected():
    doc = minimal_doc()
    doc["instances"].append(dict(doc["instances"][0]))
    with pytest.raises(ValidationError, match="duplicate"):
        cat.build_catalog(doc)


def test_malformed_json_is_parse_error(tmp_path):
    path = tmp_path / "cat.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        cat.load_catalog(path)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_non_finite_number_is_parse_error(tmp_path, literal):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(minimal_doc()).replace("0.3", literal))
    with pytest.raises(ParseError, match="not a finite number"):
        cat.load_catalog(path)


def test_spot_rate_is_fraction_of_on_demand():
    doc = minimal_doc()
    c = cat.build_catalog(doc)
    od = cat.lookup_rate(c, "g4dn.4xl", "us-east-1", cat.ON_DEMAND)
    spot = cat.lookup_rate(c, "g4dn.4xl", "us-east-1", cat.SPOT)
    assert spot == pytest.approx(od * 0.30)


def test_spot_fraction_one_means_spot_equals_on_demand():
    doc = minimal_doc()
    doc["prices"][0]["spot_fraction"] = 1.0
    c = cat.build_catalog(doc)
    assert cat.lookup_rate(c, "g4dn.4xl", "us-east-1", cat.SPOT) == cat.lookup_rate(
        c, "g4dn.4xl", "us-east-1", cat.ON_DEMAND
    )


def test_missing_reserved_rate_raises():
    c = cat.build_catalog(minimal_doc())
    with pytest.raises(MissingRecordError):
        cat.lookup_rate(c, "g4dn.4xl", "us-east-1", cat.RESERVED_UPFRONT)


def test_missing_price_entry_raises():
    c = cat.build_catalog(minimal_doc())
    with pytest.raises(MissingRecordError):
        cat.lookup_rate(c, "g4dn.4xl", "nowhere-1", cat.ON_DEMAND)


def test_unknown_payment_model_raises():
    c = cat.build_catalog(minimal_doc())
    with pytest.raises(ValueError):
        cat.lookup_rate(c, "g4dn.4xl", "us-east-1", "barter")


def test_bundled_catalog_spot_never_above_on_demand(aws_catalog):
    for entry in aws_catalog.prices.values():
        spot = cat.lookup_rate(aws_catalog, entry.instance, entry.region, cat.SPOT)
        assert spot <= entry.on_demand_per_hour + 1e-12


def test_bundled_catalog_has_reference_row(aws_catalog):
    inst = aws_catalog.instance("g4dn.4xl")
    assert inst.vcpus == 16 and inst.gpus == 1 and inst.gpu_model == "T4"
    assert cat.lookup_rate(aws_catalog, "g4dn.4xl", "us-east-1", cat.ON_DEMAND) == pytest.approx(1.204)


def test_pool_capacity_wildcard():
    region = cat.RegionSpec(name="r", spot_pool={"g4dn": 5, "*": 2})
    assert region.pool_capacity("g4dn") == 5
    assert region.pool_capacity("c5") == 2
    bare = cat.RegionSpec(name="r2", spot_pool={"g4dn": 5})
    assert bare.pool_capacity("c5") == 0


def test_hourly_rates_agree_with_the_price_entries_and_lookup_rate(aws_catalog):
    unquoted = 0
    for region in aws_catalog.regions:
        for payment in cat.PAYMENT_MODELS:
            table = aws_catalog.hourly_rates(region, payment)
            assert list(table) == [name for name in aws_catalog.instances if (name, region) in aws_catalog.prices]
            for name in aws_catalog.instances:
                entry = aws_catalog.prices.get((name, region))
                if entry is None:
                    assert name not in table
                    with pytest.raises(MissingRecordError, match=re.escape(f"no price entry for ({name}, {region})")):
                        cat.lookup_rate(aws_catalog, name, region, payment)
                    continue
                expected = {
                    cat.ON_DEMAND: entry.on_demand_per_hour,
                    cat.SPOT: entry.on_demand_per_hour * entry.spot_fraction,
                    cat.RESERVED_UPFRONT: entry.reserved_upfront_per_hour,
                }[payment]
                assert table[name] == expected
                if expected is None:
                    unquoted += 1
                    message = f"no reserved rate quoted for ({name}, {region})"
                    with pytest.raises(MissingRecordError, match=re.escape(message)):
                        cat.lookup_rate(aws_catalog, name, region, payment)
                else:
                    assert cat.lookup_rate(aws_catalog, name, region, payment) == expected
    assert unquoted == 246


def test_hourly_rates_keeps_one_table_per_region_and_payment():
    c = cat.build_catalog(minimal_doc())
    table = c.hourly_rates("us-east-1", cat.SPOT)
    assert c.hourly_rates("us-east-1", cat.SPOT) is table
    assert c.hourly_rates("us-east-1", cat.ON_DEMAND) == {"g4dn.4xl": 1.204}
    assert c.hourly_rates("us-east-1", cat.RESERVED_UPFRONT) == {"g4dn.4xl": None}
    assert c.hourly_rates("nowhere-1", cat.SPOT) == {}
    with pytest.raises(ValueError, match="unknown payment model 'barter'"):
        c.hourly_rates("us-east-1", "barter")
    # The kept tables take no part in equality.
    assert c == cat.build_catalog(minimal_doc())


def test_lookup_rate_is_pure(aws_catalog):
    first = cat.lookup_rate(aws_catalog, "c5.2xl", "eu-west-1", cat.SPOT)
    for _ in range(3):
        assert cat.lookup_rate(aws_catalog, "c5.2xl", "eu-west-1", cat.SPOT) == first


NAN = float("nan")


@pytest.mark.parametrize(
    "make, named",
    [
        pytest.param(lambda: cat.InstanceTypeSpec("a.big", vcpus=NAN), "vcpus", id="instance-vcpus"),
        pytest.param(lambda: cat.InstanceTypeSpec("a.big", vcpus=4, network_gbps=NAN), "network_gbps",
                     id="instance-network"),
        pytest.param(lambda: cat.PriceEntry("a", "r", on_demand_per_hour=NAN), "on_demand_per_hour",
                     id="price-on-demand"),
        pytest.param(lambda: cat.PriceEntry("a", "r", 1.0, spot_fraction=NAN), "spot_fraction",
                     id="price-spot"),
        pytest.param(lambda: cat.RegionSpec("r", spot_pool={"c5": NAN}), "spot_pool.c5", id="region-pool"),
    ],
)
def test_entries_reject_nan(make, named):
    with pytest.raises(ValidationError, match=re.escape(f"{named} must be a finite number")):
        make()


def test_catalog_reports_every_bad_entry_at_once():
    doc = minimal_doc()
    doc["instances"].append({"name": "c5.big", "vcpus": "abc"})
    doc["regions"].append({"name": "eu-west-1", "spot_pool": {"c5": -1}})
    doc["prices"].append({"instance": "g4dn.4xl", "region": "us-east-1", "on_demand_per_hour": 1.0})
    with pytest.raises(ValidationError) as raised:
        cat.build_catalog(doc)
    assert str(raised.value).splitlines() == [
        "instances[1].vcpus must be a whole number, got 'abc'",
        "regions[1].spot_pool.c5 must be a finite number >= 0, got -1",
        "prices[1]: duplicate price entry for ('g4dn.4xl', 'us-east-1')",
    ]


def test_catalog_reports_unknown_entry_keys_with_its_other_problems():
    doc = minimal_doc()
    doc["instances"].append({"name": "c5.big", "vcpus": 4, "vcpu": 4})
    doc["regions"].append({"name": "eu-west-1", "weigth": 2.0})
    doc["prices"].append({"instance": "g4dn.4xl", "region": "us-east-1", "on_demand_per_hour": -1.0})
    with pytest.raises(ValidationError) as raised:
        cat.build_catalog(doc)
    lines = str(raised.value).splitlines()
    assert [line.split(";")[0] for line in lines] == [
        "instances[1] has unknown key 'vcpu'",
        "regions[1] has unknown key 'weigth'",
        "prices[1].on_demand_per_hour must be a finite number > 0, got -1.0",
    ]
    assert lines[1].endswith("known keys: name, spot_pool")
