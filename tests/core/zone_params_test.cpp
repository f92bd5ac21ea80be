// Per-zone (vf, vt) parameters (§5.2) on DrongoClient.
#include "core/drongo.hpp"

#include <gtest/gtest.h>

namespace drongo::core {
namespace {

measure::TrialRecord trial(const std::string& domain, double ratio) {
  measure::TrialRecord t;
  t.provider = "P";
  t.domain = domain;
  t.cr.push_back({net::Ipv4Addr(21, 0, 0, 1), 100.0});
  measure::HopRecord hop;
  hop.subnet = net::Prefix::must_parse("20.9.0.0/24");
  hop.usable = true;
  hop.hr.push_back({net::Ipv4Addr(22, 0, 0, 1), ratio * 100.0});
  t.hops.push_back(std::move(hop));
  return t;
}

TEST(ZoneParamsTest, RoutesDomainsToTheirZoneEngines) {
  DrongoClient selector;
  DrongoParams lenient;
  lenient.min_valley_frequency = 0.2;
  lenient.valley_threshold = 1.0;
  selector.set_zone_params(dns::DnsName::must_parse("alicdn.sim"), lenient);
  EXPECT_NE(&selector.engine_for(dns::DnsName::must_parse("img.alicdn.sim")),
            &selector.engine());
  EXPECT_EQ(&selector.engine_for(dns::DnsName::must_parse("img.googlecdn.sim")),
            &selector.engine());

  // Ratios of 0.97: valleys at vt=1.0 (lenient zone) but NOT at the default
  // vt=0.95 — so only the configured zone ends up assimilating.
  for (int i = 0; i < 5; ++i) {
    selector.observe(trial("img.alicdn.sim", 0.97));
    selector.observe(trial("img.googlecdn.sim", 0.97));
  }
  const net::Prefix client = net::Prefix::must_parse("20.0.40.0/24");
  EXPECT_TRUE(selector.select_subnet(dns::DnsName::must_parse("img.alicdn.sim"), client)
                  .has_value());
  EXPECT_FALSE(
      selector.select_subnet(dns::DnsName::must_parse("img.googlecdn.sim"), client)
          .has_value());
}

TEST(ZoneParamsTest, MostSpecificZoneWins) {
  DrongoClient selector;
  DrongoParams strict;  // vf=1.0, vt=0.95
  DrongoParams lenient;
  lenient.min_valley_frequency = 0.2;
  lenient.valley_threshold = 1.0;
  selector.set_zone_params(dns::DnsName::must_parse("sim"), strict);
  selector.set_zone_params(dns::DnsName::must_parse("alicdn.sim"), lenient);

  // 0.97 ratios qualify only under the lenient (more specific) zone.
  for (int i = 0; i < 5; ++i) {
    selector.observe(trial("img.alicdn.sim", 0.97));
    selector.observe(trial("img.other.sim", 0.97));
  }
  const net::Prefix client = net::Prefix::must_parse("20.0.40.0/24");
  EXPECT_TRUE(selector.select_subnet(dns::DnsName::must_parse("img.alicdn.sim"), client)
                  .has_value());
  EXPECT_FALSE(selector.select_subnet(dns::DnsName::must_parse("img.other.sim"), client)
                   .has_value());
}

TEST(ZoneParamsTest, DefaultEngineHandlesUnconfiguredZones) {
  DrongoClient selector;  // default params vf=1.0, vt=0.95
  for (int i = 0; i < 5; ++i) {
    selector.observe(trial("img.any.sim", 0.5));
  }
  const net::Prefix client = net::Prefix::must_parse("20.0.40.0/24");
  EXPECT_TRUE(selector.select_subnet(dns::DnsName::must_parse("img.any.sim"), client)
                  .has_value());
}

TEST(ZoneParamsTest, ReconfiguringAZoneResetsItsWindows) {
  DrongoClient selector;
  DrongoParams lenient;
  lenient.min_valley_frequency = 0.2;
  lenient.valley_threshold = 1.0;
  selector.set_zone_params(dns::DnsName::must_parse("alicdn.sim"), lenient);
  for (int i = 0; i < 5; ++i) selector.observe(trial("img.alicdn.sim", 0.5));
  const net::Prefix client = net::Prefix::must_parse("20.0.40.0/24");
  ASSERT_TRUE(selector.select_subnet(dns::DnsName::must_parse("img.alicdn.sim"), client)
                  .has_value());
  selector.set_zone_params(dns::DnsName::must_parse("alicdn.sim"), lenient);
  EXPECT_FALSE(selector.select_subnet(dns::DnsName::must_parse("img.alicdn.sim"), client)
                   .has_value());
}

TEST(ZoneParamsTest, ZoneTrialsLeaveTheDefaultEngineAlone) {
  DrongoClient selector;
  for (int i = 0; i < 5; ++i) selector.observe(trial("img.any.sim", 0.5));
  const net::Prefix client = net::Prefix::must_parse("20.0.40.0/24");
  const auto before = selector.select_subnet(dns::DnsName::must_parse("img.any.sim"), client);
  ASSERT_TRUE(before.has_value());
  const auto windows_before = selector.engine().tracked_windows();

  DrongoParams lenient;
  lenient.min_valley_frequency = 0.2;
  lenient.valley_threshold = 1.0;
  selector.set_zone_params(dns::DnsName::must_parse("alicdn.sim"), lenient);
  for (int i = 0; i < 5; ++i) selector.observe(trial("img.alicdn.sim", 0.5));

  // The zone's trials land in the zone engine only.
  EXPECT_EQ(selector.engine().tracked_windows(), windows_before);
  EXPECT_FALSE(selector.engine().choose("img.alicdn.sim").has_value());
  EXPECT_TRUE(selector.select_subnet(dns::DnsName::must_parse("img.alicdn.sim"), client)
                  .has_value());
  EXPECT_EQ(selector.select_subnet(dns::DnsName::must_parse("img.any.sim"), client), before);
}

}  // namespace
}  // namespace drongo::core
