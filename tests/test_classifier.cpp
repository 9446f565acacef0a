// Tests for the processing-logic classifier: wildcard rules, priorities,
// fallback behaviour, and that no verdict outlives the call that made it.
#include <gtest/gtest.h>

#include "net/classifier.hpp"

namespace xdrs::net {
namespace {

Packet make_packet(std::uint32_t src_addr, std::uint32_t dst_addr, std::uint16_t dport,
                   IpProto proto = IpProto::kUdp) {
  Packet p;
  p.tuple.src_addr = src_addr;
  p.tuple.dst_addr = dst_addr;
  p.tuple.dst_port = dport;
  p.tuple.proto = proto;
  return p;
}

TEST(Rule, ExactFieldMatch) {
  Rule r;
  r.dst_addr_value = 0x0a000001;
  r.dst_addr_mask = 0xffffffff;
  EXPECT_TRUE(r.matches(make_packet(1, 0x0a000001, 80).tuple));
  EXPECT_FALSE(r.matches(make_packet(1, 0x0a000002, 80).tuple));
}

TEST(Rule, MaskedPrefixMatch) {
  Rule r;
  r.dst_addr_value = 0x0a000000;
  r.dst_addr_mask = 0xff000000;  // 10.0.0.0/8
  EXPECT_TRUE(r.matches(make_packet(0, 0x0a123456, 0).tuple));
  EXPECT_FALSE(r.matches(make_packet(0, 0x0b000000, 0).tuple));
}

TEST(Rule, WildcardMatchesEverything) {
  const Rule r;  // all masks zero, no proto
  EXPECT_TRUE(r.matches(make_packet(1, 2, 3).tuple));
  EXPECT_TRUE(r.matches(make_packet(0xffffffff, 0, 65535, IpProto::kTcp).tuple));
}

TEST(Rule, ProtocolMatch) {
  Rule r;
  r.proto = IpProto::kTcp;
  EXPECT_TRUE(r.matches(make_packet(1, 2, 3, IpProto::kTcp).tuple));
  EXPECT_FALSE(r.matches(make_packet(1, 2, 3, IpProto::kUdp).tuple));
}

TEST(Rule, PortMatch) {
  Rule r;
  r.dst_port_value = 5004;
  r.dst_port_mask = 0xffff;
  EXPECT_TRUE(r.matches(make_packet(1, 2, 5004).tuple));
  EXPECT_FALSE(r.matches(make_packet(1, 2, 5005).tuple));
}

TEST(Classifier, FallbackWhenNoRules) {
  Classifier c;
  const Verdict fb{7, TrafficClass::kBestEffort};
  EXPECT_EQ(c.classify(make_packet(1, 2, 3), fb), fb);
  EXPECT_EQ(c.stats().default_hits, 1u);
}

TEST(Classifier, RuleOverridesFallback) {
  Classifier c;
  Rule r;
  r.dst_port_value = 5004;
  r.dst_port_mask = 0xffff;
  r.verdict = Verdict{3, TrafficClass::kLatencySensitive};
  c.add_rule(r);

  const Verdict fb{9, TrafficClass::kBestEffort};
  const Verdict v = c.classify(make_packet(1, 2, 5004), fb);
  EXPECT_EQ(v.out_port, 3u);
  EXPECT_EQ(v.tclass, TrafficClass::kLatencySensitive);
  EXPECT_EQ(c.stats().rule_hits, 1u);
}

TEST(Classifier, LowerPriorityValueWins) {
  Classifier c;
  Rule broad;  // matches everything
  broad.priority = 10;
  broad.verdict = Verdict{1, TrafficClass::kBestEffort};
  Rule narrow;
  narrow.dst_port_value = 80;
  narrow.dst_port_mask = 0xffff;
  narrow.priority = 1;
  narrow.verdict = Verdict{2, TrafficClass::kThroughput};
  c.add_rule(broad);
  c.add_rule(narrow);

  EXPECT_EQ(c.classify(make_packet(1, 2, 80), {}).out_port, 2u);
  EXPECT_EQ(c.classify(make_packet(1, 2, 81), {}).out_port, 1u);
}

TEST(Classifier, InsertionOrderBreaksPriorityTies) {
  Classifier c;
  Rule first, second;  // both match everything at equal priority
  first.verdict = Verdict{1, TrafficClass::kBestEffort};
  second.verdict = Verdict{2, TrafficClass::kBestEffort};
  c.add_rule(first);
  c.add_rule(second);
  EXPECT_EQ(c.classify(make_packet(1, 2, 3), {}).out_port, 1u);
}

TEST(Classifier, FallbackIsNeverRemembered) {
  // Two packets of one 5-tuple can need different verdicts: on a fat-tree a
  // remote packet's uplink dst shares its tuple with a local packet's host
  // dst, and two workloads of a composite scenario emit the same tuple in
  // different classes.  Each call must return its own fallback.
  Classifier c;
  const Packet p = make_packet(1, 2, 3);
  const Verdict first{4, TrafficClass::kThroughput};
  const Verdict second{6, TrafficClass::kBestEffort};
  EXPECT_EQ(c.classify(p, first), first);
  const Verdict v = c.classify(p, second);
  EXPECT_EQ(v.out_port, 6u);
  EXPECT_EQ(v.tclass, TrafficClass::kBestEffort);
}

TEST(Classifier, LookupsSplitIntoRuleAndDefaultHits) {
  Classifier c;
  Rule r;
  r.dst_port_value = 80;
  r.dst_port_mask = 0xffff;
  r.verdict = Verdict{5, TrafficClass::kThroughput};
  c.add_rule(r);
  for (int i = 0; i < 3; ++i) (void)c.classify(make_packet(1, 2, 80), {});
  for (int i = 0; i < 2; ++i) (void)c.classify(make_packet(1, 2, 81), {});
  EXPECT_EQ(c.stats().lookups, 5u);
  EXPECT_EQ(c.stats().rule_hits, 3u);
  EXPECT_EQ(c.stats().default_hits, 2u);
  EXPECT_EQ(c.stats().lookups, c.stats().rule_hits + c.stats().default_hits);
}

TEST(Classifier, RemoveRuleRevertsOnTheNextPacket) {
  Classifier c;
  Rule r;
  r.id = 11;
  r.verdict = Verdict{5, TrafficClass::kThroughput};
  c.add_rule(r);
  const Packet p = make_packet(1, 2, 3);
  EXPECT_EQ(c.classify(p, Verdict{9, TrafficClass::kBestEffort}).out_port, 5u);
  EXPECT_EQ(c.remove_rule(11), 1u);
  // Every later packet of the flow takes its own fallback, not the rule's
  // verdict and not the first post-removal packet's fallback.
  EXPECT_EQ(c.classify(p, Verdict{9, TrafficClass::kBestEffort}).out_port, 9u);
  const Verdict v = c.classify(p, Verdict{2, TrafficClass::kLatencySensitive});
  EXPECT_EQ(v.out_port, 2u);
  EXPECT_EQ(v.tclass, TrafficClass::kLatencySensitive);
  EXPECT_EQ(c.rule_counters(11).packets, 1u);
}

TEST(Classifier, AddRuleAppliesToTheNextPacket) {
  Classifier c;
  const Packet p = make_packet(1, 2, 80);
  EXPECT_EQ(c.classify(p, Verdict{9, TrafficClass::kBestEffort}).out_port, 9u);

  Rule r;
  r.dst_port_value = 80;
  r.dst_port_mask = 0xffff;
  r.verdict = Verdict{4, TrafficClass::kThroughput};
  c.add_rule(r);
  EXPECT_EQ(c.classify(p, Verdict{9, TrafficClass::kBestEffort}).out_port, 4u);
}

TEST(Classifier, ClearRulesRestoresFallback) {
  Classifier c;
  Rule r;
  r.verdict = Verdict{4, TrafficClass::kThroughput};
  c.add_rule(r);
  EXPECT_EQ(c.rule_count(), 1u);
  c.clear_rules();
  EXPECT_EQ(c.rule_count(), 0u);
  EXPECT_EQ(c.classify(make_packet(1, 2, 3), Verdict{8, TrafficClass::kBestEffort}).out_port, 8u);
}

TEST(FiveTuple, Equality) {
  const FiveTuple a{1, 2, 3, 4, IpProto::kTcp};
  FiveTuple b = a;
  EXPECT_EQ(a, b);
  b.dst_port = 5;
  EXPECT_NE(a, b);
}

TEST(FiveTuple, ToStringFormat) {
  const FiveTuple t{0x0a000001, 0x0a000002, 1234, 80, IpProto::kTcp};
  EXPECT_EQ(t.to_string(), "10.0.0.1:1234 > 10.0.0.2:80/6");
}

TEST(TrafficClassNames, Distinct) {
  EXPECT_STRNE(to_string(TrafficClass::kLatencySensitive), to_string(TrafficClass::kThroughput));
  EXPECT_STRNE(to_string(TrafficClass::kThroughput), to_string(TrafficClass::kBestEffort));
}

}  // namespace
}  // namespace xdrs::net
