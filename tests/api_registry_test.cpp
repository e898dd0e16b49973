// Registry round-trip tests: every registered algorithm/adversary name (and
// alias) parses back to the entry it came from, canonical names agree with
// the harness to_string mappings, and unknown names produce the documented
// BIL_REQUIRE diagnostic listing the accepted vocabulary.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "api/backend.h"
#include "api/registry.h"
#include "harness/runner.h"
#include "util/contract.h"

namespace bil {
namespace {

TEST(Registry, EveryAlgorithmNameRoundTrips) {
  for (const api::AlgorithmInfo& info : api::algorithm_registry()) {
    EXPECT_EQ(api::parse_algorithm(info.name).algorithm, info.algorithm)
        << info.name;
    for (const std::string& alias : info.aliases) {
      EXPECT_EQ(api::parse_algorithm(alias).algorithm, info.algorithm)
          << alias;
    }
  }
}

TEST(Registry, EveryAdversaryNameRoundTrips) {
  for (const api::AdversaryInfo& info : api::adversary_registry()) {
    EXPECT_EQ(api::parse_adversary(info.name).kind, info.kind) << info.name;
    for (const std::string& alias : info.aliases) {
      EXPECT_EQ(api::parse_adversary(alias).kind, info.kind) << alias;
    }
  }
}

TEST(Registry, CanonicalNamesMatchHarnessToString) {
  for (const api::AlgorithmInfo& info : api::algorithm_registry()) {
    EXPECT_EQ(info.name, harness::to_string(info.algorithm));
  }
  for (const api::AdversaryInfo& info : api::adversary_registry()) {
    EXPECT_EQ(info.name, harness::to_string(info.kind));
  }
}

TEST(Registry, NamesAndAliasesAreUnique) {
  std::set<std::string> seen;
  for (const api::AlgorithmInfo& info : api::algorithm_registry()) {
    EXPECT_TRUE(seen.insert(info.name).second) << info.name;
    for (const std::string& alias : info.aliases) {
      EXPECT_TRUE(seen.insert(alias).second) << alias;
    }
  }
  seen.clear();
  for (const api::AdversaryInfo& info : api::adversary_registry()) {
    EXPECT_TRUE(seen.insert(info.name).second) << info.name;
    for (const std::string& alias : info.aliases) {
      EXPECT_TRUE(seen.insert(alias).second) << alias;
    }
  }
}

TEST(Registry, AdversaryFactoriesProduceTheirOwnKind) {
  const api::AdversaryKnobs knobs{.crashes = 8,
                                  .when = 3,
                                  .horizon = 12,
                                  .per_round = 2,
                                  .subset = sim::SubsetPolicy::kAlternating};
  for (const api::AdversaryInfo& info : api::adversary_registry()) {
    const harness::AdversarySpec spec = info.make(knobs);
    EXPECT_EQ(spec.kind, info.kind) << info.name;
  }
}

TEST(Registry, FactoriesApplyTheirRelevantKnobs) {
  const api::AdversaryKnobs knobs{
      .crashes = 8, .when = 3, .horizon = 12, .per_round = 2};
  const harness::AdversarySpec oblivious =
      api::parse_adversary("oblivious").make(knobs);
  EXPECT_EQ(oblivious.crashes, 8u);
  EXPECT_EQ(oblivious.horizon, 12u);
  const harness::AdversarySpec burst = api::parse_adversary("burst").make(knobs);
  EXPECT_EQ(burst.when, 3u);
  const harness::AdversarySpec eager = api::parse_adversary("eager").make(knobs);
  EXPECT_EQ(eager.per_round, 2u);
}

TEST(Registry, EveryEnumValueIsRegistered) {
  // algorithm_info / adversary_info are total over the enums.
  for (const api::AlgorithmInfo& info : api::algorithm_registry()) {
    EXPECT_EQ(api::algorithm_info(info.algorithm).name, info.name);
  }
  for (const api::AdversaryInfo& info : api::adversary_registry()) {
    EXPECT_EQ(api::adversary_info(info.kind).name, info.name);
  }
}

TEST(Registry, UnknownAlgorithmDiagnostic) {
  try {
    (void)api::parse_algorithm("no-such-algorithm");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& violation) {
    const std::string what = violation.what();
    EXPECT_NE(what.find("unknown algorithm 'no-such-algorithm'"),
              std::string::npos)
        << what;
    // The diagnostic lists the accepted vocabulary, generated from the
    // registry itself.
    for (const api::AlgorithmInfo& info : api::algorithm_registry()) {
      EXPECT_NE(what.find(info.name), std::string::npos) << info.name;
    }
  }
}

TEST(Registry, UnknownAdversaryDiagnostic) {
  try {
    (void)api::parse_adversary("no-such-adversary");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& violation) {
    const std::string what = violation.what();
    EXPECT_NE(what.find("unknown adversary 'no-such-adversary'"),
              std::string::npos)
        << what;
    for (const api::AdversaryInfo& info : api::adversary_registry()) {
      EXPECT_NE(what.find(info.name), std::string::npos) << info.name;
    }
  }
}

TEST(Registry, BackendNamesRoundTrip) {
  for (api::BackendKind kind :
       {api::BackendKind::kAuto, api::BackendKind::kEngine,
        api::BackendKind::kFastSim}) {
    EXPECT_EQ(api::parse_backend(api::to_string(kind)), kind);
  }
  EXPECT_THROW((void)api::parse_backend("quantum"), ContractViolation);
}

TEST(Registry, FastSimCapabilityMatchesTreeAlgorithms) {
  EXPECT_TRUE(api::parse_algorithm("bil").fast_sim_capable);
  EXPECT_TRUE(api::parse_algorithm("early").fast_sim_capable);
  EXPECT_TRUE(api::parse_algorithm("rank").fast_sim_capable);
  EXPECT_TRUE(api::parse_algorithm("halving").fast_sim_capable);
  EXPECT_FALSE(api::parse_algorithm("gossip").fast_sim_capable);
  EXPECT_FALSE(api::parse_algorithm("bins").fast_sim_capable);
  EXPECT_FALSE(api::parse_algorithm("splitter").fast_sim_capable);
  // The registry's capability and policy columns (read by the fast-sim
  // backend) agree with the harness mapping the engine and search use.
  for (const api::AlgorithmInfo& info : api::algorithm_registry()) {
    EXPECT_EQ(info.fast_sim_capable, harness::is_tree_based(info.algorithm))
        << info.name;
    if (info.fast_sim_capable) {
      EXPECT_EQ(info.policy, harness::policy_for(info.algorithm)) << info.name;
    }
  }
}

TEST(Registry, FamiliesGroupAlgorithmsByConstruction) {
  // The family column (bil_run --list-algorithms) classifies each entry by
  // its construction: the four tree policies, and one family per baseline.
  EXPECT_EQ(api::parse_algorithm("bil").family, "tree");
  EXPECT_EQ(api::parse_algorithm("early").family, "tree");
  EXPECT_EQ(api::parse_algorithm("rank").family, "tree");
  EXPECT_EQ(api::parse_algorithm("halving").family, "tree");
  EXPECT_EQ(api::parse_algorithm("gossip").family, "gossip");
  EXPECT_EQ(api::parse_algorithm("bins").family, "bins");
  EXPECT_EQ(api::parse_algorithm("splitter").family, "splitter");
  for (const api::AlgorithmInfo& info : api::algorithm_registry()) {
    EXPECT_TRUE(info.family == "tree" || info.family == "gossip" ||
                info.family == "bins" || info.family == "splitter")
        << info.name << " has unknown family '" << info.family << "'";
  }
}

}  // namespace
}  // namespace bil
