// CandidateSpace: the pinned candidate set behind the ConfigId/bitmask
// API. ConfigIds follow insertion order, the universe is the sorted
// dedup union of member indexes, masks are exact bijections while the
// universe fits in 64 bits (and degrade to fingerprints beyond),
// and fingerprint() identifies the whole space.

#include "advisor/candidate_space.h"

#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace cdpd {
namespace {

std::vector<Configuration> PaperishConfigs() {
  // Deliberately out of sorted order and with a shared index between
  // members, so the universe has to dedup and resort.
  return {
      Configuration::Empty(),
      Configuration({IndexDef({2})}),
      Configuration({IndexDef({0})}),
      Configuration({IndexDef({0}), IndexDef({2})}),
      Configuration({IndexDef({1}), IndexDef({3})}),
  };
}

TEST(CandidateSpaceTest, EmptySpace) {
  const CandidateSpace space;
  EXPECT_TRUE(space.empty());
  EXPECT_EQ(space.size(), 0u);
  EXPECT_TRUE(space.universe().empty());
  EXPECT_TRUE(space.exact_masks());
  EXPECT_EQ(space, CandidateSpace());
}

TEST(CandidateSpaceTest, ConfigIdsArePinnedInsertionOrder) {
  const std::vector<Configuration> configs = PaperishConfigs();
  const CandidateSpace space(configs);
  ASSERT_EQ(space.size(), configs.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(space[i], configs[i]) << "id " << i;
    const std::optional<ConfigId> id = space.IdOf(configs[i]);
    ASSERT_TRUE(id.has_value()) << "id " << i;
    EXPECT_EQ(*id, static_cast<ConfigId>(i));
  }
  // Iteration visits the same pinned order.
  size_t i = 0;
  for (const Configuration& config : space) EXPECT_EQ(config, configs[i++]);
}

TEST(CandidateSpaceTest, UniverseIsSortedDedupUnion) {
  const CandidateSpace space(PaperishConfigs());
  // Four distinct single-column indexes across the five members.
  ASSERT_EQ(space.num_indexes(), 4u);
  for (size_t i = 1; i < space.universe().size(); ++i) {
    EXPECT_TRUE(space.universe()[i - 1] < space.universe()[i]);
  }
}

TEST(CandidateSpaceTest, MasksAreExactBitmasksOverTheUniverse) {
  const CandidateSpace space(PaperishConfigs());
  ASSERT_TRUE(space.exact_masks());
  std::set<uint64_t> seen;
  for (size_t id = 0; id < space.size(); ++id) {
    const uint64_t mask = space.mask(id);
    EXPECT_TRUE(seen.insert(mask).second) << "mask collision at id " << id;
    // Reconstructing the index set from the mask bits gives back the
    // configuration exactly.
    std::vector<IndexDef> rebuilt;
    for (size_t bit = 0; bit < space.num_indexes(); ++bit) {
      if ((mask >> bit) & 1) rebuilt.push_back(space.universe()[bit]);
    }
    EXPECT_EQ(Configuration(rebuilt), space[id]) << "id " << id;
  }
  EXPECT_EQ(space.mask(0), 0u);  // Empty configuration.
}

TEST(CandidateSpaceTest, MaskOfHandlesNonMembers) {
  const CandidateSpace space(PaperishConfigs());
  // A non-member drawn from the universe still gets an exact mask, so
  // boundary configurations (the initial design) can join mask-keyed
  // lookups.
  const Configuration boundary({IndexDef({1})});
  EXPECT_FALSE(space.IdOf(boundary).has_value());
  uint64_t expected = 0;
  for (size_t bit = 0; bit < space.num_indexes(); ++bit) {
    if (space.universe()[bit] == IndexDef({1})) expected = uint64_t{1} << bit;
  }
  EXPECT_EQ(space.MaskOf(boundary), expected);

  // An index outside the universe cannot be a bitmask; the fallback is
  // a fingerprint, which must not collide with any member mask here.
  const Configuration alien({IndexDef({0, 1, 2, 3})});
  const uint64_t alien_mask = space.MaskOf(alien);
  for (size_t id = 0; id < space.size(); ++id) {
    EXPECT_NE(alien_mask, space.mask(id));
  }
}

TEST(CandidateSpaceTest, WideUniverseDegradesToFingerprints) {
  // 65 distinct single-column indexes push the universe past 64 bits.
  std::vector<Configuration> configs;
  for (ColumnId col = 0; col < 65; ++col) {
    configs.push_back(Configuration({IndexDef({col})}));
  }
  const CandidateSpace space(configs);
  EXPECT_EQ(space.num_indexes(), 65u);
  EXPECT_FALSE(space.exact_masks());
  // Fingerprint masks still distinguish these members, and IdOf still
  // resolves through the equality check.
  std::set<uint64_t> seen;
  for (size_t id = 0; id < space.size(); ++id) {
    EXPECT_TRUE(seen.insert(space.mask(id)).second);
    EXPECT_EQ(space.IdOf(configs[id]), static_cast<ConfigId>(id));
  }
}

TEST(CandidateSpaceTest, FingerprintSeparatesSpaces) {
  const std::vector<Configuration> all = PaperishConfigs();
  const CandidateSpace whole(all);
  // Dropping the last member removes indexes {1} and {3} from the
  // universe; reordering members keeps the universe bit-for-bit.
  const CandidateSpace subset(
      std::vector<Configuration>(all.begin(), all.end() - 1));
  std::vector<Configuration> reordered = all;
  std::swap(reordered[1], reordered[2]);
  const CandidateSpace shuffled(reordered);

  // Same universe, different pinned order: same bit layout, distinct
  // space identity.
  EXPECT_EQ(shuffled.universe(), whole.universe());
  EXPECT_NE(shuffled.fingerprint(), whole.fingerprint());
  EXPECT_NE(shuffled, whole);

  // Different universe: the identity changes with it.
  EXPECT_NE(subset.universe(), whole.universe());
  EXPECT_NE(subset.fingerprint(), whole.fingerprint());
}

TEST(CandidateSpaceTest, PrefixKeepsOrderAndRederivesUniverse) {
  const std::vector<Configuration> all = PaperishConfigs();
  const CandidateSpace space(all);
  const CandidateSpace head = space.Prefix(3);
  ASSERT_EQ(head.size(), 3u);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(head[i], all[i]);
  // The survivors only mention columns 0 and 2: the universe shrank,
  // so masks stay minimal and the bit layout changed with it.
  EXPECT_EQ(head.num_indexes(), 2u);
  EXPECT_NE(head.universe(), space.universe());

  EXPECT_EQ(space.Prefix(all.size() + 7), space);
  EXPECT_TRUE(space.Prefix(0).empty());
}

TEST(CandidateSpaceTest, ImplicitPromotionFromVectorAndBracedList) {
  // The API-boundary ergonomics the redesign preserves: a plain vector
  // (or braced list) converts wherever a CandidateSpace is expected.
  const auto take = [](const CandidateSpace& space) { return space.size(); };
  const std::vector<Configuration> vec = PaperishConfigs();
  EXPECT_EQ(take(vec), vec.size());
  EXPECT_EQ(take({Configuration::Empty(), Configuration({IndexDef({0})})}),
            2u);
}

}  // namespace
}  // namespace cdpd
