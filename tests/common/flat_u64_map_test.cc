/** @file Unit and differential tests for the open-addressed u64 map. */

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/flat_u64_map.hh"
#include "common/random.hh"

namespace smtdram
{
namespace
{

TEST(FlatU64Map, InsertFindErase)
{
    FlatU64Map<int> m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(7), nullptr);
    m.insert(7, 70);
    m.insert(0, 1);
    ASSERT_NE(m.find(7), nullptr);
    EXPECT_EQ(*m.find(7), 70);
    EXPECT_EQ(*m.find(0), 1);
    EXPECT_EQ(m.size(), 2u);
    *m.find(7) = 71;
    EXPECT_EQ(*m.find(7), 71);
    EXPECT_TRUE(m.erase(7));
    EXPECT_FALSE(m.erase(7));
    EXPECT_EQ(m.find(7), nullptr);
    EXPECT_EQ(m.size(), 1u);
    m.clear();
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(0), nullptr);
}

/**
 * Random inserts, erases and lookups against std::unordered_map.  A
 * small key range packs long probe runs, so erase's backward shift
 * meets every wrap and home-position case; the map grows from its
 * minimum size through several doublings.
 */
TEST(FlatU64Map, MatchesUnorderedMapUnderChurn)
{
    for (const std::uint64_t range : {std::uint64_t{24}, std::uint64_t{300},
                                      std::uint64_t{1} << 40}) {
        FlatU64Map<std::uint64_t> m;
        std::unordered_map<std::uint64_t, std::uint64_t> ref;
        Rng rng(range);
        std::vector<std::uint64_t> keys;
        for (int step = 0; step < 20'000; ++step) {
            const std::uint64_t k = rng.below(range) * 0x1000;
            switch (rng.below(3)) {
              case 0:
                if (!ref.count(k)) {
                    m.insert(k, step);
                    ref.emplace(k, step);
                    keys.push_back(k);
                }
                break;
              case 1:
                EXPECT_EQ(m.erase(k), ref.erase(k) == 1) << k;
                break;
              default: {
                const std::uint64_t *v = m.find(k);
                const auto it = ref.find(k);
                ASSERT_EQ(v != nullptr, it != ref.end()) << k;
                if (v) {
                    EXPECT_EQ(*v, it->second);
                }
              }
            }
            ASSERT_EQ(m.size(), ref.size());
        }
        for (const std::uint64_t k : keys) {
            const std::uint64_t *v = m.find(k);
            ASSERT_EQ(v != nullptr, ref.count(k) == 1) << k;
            if (v) {
                EXPECT_EQ(*v, ref.at(k));
            }
        }
    }
}

TEST(FlatU64MapDeathTest, RejectsDuplicateAndEmptyKeys)
{
    FlatU64Map<int> m;
    m.insert(5, 1);
    EXPECT_DEATH(m.insert(5, 2), "duplicate key");
    EXPECT_DEATH(m.insert(FlatU64Map<int>::kEmptyKey, 0), "reserved");
}

} // namespace
} // namespace smtdram
