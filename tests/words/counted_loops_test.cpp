// The counted raw-value loops of words:: and the memoized Lyndon test.
//
// Booth's least-rotation scan and IncrementalPeriod's border step compare
// raw label values and credit Label's comparison counter once per call;
// IncrementalPeriod::period_least_rotation() memoizes the scan per period
// and credits the recorded count on a hit. Each must leave the comparison
// statistic exactly where the operator-based loops they replaced would
// have left it — those loops are kept below as test-local references.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "support/rng.hpp"
#include "words/label.hpp"
#include "words/lyndon.hpp"
#include "words/periodicity.hpp"

namespace hring::words {
namespace {

/// Booth's scan through Label::operator== and operator>, as it was before
/// the counted loop.
std::size_t reference_least_rotation(const Label* seq, std::size_t n) {
  std::size_t i = 0;
  std::size_t j = 1;
  std::size_t k = 0;
  while (i < n && j < n && k < n) {
    const Label a = seq[(i + k) % n];
    const Label b = seq[(j + k) % n];
    if (a == b) {
      ++k;
      continue;
    }
    if (a > b) {
      i = i + k + 1;
      if (i == j) ++i;
    } else {
      j = j + k + 1;
      if (j == i) ++j;
    }
    k = 0;
  }
  return std::min(i, j);
}

/// IncrementalPeriod::push_back through Label::operator==, as it was
/// before the counted loop.
struct ReferenceBorders {
  LabelSequence seq;
  std::vector<std::size_t> border;

  void push_back(Label label) {
    seq.push_back(label);
    if (seq.size() == 1) {
      border.push_back(0);
      return;
    }
    std::size_t len = border.back();
    while (len > 0 && !(label == seq[len])) len = border[len - 1];
    if (label == seq[len]) ++len;
    border.push_back(len);
  }
};

/// Comparisons Label's counter is credited while `body` runs.
template <class Body>
std::uint64_t credited(Body&& body) {
  const std::uint64_t before = Label::comparison_count();
  body();
  return Label::comparison_count() - before;
}

/// A word that repeats a short random base, with an occasional random
/// label mixed in: small alphabets and repetition give the long matches,
/// ties and periods that exercise every branch of both scans.
LabelSequence random_word(support::Rng& rng) {
  const std::size_t alphabet = 1 + rng.below(4);
  const std::size_t base_len = 1 + rng.below(6);
  const std::size_t len = 1 + rng.below(40);
  LabelSequence base;
  for (std::size_t i = 0; i < base_len; ++i) {
    base.emplace_back(1 + rng.below(alphabet));
  }
  LabelSequence word;
  for (std::size_t i = 0; i < len; ++i) {
    word.push_back(rng.below(8) == 0 ? Label(1 + rng.below(alphabet))
                                     : base[i % base_len]);
  }
  return word;
}

TEST(CountedLoopsTest, BoothCreditsTheOperatorFormsCount) {
  support::Rng rng(0xB0074);
  for (int trial = 0; trial < 2000; ++trial) {
    const LabelSequence word = random_word(rng);
    std::size_t expected = 0;
    const std::uint64_t expected_count = credited([&] {
      expected = reference_least_rotation(word.data(), word.size());
    });
    std::size_t actual = 0;
    const std::uint64_t actual_count = credited(
        [&] { actual = least_rotation_index(word.data(), word.size()); });
    EXPECT_EQ(actual, expected) << to_string(word);
    EXPECT_EQ(actual_count, expected_count) << to_string(word);
  }
}

TEST(CountedLoopsTest, BorderStepCreditsTheOperatorFormsCount) {
  support::Rng rng(0xB0D3);
  for (int trial = 0; trial < 1000; ++trial) {
    const LabelSequence word = random_word(rng);
    IncrementalPeriod counted;
    ReferenceBorders reference;
    for (const Label label : word) {
      const std::uint64_t expected_count =
          credited([&] { reference.push_back(label); });
      const std::uint64_t actual_count =
          credited([&] { counted.push_back(label); });
      EXPECT_EQ(counted.border(), reference.border.back())
          << to_string(reference.seq);
      EXPECT_EQ(actual_count, expected_count) << to_string(reference.seq);
    }
  }
}

TEST(PeriodLeastRotationTest, MatchesBoothOnThePeriodPrefixOnHitAndMiss) {
  support::Rng rng(0x3E3);
  for (int trial = 0; trial < 1000; ++trial) {
    const LabelSequence word = random_word(rng);
    IncrementalPeriod grown;
    for (const Label label : word) {
      grown.push_back(label);
      const std::size_t period = grown.period();
      std::size_t expected = 0;
      const std::uint64_t expected_count = credited([&] {
        expected = least_rotation_index(grown.sequence().data(), period);
      });
      // The first call after a period change misses, every call with an
      // unchanged period hits; both must agree with the direct scan.
      for (int call = 0; call < 2; ++call) {
        std::size_t actual = 0;
        const std::uint64_t actual_count =
            credited([&] { actual = grown.period_least_rotation(); });
        EXPECT_EQ(actual, expected) << to_string(grown.sequence());
        EXPECT_EQ(actual_count, expected_count)
            << to_string(grown.sequence());
      }
    }
  }
}

TEST(PeriodLeastRotationTest, ClearInvalidatesTheMemo) {
  IncrementalPeriod grown;
  for (const Label label : make_sequence({1, 2, 3})) grown.push_back(label);
  EXPECT_EQ(grown.period_least_rotation(), 0u);
  // Same period, different prefix: a stale memo would still answer 0.
  grown.clear();
  for (const Label label : make_sequence({3, 1, 2})) grown.push_back(label);
  ASSERT_EQ(grown.period(), 3u);
  EXPECT_EQ(grown.period_least_rotation(), 1u);
}

TEST(PeriodLeastRotationTest, PeriodThatChangesAndChangesBack) {
  IncrementalPeriod grown;
  for (const Label label : make_sequence({2, 1, 2})) grown.push_back(label);
  ASSERT_EQ(grown.period(), 2u);
  EXPECT_EQ(grown.period_least_rotation(), 1u);  // srp 2.1 -> 1.2
  grown.push_back(Label(3));                     // 2.1.2.3: period 4
  ASSERT_EQ(grown.period(), 4u);
  EXPECT_EQ(grown.period_least_rotation(), 1u);  // 1.2.3.2
  // A period only grows while the sequence does, so it returns to 2 only
  // through clear(), and then over a new prefix.
  grown.clear();
  for (const Label label : make_sequence({1, 3, 1})) grown.push_back(label);
  ASSERT_EQ(grown.period(), 2u);
  std::size_t index = 99;
  const std::uint64_t count =
      credited([&] { index = grown.period_least_rotation(); });
  EXPECT_EQ(index, 0u);  // srp 1.3 is already least
  const Label prefix[] = {Label(1), Label(3)};
  EXPECT_EQ(count, credited([&] {
              static_cast<void>(reference_least_rotation(prefix, 2));
            }));
}

}  // namespace
}  // namespace hring::words
