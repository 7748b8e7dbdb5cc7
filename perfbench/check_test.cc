// Shows that the benchmark's checks can fail: the checker is fed results
// with one row dropped, one row added, and an append that changes an
// earlier tree's hits, and must count each as a failed operation. Only
// the checker's input is perturbed. Exits 0 when every case behaves.

#include <cstdio>
#include <string>
#include <vector>

#include "check.h"

namespace {

using lpath::Hit;

int g_failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

uint64_t FailedOps(const std::vector<Hit>& reference, std::vector<Hit> got,
                   int32_t trees = INT32_MAX) {
  perfbench::Checker checker;
  perfbench::SortRows(&got);
  checker.Record("//Q", got, trees);
  return checker.Verify({reference});
}

}  // namespace

int main() {
  const std::vector<Hit> reference = {{0, 3}, {0, 7}, {2, 1}, {5, 4}, {9, 2}};

  Expect(FailedOps(reference, reference) == 0, "identical rows pass");
  std::vector<Hit> shuffled = {{9, 2}, {0, 7}, {5, 4}, {0, 3}, {2, 1}};
  Expect(FailedOps(reference, shuffled) == 0, "stream order does not matter");

  std::vector<Hit> dropped = reference;
  dropped.erase(dropped.begin() + 2);
  Expect(FailedOps(reference, dropped) == 1, "one row dropped fails");

  std::vector<Hit> added = reference;
  added.push_back({5, 9});
  Expect(FailedOps(reference, added) == 1, "one row added fails");

  std::vector<Hit> moved = reference;
  moved[4] = {9, 3};
  Expect(FailedOps(reference, moved) == 1, "one row changed fails");

  // A live-corpus query that saw only trees 0..5 is checked against the
  // reference restricted to tid < 6.
  const std::vector<Hit> prefix = {{0, 3}, {0, 7}, {2, 1}, {5, 4}};
  Expect(FailedOps(reference, prefix, 6) == 0, "tree-prefix result passes");
  Expect(FailedOps(reference, reference, 6) == 1,
         "rows beyond the tree prefix fail");

  // Append-prefix property: hits of trees below the old count must not
  // change when trees are appended.
  const std::vector<Hit> after = {{0, 3}, {0, 7}, {2, 1}, {5, 4}, {7, 1}};
  Expect(perfbench::PrefixPreserved(prefix, 6, after),
         "prefix-preserving append passes");
  std::vector<Hit> lost = {{0, 3}, {2, 1}, {5, 4}, {7, 1}};
  Expect(!perfbench::PrefixPreserved(prefix, 6, lost),
         "append that drops an old tree's hit fails");
  std::vector<Hit> gained = {{0, 3}, {0, 7}, {1, 1}, {2, 1}, {5, 4}, {7, 1}};
  Expect(!perfbench::PrefixPreserved(prefix, 6, gained),
         "append that adds an old tree's hit fails");

  perfbench::Checker checker;
  checker.Record("//Q", prefix, 6);
  if (!perfbench::PrefixPreserved(prefix, 6, lost)) {
    checker.RecordFailure("//Q: append changed earlier trees' hits");
  }
  Expect(checker.Verify({reference}) == 1,
         "a property violation counts as a failed operation");

  std::printf("%s\n", g_failures == 0 ? "all checks behave" : "checker broken");
  return g_failures == 0 ? 0 : 1;
}
