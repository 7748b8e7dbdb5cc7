// The benchmark's answer checker. Every operation a workload times hands
// its rows to a Checker; after the timed phase the checker compares each
// one against the navigational reference engine's answer for the same
// text, and counts every mismatch as a failed operation.
//
// Rows are compared as digests: (count, polynomial hash) over the sorted
// (tid, id) set. A digest of a prefix of a sorted reference answer comes
// from a prefix-hash array, which is what lets a live-corpus query that
// ran against the first T trees be checked against the reference answer
// for the final corpus restricted to tid < T.

#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <climits>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "lpath/engine.h"

namespace perfbench {

struct Digest {
  uint64_t count = 0;
  uint64_t hash = 0;
  bool operator==(const Digest&) const = default;
};

/// Digest of a sorted, duplicate-free row set.
Digest DigestOf(const std::vector<lpath::Hit>& sorted_rows);

/// Sorts and deduplicates `rows` (wire results arrive batch-sorted only).
void SortRows(std::vector<lpath::Hit>* rows);

/// True when every hit of `before` (taken when the corpus held
/// `before_trees` trees) is still a hit of `after`, and `after` holds no
/// other hit with tid below `before_trees`: an append never changes the
/// answers on trees that already existed. Both vectors sorted.
bool PrefixPreserved(const std::vector<lpath::Hit>& before,
                     int32_t before_trees,
                     const std::vector<lpath::Hit>& after);

/// Collects per-operation digests and checks them against a reference.
/// Thread-safe: client threads record concurrently.
class Checker {
 public:
  /// One query execution returned `rows` for `text` while the corpus held
  /// `trees` trees (pass INT32_MAX for a static corpus).
  void Record(const std::string& text, std::vector<lpath::Hit> rows,
              int32_t trees = INT32_MAX);

  /// A live-corpus property violation seen during the run (for example a
  /// failed PrefixPreserved check): counted as one failed operation.
  void RecordFailure(const std::string& what);

  /// Distinct texts recorded, in first-seen order.
  std::vector<std::string> Texts() const;

  /// Compares every recorded operation with its reference: `reference[i]`
  /// is the sorted answer for Texts()[i] on the full corpus, restricted
  /// here to the tree prefix each operation saw. Returns the number of
  /// failed operations, property violations included, and prints the
  /// first few mismatches to stderr.
  uint64_t Verify(
      const std::vector<std::vector<lpath::Hit>>& reference) const;

 private:
  struct Op {
    size_t text;
    int32_t trees;
    Digest digest;
  };
  mutable std::mutex mu_;
  std::vector<std::string> texts_;
  std::unordered_map<std::string, size_t> text_index_;
  std::vector<Op> ops_;
  std::vector<std::string> violations_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
