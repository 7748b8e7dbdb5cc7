#include "check.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace perfbench {
namespace {

constexpr uint64_t kPrime = 0x100000001b3ull;

uint64_t Step(uint64_t hash, const lpath::Hit& hit) {
  const uint64_t row = (static_cast<uint64_t>(static_cast<uint32_t>(hit.tid))
                        << 32) |
                       static_cast<uint32_t>(hit.id);
  return (hash ^ (row * 0x9e3779b97f4a7c15ull)) * kPrime;
}

}  // namespace

Digest DigestOf(const std::vector<lpath::Hit>& sorted_rows) {
  Digest d;
  for (const lpath::Hit& hit : sorted_rows) d.hash = Step(d.hash, hit);
  d.count = sorted_rows.size();
  return d;
}

void SortRows(std::vector<lpath::Hit>* rows) {
  std::sort(rows->begin(), rows->end());
  rows->erase(std::unique(rows->begin(), rows->end()), rows->end());
}

bool PrefixPreserved(const std::vector<lpath::Hit>& before,
                     int32_t before_trees,
                     const std::vector<lpath::Hit>& after) {
  const auto end = std::lower_bound(after.begin(), after.end(),
                                    lpath::Hit{before_trees, 0});
  return std::equal(before.begin(), before.end(), after.begin(), end);
}

void Checker::Record(const std::string& text, std::vector<lpath::Hit> rows,
                     int32_t trees) {
  const Digest digest = DigestOf(rows);
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = text_index_.emplace(text, texts_.size());
  if (inserted) texts_.push_back(text);
  ops_.push_back(Op{it->second, trees, digest});
}

void Checker::RecordFailure(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  violations_.push_back(what);
}

std::vector<std::string> Checker::Texts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return texts_;
}

uint64_t Checker::Verify(
    const std::vector<std::vector<lpath::Hit>>& reference) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t failed = violations_.size();
  for (const std::string& v : violations_) {
    std::fprintf(stderr, "check: %s\n", v.c_str());
  }
  if (reference.size() != texts_.size()) {
    std::fprintf(stderr, "check: %zu references for %zu texts\n",
                 reference.size(), texts_.size());
    return failed + ops_.size();
  }
  // Per text: the digest of every prefix of the reference rows.
  std::vector<std::vector<uint64_t>> prefix_hash(texts_.size());
  for (size_t t = 0; t < texts_.size(); ++t) {
    std::vector<uint64_t>& ph = prefix_hash[t];
    ph.resize(reference[t].size() + 1);
    ph[0] = 0;
    for (size_t i = 0; i < reference[t].size(); ++i) {
      ph[i + 1] = Step(ph[i], reference[t][i]);
    }
  }
  for (const Op& op : ops_) {
    const std::vector<lpath::Hit>& rows = reference[op.text];
    const size_t n = static_cast<size_t>(
        std::lower_bound(rows.begin(), rows.end(), lpath::Hit{op.trees, 0}) -
        rows.begin());
    const Digest want{n, prefix_hash[op.text][n]};
    if (!(op.digest == want)) {
      if (failed < 5) {
        std::fprintf(stderr,
                     "check: %s returned %llu rows, reference has %llu\n",
                     texts_[op.text].c_str(),
                     static_cast<unsigned long long>(op.digest.count),
                     static_cast<unsigned long long>(n));
      }
      ++failed;
    }
  }
  return failed;
}

}  // namespace perfbench
