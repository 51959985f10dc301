#pragma once

#include <cstddef>
#include <vector>

#include "exact/search_util.h"

namespace setsched::exact {

/// Dominance memo over branch-and-bound states. Because jobs are branched in
/// a fixed order, the remaining-job set is determined by the depth, so a
/// state is (depth, per-machine loads, per-machine paid-setup row). A new
/// node is prunable when some previously explored node at the same depth
/// dominates it (exact::dominates): cutoffs only tighten over time, so the
/// old subtree's exploration already covered it.
///
/// Storage is flat per depth and capped at `limit` states; once a depth is
/// full, new states are still checked against the stored ones but no longer
/// recorded (the memo stays sound, it just stops growing).
class DominanceTable {
 public:
  DominanceTable(std::size_t depths, std::size_t limit)
      : limit_(limit), levels_(depths) {}

  /// True iff a recorded node at `depth` dominates `node`; otherwise records
  /// the node (subject to the cap) and returns false.
  bool dominated_or_record(std::size_t depth, const Node& node) {
    Level& level = levels_[depth];
    for (std::size_t s = 0; s < level.count; ++s) {
      if (dominates(level.loads.data() + s * node.loads.size(),
                    level.class_on.data() + s * node.class_on.size(), node)) {
        ++hits_;
        return true;
      }
    }
    if (level.count < limit_) {
      level.loads.insert(level.loads.end(), node.loads.begin(),
                         node.loads.end());
      level.class_on.insert(level.class_on.end(), node.class_on.begin(),
                            node.class_on.end());
      ++level.count;
    }
    return false;
  }

  [[nodiscard]] std::size_t hits() const noexcept { return hits_; }

 private:
  struct Level {
    std::vector<double> loads;    ///< count x m, row-major
    std::vector<char> class_on;   ///< count x (m * kc), row-major
    std::size_t count = 0;
  };

  std::size_t limit_;
  std::vector<Level> levels_;
  std::size_t hits_ = 0;
};

}  // namespace setsched::exact
