#include "index/zone_map.h"

#include <algorithm>

namespace fielddb {

void IntersectRanges(const std::vector<PosRange>& a,
                     const std::vector<PosRange>& b,
                     std::vector<PosRange>* out) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const uint64_t begin = std::max(a[i].begin, b[j].begin);
    const uint64_t end = std::min(a[i].end, b[j].end);
    if (begin < end) out->push_back(PosRange{begin, end});
    // Advance whichever run ends first; the other may still overlap the
    // next run on this side.
    if (a[i].end < b[j].end) {
      ++i;
    } else {
      ++j;
    }
  }
}

}  // namespace fielddb
