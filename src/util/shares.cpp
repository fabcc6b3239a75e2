#include "util/shares.h"

#include "util/assert.h"

namespace alps::util {

Share total_shares(std::span<const Share> shares) {
    Share total = 0;
    for (Share s : shares) {
        ALPS_EXPECT(s > 0);
        total += s;
    }
    return total;
}

std::vector<double> ideal_fractions(std::span<const Share> shares) {
    const Share total = total_shares(shares);
    std::vector<double> out;
    out.reserve(shares.size());
    for (Share s : shares) {
        out.push_back(static_cast<double>(s) / static_cast<double>(total));
    }
    return out;
}

}  // namespace alps::util
