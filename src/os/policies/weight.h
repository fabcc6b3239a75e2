// nice → scheduling weight, and the integer virtual-clock step, shared by
// the zoo policies.
//
// The table is Linux CFS's prio_to_weight[]: each nice level is ~1.25× the
// next, normalized so nice 0 = 1024. Lottery and stride reuse the same table
// as their default ticket grant, so "one nice level" means the same relative
// share under every zoo policy and cross-policy comparisons differ only in
// mechanism, not in entitlement.
#pragma once

#include <array>
#include <cstdint>

namespace alps::os::policies {

inline constexpr int kNiceMin = -20;
inline constexpr int kNiceMax = 19;
inline constexpr std::int64_t kWeightNice0 = 1024;

/// CFS prio_to_weight[], indexed by nice + 20.
inline constexpr std::array<std::int64_t, 40> kNiceToWeight = {
    88761, 71755, 56483, 46273, 36291,  // -20 .. -16
    29154, 23254, 18705, 14949, 11916,  // -15 .. -11
    9548,  7620,  6100,  4904,  3906,   // -10 .. -6
    3121,  2501,  1991,  1586,  1277,   //  -5 .. -1
    1024,  820,   655,   526,   423,    //   0 ..  4
    335,   272,   215,   172,   137,    //   5 ..  9
    110,   87,    70,    56,    45,     //  10 .. 14
    36,    29,    23,    18,    15,     //  15 .. 19
};

[[nodiscard]] constexpr std::int64_t nice_to_weight(int nice) {
    if (nice < kNiceMin) nice = kNiceMin;
    if (nice > kNiceMax) nice = kNiceMax;
    return kNiceToWeight[static_cast<std::size_t>(nice - kNiceMin)];
}

/// The stride and CFS clock step: advances `vtime` by ran·scale/weight and
/// keeps the remainder, the part of ran·scale not yet worth a whole unit, in
/// `carry` for the next step, so charging a and then b leaves both exactly
/// where a + b does.
constexpr void advance_vclock(std::int64_t& vtime, std::int64_t& carry, std::int64_t ran_ns,
                              std::int64_t scale, std::int64_t weight) {
    const std::int64_t num = ran_ns * scale + carry;
    vtime += num / weight;
    carry = num % weight;
}

}  // namespace alps::os::policies
