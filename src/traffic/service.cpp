#include "traffic/service.h"

#include <algorithm>
#include <cmath>

#include "util/assert.h"

namespace alps::traffic {

using util::Duration;

Duration ServiceModel::draw(util::Rng& rng, Duration mean) const {
    ALPS_EXPECT(mean > Duration::zero());
    switch (kind) {
        case ServiceKind::kDeterministic:
            return std::max(mean, floor);
        case ServiceKind::kExponential:
            return std::max(rng.exponential(mean), floor);
        case ServiceKind::kPareto: {
            ALPS_EXPECT(shape > 1.0);  // else the mean diverges
            // Scale x_m chosen so E = x_m·alpha/(alpha-1) equals `mean`;
            // inverse-CDF draw x_m·u^(-1/alpha) with u in (0, 1].
            const double xm =
                static_cast<double>(mean.count()) * (shape - 1.0) / shape;
            const double u = 1.0 - rng.next_double();
            const double d = xm * std::pow(u, -1.0 / shape);
            return std::max(Duration{static_cast<std::int64_t>(d)}, floor);
        }
    }
    ALPS_ENSURE(false);  // unreachable: all kinds handled above
    return floor;
}

}  // namespace alps::traffic
