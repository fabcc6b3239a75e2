// Umbrella header for the ALPS core library.
//
//   #include "alps/alps.h"
//
// pulls in the scheduler (the paper's Figure-3 algorithm), the backend
// interfaces, group principals, the Table-1 cost model, and the
// adaptive-quantum extension. Backends are separate:
//   * simulation:  alps/sim_adapter.h   (links alps_os/alps_sim)
//   * real Linux:  posix/runner.h       (links alps_posix)
#pragma once

#include "alps/adaptive.h"        // IWYU pragma: export
#include "alps/cost_model.h"      // IWYU pragma: export
#include "alps/group_control.h"   // IWYU pragma: export
#include "alps/host.h"            // IWYU pragma: export
#include "alps/process_control.h" // IWYU pragma: export
#include "alps/scheduler.h"       // IWYU pragma: export
