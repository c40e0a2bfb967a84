#include "harness/metrics.h"

#include "sim/executor.h"

namespace polarcxl::harness {

TimeBreakdown TimeBreakdown::OfLanes(sim::Executor& executor, Nanos origin) {
  TimeBreakdown b;
  for (size_t l = 0; l < executor.num_lanes(); l++) {
    const sim::ExecContext& lane = executor.context(static_cast<uint32_t>(l));
    b.total += lane.now - origin;
    b.mem += lane.t_mem;
    b.io += lane.t_io;
    b.net += lane.t_net;
    b.lock += lane.t_lock;
  }
  return b;
}

}  // namespace polarcxl::harness
