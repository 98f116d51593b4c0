/**
 * @file
 * The benchmark's three closed-loop workloads (see README.md).
 */
#ifndef FRORAM_PERFBENCH_WORKLOADS_HPP
#define FRORAM_PERFBENCH_WORKLOADS_HPP

#include "bench.hpp"

namespace perfbench {

/** ObliviousMap over OramSystem PIC_X32, single-threaded, no service. */
Outcome runKv(const Options& opt);
/** Two-shard Ring ORAM service on mmap files, working set 8x PLB reach. */
Outcome runRingWide(const Options& opt);
/** Journaled two-shard service: restart, recovery points, rollbacks. */
Outcome runRecover(const Options& opt);

} // namespace perfbench

#endif // FRORAM_PERFBENCH_WORKLOADS_HPP
