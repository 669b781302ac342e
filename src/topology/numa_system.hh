/**
 * @file
 * Former name of the multi-socket machine, which is now SmtSystem
 * (sim/smt_system.hh): one class builds every topology, 1x1 included.
 */

#ifndef SMTDRAM_TOPOLOGY_NUMA_SYSTEM_HH
#define SMTDRAM_TOPOLOGY_NUMA_SYSTEM_HH

#include "sim/smt_system.hh"

namespace smtdram
{

using NumaSystem = SmtSystem;

} // namespace smtdram

#endif // SMTDRAM_TOPOLOGY_NUMA_SYSTEM_HH
