/**
 * @file
 * Fundamental scalar types shared by every smtdram subsystem.
 *
 * The simulator is cycle-stepped at processor-clock granularity
 * (3 GHz by default, see sim/system_config.hh), so every latency in
 * the code base is expressed in processor cycles unless a name says
 * otherwise.
 */

#ifndef SMTDRAM_COMMON_TYPES_HH
#define SMTDRAM_COMMON_TYPES_HH

#include <bit>
#include <cstdint>
#include <limits>

namespace smtdram
{

/** Processor-clock cycle count (3 GHz by default). */
using Cycle = std::uint64_t;

/** Byte address, virtual or physical depending on context. */
using Addr = std::uint64_t;

/** Hardware thread (context) index inside the SMT core. */
using ThreadId = std::uint32_t;

/** Monotonically increasing per-thread instruction sequence number. */
using InstSeq = std::uint64_t;

/** Sentinel for "no cycle" / "never". */
inline constexpr Cycle kCycleNever = std::numeric_limits<Cycle>::max();

/** Sentinel for invalid addresses. */
inline constexpr Addr kAddrInvalid = std::numeric_limits<Addr>::max();

/** Sentinel thread id (e.g. DRAM writeback traffic with no owner). */
inline constexpr ThreadId kThreadNone =
    std::numeric_limits<ThreadId>::max();

/** True iff @p v is a non-zero power of two. */
constexpr bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** floor(log2(v)): the integer log2 of a power of two; 0 for v <= 1. */
constexpr unsigned
floorLog2(std::uint64_t v)
{
    return static_cast<unsigned>(std::bit_width(v | 1)) - 1;
}

} // namespace smtdram

#endif // SMTDRAM_COMMON_TYPES_HH
