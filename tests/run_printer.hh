/**
 * @file
 * gtest printers for run records.
 *
 * Tests compare whole RunResult and MixRun records with EXPECT_EQ.  On
 * a mismatch gtest prints both values; without these it would dump
 * the records' raw bytes.  They print the fields a reader checks
 * first, doubles to the last bit: cycles, IPCs, reads, read-latency
 * sum and energy.  Include this header in every test file that
 * compares run records, so one binary prints them one way.
 */

#ifndef SMTDRAM_TESTS_RUN_PRINTER_HH
#define SMTDRAM_TESTS_RUN_PRINTER_HH

#include <iomanip>
#include <limits>
#include <ostream>

#include "sim/experiment.hh"

namespace smtdram
{

inline void
PrintTo(const RunResult &r, std::ostream *os)
{
    *os << std::setprecision(std::numeric_limits<double>::max_digits10)
        << "{cycles=" << r.measuredCycles << " ipc=[";
    for (std::size_t t = 0; t < r.ipc.size(); ++t)
        *os << (t ? " " : "") << r.ipc[t];
    *os << "] reads=" << r.dram.reads
        << " latency_sum=" << r.dram.readLatency.sum()
        << " energy_nj=" << r.power.totalEnergy << "}";
}

inline void
PrintTo(const MixRun &m, std::ostream *os)
{
    *os << std::setprecision(std::numeric_limits<double>::max_digits10)
        << "{weighted_speedup=" << m.weightedSpeedup << " run=";
    PrintTo(m.run, os);
    *os << "}";
}

} // namespace smtdram

#endif // SMTDRAM_TESTS_RUN_PRINTER_HH
