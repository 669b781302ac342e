#include "dram/row_hammer.hh"

#include <algorithm>

#include "common/logging.hh"

namespace smtdram
{

RowHammerModel::RowHammerModel(const HammerConfig &config,
                               std::uint32_t banks,
                               std::uint32_t rowsPerBank,
                               std::uint32_t channel)
    : config_(config), rowsPerBank_(rowsPerBank), banks_(banks),
      flipRng_(config.seed + 0xc2b2'ae3dULL * (channel + 1))
{
    if (config_.mitigates()) {
        for (BankState &b : banks_)
            b.table.reserve(config_.trackerCapacity);
    }
}

std::uint64_t
RowHammerModel::rawPressure(const BankState &bank,
                            std::uint32_t row) const
{
    std::uint64_t sum = 0;
    for (std::uint32_t d = 1; d <= config_.blastRadius; ++d) {
        if (row >= d) {
            auto it = bank.actCount.find(row - d);
            if (it != bank.actCount.end())
                sum += it->second;
        }
        if (row + d < rowsPerBank_) {
            auto it = bank.actCount.find(row + d);
            if (it != bank.actCount.end())
                sum += it->second;
        }
    }
    return sum;
}

void
RowHammerModel::recordActivation(std::uint32_t bank, std::uint32_t row,
                                 std::vector<MitigationRequest> &out)
{
    BankState &b = banks_[bank];
    ++b.actCount[row];
    ++stats_.activations;

    // Disturb both neighborhoods of the aggressor: each victim whose
    // accumulated (unrelieved) pressure is past the threshold takes
    // one flip trial per further aggressor ACT.
    for (std::uint32_t d = 1; d <= config_.blastRadius; ++d) {
        for (int side = -1; side <= 1; side += 2) {
            const std::int64_t v64 =
                static_cast<std::int64_t>(row) +
                side * static_cast<std::int64_t>(d);
            if (v64 < 0 ||
                v64 >= static_cast<std::int64_t>(rowsPerBank_)) {
                continue;
            }
            const auto victim = static_cast<std::uint32_t>(v64);
            std::uint64_t pressure = rawPressure(b, victim);
            auto relief = b.relieved.find(victim);
            if (relief != b.relieved.end()) {
                pressure -= std::min(pressure, relief->second);
            }
            if (pressure < config_.hammerThreshold)
                continue;
            ++stats_.thresholdCrossings;
            if (flipRng_.chance(config_.flipProbability)) {
                ++b.flips[victim];
                ++stats_.victimFlips;
            }
        }
    }

    if (config_.mitigates())
        updateTracker(b, bank, row, out);
}

void
RowHammerModel::updateTracker(BankState &bank, std::uint32_t bankIdx,
                              std::uint32_t row,
                              std::vector<MitigationRequest> &out)
{
    // Misra-Gries frequent-item update.  Invariant: any row activated
    // more than `spillover` times this window has a table entry whose
    // count is at least its true ACT count minus spillover, so no
    // aggressor can reach the mitigation threshold untracked.
    TrackerEntry *entry = nullptr;
    for (TrackerEntry &e : bank.table) {
        if (e.row == row) {
            entry = &e;
            break;
        }
    }
    if (entry != nullptr) {
        ++entry->count;
    } else if (bank.table.size() < config_.trackerCapacity) {
        bank.table.push_back({row, bank.spillover + 1});
        entry = &bank.table.back();
    } else {
        auto floor = std::min_element(
            bank.table.begin(), bank.table.end(),
            [](const TrackerEntry &a, const TrackerEntry &b2) {
                return a.count < b2.count;
            });
        if (floor->count <= bank.spillover) {
            // Recycle the floor entry for the new row; its old count
            // is indistinguishable from spillover anyway.
            floor->row = row;
            floor->count = bank.spillover + 1;
            entry = &*floor;
        } else {
            ++bank.spillover;
            ++stats_.trackerEvictions;
            return;
        }
    }

    if (entry->count < config_.mitigationThreshold)
        return;

    // Graphene fires: preventively refresh the aggressor's neighbors
    // and reset the counter so the same row must re-earn a trigger.
    entry->count = 0;
    for (std::uint32_t d = 1; d <= config_.blastRadius; ++d) {
        for (int side = -1; side <= 1; side += 2) {
            const std::int64_t v64 =
                static_cast<std::int64_t>(row) +
                side * static_cast<std::int64_t>(d);
            if (v64 < 0 ||
                v64 >= static_cast<std::int64_t>(rowsPerBank_)) {
                continue;
            }
            out.push_back(
                {bankIdx, static_cast<std::uint32_t>(v64)});
            ++stats_.mitigationsRequested;
        }
    }
}

void
RowHammerModel::onBankRefresh(std::uint32_t bank)
{
    BankState &b = banks_[bank];
    b.actCount.clear();
    b.relieved.clear();
    b.table.clear();
    b.spillover = 0;
    ++stats_.windowResets;
}

void
RowHammerModel::onPreventiveRefresh(std::uint32_t bank,
                                    std::uint32_t row)
{
    BankState &b = banks_[bank];
    // The refreshed victim's charge is restored: all pressure its
    // neighbors have built so far no longer counts against it.
    b.relieved[row] = rawPressure(b, row);
}

std::uint32_t
RowHammerModel::flipsOn(std::uint32_t bank, std::uint32_t row) const
{
    const BankState &b = banks_[bank];
    auto it = b.flips.find(row);
    return it == b.flips.end() ? 0 : it->second;
}

void
RowHammerModel::clearFlips(std::uint32_t bank, std::uint32_t row,
                           bool countAsScrubbed)
{
    BankState &b = banks_[bank];
    auto it = b.flips.find(row);
    if (it == b.flips.end())
        return;
    if (countAsScrubbed)
        stats_.flipsScrubbed += it->second;
    b.flips.erase(it);
}

std::uint64_t
RowHammerModel::flippedRows() const
{
    std::uint64_t n = 0;
    for (const BankState &b : banks_)
        n += b.flips.size();
    return n;
}

} // namespace smtdram
