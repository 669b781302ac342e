#include "dram/power_model.hh"

#include <algorithm>

#include "common/trace_event.hh"

namespace smtdram
{

PowerModel::PowerModel(const DramConfig &config, std::uint32_t channel)
    : ranks_(config.chipsPerChannel),
      banksPerChip_(config.banksPerChip),
      channel_(channel),
      machine_(config.power.active()),
      pdIdle_(config.power.powerdownIdle),
      slowIdle_(config.power.slowExitIdle),
      srIdle_(config.power.selfRefreshIdle),
      exitFast_(config.power.exitFast),
      exitSlow_(config.power.exitSlow),
      exitSelfRefresh_(config.power.exitSelfRefresh)
{
    const PowerConfig &p = config.power;
    const DramTiming &t = config.timing;

    // E = V * I * t: with I in mA and t = 1/(f_MHz * 1e6) s, one
    // cycle of 1 mA costs VDD/f_MHz nanojoules exactly.
    vddOverMhz_ = p.vdd / t.cpuMhz;

    actNj_ = energyPerCycleNj(p.idd0 - p.idd3n) * t.rowAccess;
    preNj_ = energyPerCycleNj(p.idd0 - p.idd2n) * t.precharge;
    const Cycle burst = config.burstCycles();
    readBurstNj_ = energyPerCycleNj(p.idd4r - p.idd3n) * burst;
    writeBurstNj_ = energyPerCycleNj(p.idd4w - p.idd3n) * burst;
    refreshNj_ = energyPerCycleNj(p.idd5 - p.idd3n) * t.refreshCycles;

    // Standby current while Active: IDD3N once rows are held open
    // (the steady state of open-page mode), IDD2N when every access
    // precharges immediately behind itself.
    bgActiveNj_ = energyPerCycleNj(
        config.pageMode == PageMode::Open ? p.idd3n : p.idd2n);
    bgPowerdownFastNj_ = energyPerCycleNj(p.idd3p);
    bgPowerdownSlowNj_ = energyPerCycleNj(p.idd2p);
    bgSelfRefreshNj_ = energyPerCycleNj(p.idd6);
}

double
PowerModel::energyPerCycleNj(double idd_ma) const
{
    return vddOverMhz_ * idd_ma;
}

PowerState
PowerModel::stateAt(std::uint32_t rank, Cycle now) const
{
    if (!machine_)
        return PowerState::Active;
    const Rank &r = ranks_[rank];
    if (now < r.busyUntil)
        return PowerState::Active;
    const Cycle idle = now - r.busyUntil;
    if (idle < pdIdle_)
        return PowerState::Active;
    if (idle < slowIdle_)
        return PowerState::PowerdownFast;
    if (idle < srIdle_)
        return PowerState::PowerdownSlow;
    return PowerState::SelfRefresh;
}

void
PowerModel::meterAccess(std::uint32_t rank, bool is_write, bool scrub,
                        bool row_hit, bool bank_was_idle,
                        Cycle busy_until)
{
    double command_nj = 0.0;
    if (!row_hit) {
        command_nj += actNj_;
        if (!bank_was_idle)
            command_nj += preNj_;
    }
    const double burst_nj = is_write ? writeBurstNj_ : readBurstNj_;
    if (scrub) {
        add(stats_.scrubEnergy, command_nj + burst_nj, rank);
    } else {
        if (command_nj > 0.0)
            add(stats_.activateEnergy, command_nj, rank);
        add(is_write ? stats_.writeEnergy : stats_.readEnergy,
            burst_nj, rank);
    }
    noteBusyUntil(rank, busy_until);
}

void
PowerModel::meterRefresh(std::uint32_t rank, Cycle busy_until)
{
    add(stats_.refreshEnergy, refreshNj_, rank);
    noteBusyUntil(rank, busy_until);
}

void
PowerModel::meterPreventiveRefresh(std::uint32_t rank, Cycle busy_until)
{
    add(stats_.mitigationEnergy, actNj_ + preNj_, rank);
    noteBusyUntil(rank, busy_until);
}

void
PowerModel::meterBackground(std::uint32_t rank, PowerState s,
                            Cycle cycles)
{
    if (cycles == 0)
        return;
    double per_cycle = bgActiveNj_;
    switch (s) {
      case PowerState::Active:
        stats_.activeCycles += cycles;
        break;
      case PowerState::PowerdownFast:
        per_cycle = bgPowerdownFastNj_;
        stats_.powerdownFastCycles += cycles;
        break;
      case PowerState::PowerdownSlow:
        per_cycle = bgPowerdownSlowNj_;
        stats_.powerdownSlowCycles += cycles;
        break;
      case PowerState::SelfRefresh:
        per_cycle = bgSelfRefreshNj_;
        stats_.selfRefreshCycles += cycles;
        break;
    }
    add(stats_.backgroundEnergy,
        per_cycle * static_cast<double>(cycles), rank);
}

void
PowerModel::accountTo(std::uint32_t rank, Cycle upTo)
{
    Rank &r = ranks_[rank];
    if (upTo <= r.accountedUntil)
        return;
    Cycle at = r.accountedUntil;
    r.accountedUntil = upTo;

    // Active through the busy window and the powerdown entry delay.
    const Cycle active_end =
        machine_ ? (r.busyUntil > kCycleNever - pdIdle_
                        ? kCycleNever
                        : r.busyUntil + pdIdle_)
                 : kCycleNever;
    if (at < active_end) {
        const Cycle end = std::min(upTo, active_end);
        meterBackground(rank, PowerState::Active, end - at);
        at = end;
    }
    if (at >= upTo)
        return;
    const Cycle slow_start = r.busyUntil + slowIdle_;
    if (at < slow_start) {
        const Cycle end = std::min(upTo, slow_start);
        meterBackground(rank, PowerState::PowerdownFast, end - at);
        at = end;
    }
    if (at >= upTo)
        return;
    const Cycle sr_start = r.busyUntil + srIdle_;
    if (at < sr_start) {
        const Cycle end = std::min(upTo, sr_start);
        meterBackground(rank, PowerState::PowerdownSlow, end - at);
        at = end;
    }
    if (at < upTo)
        meterBackground(rank, PowerState::SelfRefresh, upTo - at);
}

WakeResult
PowerModel::wake(std::uint32_t rank, Cycle now, std::uint32_t open_rows,
                 Tracer *tracer)
{
    accountTo(rank, now);

    WakeResult res;
    res.from = stateAt(rank, now);
    switch (res.from) {
      case PowerState::Active:
        return res;
      case PowerState::PowerdownFast:
        res.penalty = exitFast_;
        break;
      case PowerState::PowerdownSlow:
        res.penalty = exitSlow_;
        break;
      case PowerState::SelfRefresh:
        res.penalty = exitSelfRefresh_;
        break;
    }

    Rank &r = ranks_[rank];
    const Cycle pd_start = r.busyUntil + pdIdle_;
    ++stats_.powerdownEntries;
    if (res.from == PowerState::SelfRefresh)
        ++stats_.selfRefreshEntries;
    stats_.exitPenaltyCycles += res.penalty;
    stats_.lowPowerSpanHist.sample(now - pd_start);

    if (tracer) {
        const int pid = tracePidChannel(channel_);
        const int tid = traceTidRankPower(rank);
        const Cycle slow_start = r.busyUntil + slowIdle_;
        const Cycle sr_start = r.busyUntil + srIdle_;
        tracer->slice(pid, tid, "powerdown-fast", pd_start,
                      std::min(now, slow_start) - pd_start);
        if (now > slow_start) {
            tracer->slice(pid, tid, "powerdown-slow", slow_start,
                          std::min(now, sr_start) - slow_start);
        }
        if (now > sr_start) {
            tracer->slice(pid, tid, "self-refresh", sr_start,
                          now - sr_start);
        }
        tracer->instant(pid, tid,
                        res.from == PowerState::SelfRefresh
                            ? "sr-exit"
                            : "pd-exit",
                        now, Tracer::arg("penalty", res.penalty));
    }

    // Precharge-powerdown entry precharged every open row.
    if (open_rows > 0)
        add(stats_.activateEnergy, preNj_ * open_rows, rank);

    // The rank is awake (and busy) from here; the command's meter
    // call extends busyUntil to its completion.
    r.busyUntil = now;
    return res;
}

void
PowerModel::sync(Cycle now)
{
    for (std::uint32_t rank = 0; rank < ranks_.size(); ++rank)
        accountTo(rank, now);
}

void
PowerModel::reset(Cycle now)
{
    stats_ = PowerStats();
    for (Rank &r : ranks_) {
        r.energy = 0.0;
        r.accountedUntil = std::max(r.accountedUntil, now);
    }
}

} // namespace smtdram
