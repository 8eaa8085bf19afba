#include "net/loggp.hh"

#include "base/logging.hh"

namespace nowcluster {

namespace {

/** Table 1, the one list of machines: each one's key, name and LogGP
 *  parameters (o split into its send and receive sides). */
struct MachineRow
{
    const char *key;
    const char *name;
    double oSendUs, oRecvUs, gapUs, latencyUs, bulkMBps;
};

constexpr MachineRow kMachines[] = {
    {"now", "Berkeley NOW", 1.8, 4.0, 5.8, 5.0, 38.0},
    {"paragon", "Intel Paragon", 1.4, 2.2, 7.6, 6.5, 141.0},
    {"meiko", "Meiko CS-2", 1.3, 2.1, 13.6, 7.5, 47.0},
};

MachineConfig
machineOf(const MachineRow &row)
{
    MachineConfig m;
    m.name = row.name;
    m.params.oSend = usec(row.oSendUs);
    m.params.oRecv = usec(row.oRecvUs);
    m.params.gap = usec(row.gapUs);
    m.params.latency = usec(row.latencyUs);
    m.params.setBulkMBps(row.bulkMBps);
    return m;
}

} // namespace

void
LogGPParams::setDesiredOverheadUsec(double o_us)
{
    Tick desired = usec(o_us);
    Tick base = (oSend + oRecv) / 2;
    fatal_if(desired < base,
             "desired overhead %.1f us below hardware baseline %.1f us",
             o_us, toUsec(base));
    addedO = desired - base;
}

void
LogGPParams::setDesiredGapUsec(double g_us)
{
    Tick desired = usec(g_us);
    fatal_if(desired < gap && desired < usec(0.1),
             "desired gap %.1f us is not positive", g_us);
    // The gap knob programs the injection delay loop directly.
    gap = desired;
}

void
LogGPParams::setDesiredLatencyUsec(double l_us)
{
    Tick desired = usec(l_us);
    fatal_if(desired < latency,
             "desired latency %.1f us below hardware baseline %.1f us",
             l_us, toUsec(latency));
    addedL = desired - latency;
}

void
LogGPParams::setOccupancyUsec(double o_us)
{
    fatal_if(o_us < 0, "occupancy cannot be negative");
    occupancy = usec(o_us);
}

MachineConfig
MachineConfig::berkeleyNow()
{
    return machineOf(kMachines[0]);
}

MachineConfig
MachineConfig::intelParagon()
{
    return machineOf(kMachines[1]);
}

MachineConfig
MachineConfig::meikoCs2()
{
    return machineOf(kMachines[2]);
}

std::optional<MachineConfig>
MachineConfig::byKey(std::string_view key)
{
    for (const MachineRow &row : kMachines)
        if (key == row.key)
            return machineOf(row);
    return std::nullopt;
}

std::string
MachineConfig::keys(const char *sep)
{
    std::string out;
    for (const MachineRow &row : kMachines)
        out += (out.empty() ? "" : sep) + std::string(row.key);
    return out;
}

std::string
MachineConfig::key() const
{
    for (const MachineRow &row : kMachines)
        if (name == row.name)
            return row.key;
    return "";
}

} // namespace nowcluster
