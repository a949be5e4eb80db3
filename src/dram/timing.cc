#include "dram/timing.hh"

#include "common/log.hh"

namespace dbpsim {

std::string
DramTiming::validate() const
{
    // Each message is built only on its failing branch: a System
    // validates every channel's timing on the success path.
    if (tRC < tRAS + tRP)
        return concat(name, ": tRC (", tRC, ") < tRAS + tRP (",
                      tRAS + tRP, ")");
    if (tFAW < tRRD)
        return concat(name, ": tFAW (", tFAW, ") < tRRD (", tRRD, ")");
    if (tBURST == 0 || tCL == 0 || tCWL == 0 || tRCD == 0 || tRP == 0)
        return concat(name, ": zero-valued core timing parameter");
    if (tWR == 0 || tWTR == 0 || tRTP == 0)
        return concat(name, ": zero-valued write/read recovery parameter "
                      "(tWR/tWTR/tRTP)");
    if (tCCD < tBURST)
        return concat(name, ": tCCD (", tCCD, ") < tBURST (", tBURST,
                      ") — column commands would overlap data bursts");
    if (tRTRS > tCL)
        return concat(name, ": tRTRS (", tRTRS, ") > tCL (", tCL,
                      ") — rank-to-rank switch is a bus turnaround of a "
                      "few cycles; a larger value is almost certainly a "
                      "unit mistake");
    if (tREFI <= tRFC)
        return concat(name, ": tREFI (", tREFI, ") <= tRFC (", tRFC, ")");
    if (tREFI > 0 && tRFC == 0)
        return concat(name, ": tREFI (", tREFI, ") set but tRFC is zero");
    if (tRFCpb > tRFC)
        return concat(name, ": tRFCpb (", tRFCpb, ") > tRFC (", tRFC,
                      ")");
    if (tRFC > 0 && tRFCpb == 0)
        return concat(name, ": tRFC (", tRFC, ") set but tRFCpb is zero");
    if (tSA == 0)
        return concat(name, ": tSA is zero — SA_SEL relinking the "
                      "designated subarray takes at least one cycle");
    if (tSA > tRCD)
        return concat(name, ": tSA (", tSA, ") > tRCD (", tRCD,
                      ") — relinking an already-activated subarray's "
                      "latch must be cheaper than a full activate");
    return std::string();
}

DramTiming
ddr3_1600()
{
    return DramTiming{};
}

DramTiming
ddr3_1333()
{
    DramTiming t;
    t.name = "DDR3-1333";
    t.tckPs = 1500;
    t.tRCD = 9;
    t.tRP = 9;
    t.tCL = 9;
    t.tCWL = 7;
    t.tRAS = 24;
    t.tRC = 33;
    t.tWR = 10;
    t.tWTR = 5;
    t.tRTP = 5;
    t.tCCD = 4;
    t.tRRD = 4;
    t.tFAW = 20;
    t.tBURST = 4;
    t.tRTRS = 2;
    // 7.8 us / 1.5 ns and 160 ns (2 Gb) / 1.5 ns, rounded.
    t.tREFI = 5200;
    t.tRFC = 107;
    t.tRFCpb = 54;
    return t;
}

DramTiming
ddr3_1066()
{
    DramTiming t;
    t.name = "DDR3-1066";
    t.tckPs = 1875;
    t.tRCD = 8;
    t.tRP = 8;
    t.tCL = 8;
    t.tCWL = 6;
    t.tRAS = 20;
    t.tRC = 28;
    t.tWR = 8;
    t.tWTR = 4;
    t.tRTP = 4;
    t.tCCD = 4;
    t.tRRD = 4;
    t.tFAW = 16;
    t.tBURST = 4;
    t.tRTRS = 2;
    // 7.8 us / 1.875 ns and 160 ns (2 Gb) / 1.875 ns, rounded.
    t.tREFI = 4160;
    t.tRFC = 86;
    t.tRFCpb = 43;
    return t;
}

DramTiming
dramTimingByName(const std::string &name)
{
    if (name == "ddr3-1600" || name == "DDR3-1600")
        return ddr3_1600();
    if (name == "ddr3-1333" || name == "DDR3-1333")
        return ddr3_1333();
    if (name == "ddr3-1066" || name == "DDR3-1066")
        return ddr3_1066();
    fatal("unknown DRAM timing preset '", name, "'");
}

} // namespace dbpsim
