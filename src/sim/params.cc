#include "sim/params.hh"

#include <sstream>

#include "common/log.hh"

namespace dbpsim {

namespace {

/** Sets each keyed field that the config names; fixed fields have no key. */
struct ConfigReader
{
    const Config &config;

    void key(const char *k, unsigned &f)
    {
        f = static_cast<unsigned>(config.getUInt(k, f));
    }
    void key(const char *k, std::uint64_t &f) { f = config.getUInt(k, f); }
    void key(const char *k, double &f) { f = config.getDouble(k, f); }
    void key(const char *k, bool &f) { f = config.getBool(k, f); }
    void key(const char *k, std::string &f) { f = config.getString(k, f); }
    void key(const char *k, MapScheme &f) { named(k, f, mapSchemeByName); }
    void key(const char *k, PagePolicy &f) { named(k, f, pagePolicyByName); }
    void key(const char *k, RefreshMode &f)
    {
        named(k, f, refreshModeByName);
    }
    void key(const char *k, SalpMode &f) { named(k, f, salpModeByName); }
    void key(const char *k, MigrationMode &f)
    {
        named(k, f, migrationModeByName);
    }
    template <class T>
    void fixed(const char *, const T &)
    {
    }

    template <class E>
    void named(const char *k, E &f, E (*byName)(const std::string &))
    {
        if (config.has(k))
            f = byName(config.getString(k));
    }
};

} // namespace

void
SystemParams::applyConfig(const Config &config)
{
    Config keys = config;
    // refresh=darp is shorthand for per-bank + refresh-aware; an
    // explicit refresh_aware still overrides the aware half.
    if (keys.getString("refresh") == "darp") {
        keys.set("refresh", "perbank");
        if (!keys.has("refresh_aware"))
            keys.set("refresh_aware", "1");
    }
    ConfigReader reader{keys};
    visit(reader);

    if (subarrayColoring && controller.salp == SalpMode::None)
        fatal("subarray_color=1 requires a salp mode: without "
              "subarray-level parallelism the finer colors only "
              "shrink each thread's usable row-buffer set");
    if (cacheEnabled) {
        CacheParams checked = cache;
        checked.lineBytes = geometry.lineBytes;
        std::string err = checked.validate();
        if (!err.empty())
            fatal("cache_size=", cache.sizeBytes, " cache_assoc=",
                  cache.associativity, ": ", err);
    }
}

std::string
SystemParams::summary() const
{
    std::ostringstream os;
    os << numCores << " cores, " << geometry.channels << "ch x "
       << geometry.ranksPerChannel << "rk x " << geometry.banksPerRank
       << "bk (" << geometry.totalBanks() << " banks), " << timingName
       << ", sched=" << scheduler << ", part=" << partition
       << ", map=" << mapSchemeName(scheme)
       << ", refresh=" << refreshModeName(controller.refresh.mode);
    if (controller.refresh.aware)
        os << "+aware";
    if (controller.salp != SalpMode::None) {
        os << ", salp=" << salpModeName(controller.salp) << " ("
           << geometry.subarraysPerBank << " subarrays)";
        if (subarrayColoring)
            os << "+color";
    }
    return os.str();
}

} // namespace dbpsim
