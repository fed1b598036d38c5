/**
 * @file
 * ExperimentConfig: the single, layered configuration surface for one
 * simulated experiment.
 *
 * It is the one description of a run -- the CLI, Simulation, and every
 * bench sweep point are ExperimentConfigs: the refresh mechanism by
 * registry name, DRAM geometry and density, core count,
 * queue/watermark knobs, run lengths, and the workload mix.
 * toSystemConfig() projects it onto the SystemConfig that System and
 * Runner consume.
 *
 * Its fields, and the keys that set them, are generated from the one
 * key list in sim/config_keys.hh. Code fills the fields directly
 * (designated initializers follow the list order); every field is also
 * settable as a "key=value" string override, so the same config can be
 * assembled from (in order of increasing precedence) defaults, a
 * config file, the DSARP_SET environment variable, and CLI arguments:
 *
 *   ExperimentConfig cfg{.policy = "REFpb", .densityGb = 16};
 *   cfg.applyFile("experiment.cfg");   // lines of key=value
 *   cfg.applyEnv();                    // DSARP_SET="key=value,key=value"
 *   cfg.set("policy", "DSARP");        // programmatic / CLI
 *
 * Errors always name the offending key: unknown keys list the known
 * ones, bad values say what was expected, and validate() reports every
 * inconsistent field (not just the first).
 */

#ifndef DSARP_SIM_EXPERIMENT_HH
#define DSARP_SIM_EXPERIMENT_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/config.hh"
#include "sim/config_keys.hh"

namespace dsarp {

/**
 * Value types of the config key list (sim/config_keys.hh): what a
 * field holds, how it maps onto its SystemConfig path, and the type
 * name --list-keys prints. Each type's parser lives in experiment.cc.
 */
namespace keytype {

/** A field held exactly as the SystemConfig holds it. */
template <typename T>
struct Same
{
    using Value = T;
    static const T &toSystem(const T &v) { return v; }
    static const T &fromSystem(const T &v) { return v; }
};

struct Int : Same<int>
{
    static constexpr char kName[] = "int";
};

/** Non-negative. */
struct U64 : Same<std::uint64_t>
{
    static constexpr char kName[] = "u64";
};

struct Real : Same<double>
{
    static constexpr char kName[] = "number";
};

/** true/false, yes/no, on/off or 1/0, in any case. */
struct Bool : Same<bool>
{
    static constexpr char kName[] = "bool";
};

/** A non-empty string; the key's doc line says what it names. */
struct Name : Same<std::string>
{
    static constexpr char kName[] = "name";
};

/** A Name, stored lowercased. */
struct Lower : Same<std::string>
{
    static constexpr char kName[] = "name";
};

/** Any string, the empty one included. */
struct Text : Same<std::string>
{
    static constexpr char kName[] = "text";
};

/** A chip density in Gb (8/16/32), projected onto Density. */
struct Gb
{
    using Value = int;
    static constexpr char kName[] = "int";
    static Density toSystem(int gb)
    {
        return gb == 8 ? Density::k8Gb
                       : (gb == 16 ? Density::k16Gb : Density::k32Gb);
    }
    static int fromSystem(Density d)
    {
        return d == Density::k8Gb ? 8 : (d == Density::k16Gb ? 16 : 32);
    }
};

} // namespace keytype

/**
 * The system an ExperimentConfig{} describes: SystemConfig's own
 * defaults, except that an experiment defaults to the paper's headline
 * point, DSARP at 32 Gb. Every SYS field of the key list defaults to
 * its value here.
 */
inline const SystemConfig &
defaultSystem()
{
    static const SystemConfig sys = [] {
        SystemConfig s;
        s.mem.policy = "DSARP";
        s.mem.density = Density::k32Gb;
        return s;
    }();
    return sys;
}

struct ExperimentConfig
{
    // One field per SYS and RUN row of the key list, in list order
    // (designated initializers follow it).
#define DSARP_FIELD_SYS(constant, key, Type, field, path, doc) \
    keytype::Type::Value field =                               \
        keytype::Type::fromSystem(defaultSystem().path);
#define DSARP_FIELD_RUN(constant, key, Type, field, init, doc) \
    keytype::Type::Value field = init;
    DSARP_CONFIG_KEYS(DSARP_FIELD_SYS, DSARP_KEY_SKIP, DSARP_FIELD_RUN)
#undef DSARP_FIELD_SYS
#undef DSARP_FIELD_RUN

    /** The traffic.* / tenant.* keys (TRAFFIC rows): traffic.mode
     *  "off" keeps the closed-loop cores. */
    TrafficConfig traffic{};

    /**
     * Set one field from its string form. Returns "" on success,
     * otherwise an error naming the key (unknown key, or bad value and
     * what was expected).
     */
    std::string trySet(const std::string &key, const std::string &value);

    /** trySet(), but a fatal named-key error on failure. */
    void set(const std::string &key, const std::string &value);

    /** Apply one "key=value" override (fatal named-key error). */
    void applyOverride(const std::string &assignment);

    /**
     * Apply a config file: one "key=value" per line, '#' comments and
     * blank lines ignored. Errors are fatal and name file:line and key.
     */
    void applyFile(const std::string &path);

    /**
     * Apply config-file-format lines from @p in; @p name labels error
     * messages the way a path would. The file layer of applyFile()
     * with the I/O separated, so tests and the fuzz harnesses can
     * drive the parser from memory.
     */
    void applyStream(std::istream &in, const std::string &name);

    /**
     * Apply overrides from the DSARP_SET environment variable, a
     * comma-separated list of "key=value" pairs. No-op when unset.
     */
    void applyEnv();

    /**
     * Apply a DSARP_SET-format list ("key=value,key=value"). The env
     * layer of applyEnv() with the getenv separated, for tests and
     * the fuzz harnesses.
     */
    void applyEnvString(const std::string &overrides);

    /** Every override key, sorted (for help text and error messages). */
    static std::vector<std::string> knownKeys();

    /** The --list-keys text: one line per key, sorted, giving its
     *  type, its ExperimentConfig{} default and its doc line. */
    static std::string keyListing();

    /**
     * Cross-field validation. Returns "" when consistent, otherwise a
     * ';'-separated list of errors, each naming the bad key. Includes
     * the refresh-policy name check against the registry and the full
     * MemConfig/SystemConfig validation.
     */
    std::string validate() const;

    /** Canonical mechanism name from the registry ("dsarp" → "DSARP");
     *  a fatal named-key error when the policy is unknown. */
    std::string mechanismName() const;

    /** Canonical DRAM spec name from the registry ("ddr4" →
     *  "DDR4-2400"); a fatal named-key error when unknown. */
    std::string dramSpecName() const;

    /** Project onto the SystemConfig consumed by System (not yet
     *  finalized; System resolves + validates on construction). */
    SystemConfig toSystemConfig() const;
};

} // namespace dsarp

#endif // DSARP_SIM_EXPERIMENT_HH
