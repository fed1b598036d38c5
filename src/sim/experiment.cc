#include "sim/experiment.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "common/log.hh"
#include "common/strings.hh"
#include "dram/spec.hh"
#include "refresh/registry.hh"

namespace dsarp {

namespace {

std::string
parse(keytype::Int, const std::string &value, int &out, const char *)
{
    try {
        std::size_t pos = 0;
        const int parsed = std::stoi(value, &pos);
        if (pos != value.size())
            return "expected an integer, got '" + value + "'";
        out = parsed;
        return "";
    } catch (const std::exception &) {
        return "expected an integer, got '" + value + "'";
    }
}

std::string
parse(keytype::Gb, const std::string &value, int &out, const char *doc)
{
    return parse(keytype::Int{}, value, out, doc);
}

std::string
parse(keytype::U64, const std::string &value, std::uint64_t &out,
      const char *)
{
    try {
        std::size_t pos = 0;
        const unsigned long long parsed = std::stoull(value, &pos);
        if (pos != value.size() || value[0] == '-')
            return "expected a non-negative integer, got '" + value + "'";
        out = parsed;
        return "";
    } catch (const std::exception &) {
        return "expected a non-negative integer, got '" + value + "'";
    }
}

std::string
parse(keytype::Real, const std::string &value, double &out, const char *)
{
    try {
        std::size_t pos = 0;
        const double parsed = std::stod(value, &pos);
        if (pos != value.size())
            return "expected a number, got '" + value + "'";
        out = parsed;
        return "";
    } catch (const std::exception &) {
        return "expected a number, got '" + value + "'";
    }
}

std::string
parse(keytype::Bool, const std::string &value, bool &out, const char *)
{
    const std::string v = lowered(value);
    if (v == "1" || v == "true" || v == "yes" || v == "on") {
        out = true;
        return "";
    }
    if (v == "0" || v == "false" || v == "no" || v == "off") {
        out = false;
        return "";
    }
    return "expected a boolean (true/false/1/0), got '" + value + "'";
}

/** A Name key's doc line says what it names ("a DRAM spec name ..."). */
std::string
parse(keytype::Name, const std::string &value, std::string &out,
      const char *doc)
{
    if (value.empty())
        return std::string("expected ") + doc;
    out = value;
    return "";
}

std::string
parse(keytype::Lower, const std::string &value, std::string &out,
      const char *doc)
{
    return parse(keytype::Name{}, lowered(value), out, doc);
}

std::string
parse(keytype::Text, const std::string &value, std::string &out,
      const char *)
{
    out = value;
    return "";
}

/** The --list-keys text of a default value. */
template <typename T>
std::string
show(const T &v)
{
    if constexpr (std::is_same_v<T, bool>) {
        return v ? "true" : "false";
    } else if constexpr (std::is_same_v<T, std::string>) {
        return v.empty() ? "\"\"" : v;
    } else {
        std::ostringstream out;
        out << v;
        return out.str();
    }
}

/** One key of the list: its text, and its field's parser and printer
 *  (plain function pointers, so a lookup walks a flat array). */
struct KeyRow
{
    const char *key;
    const char *type;
    const char *doc;
    std::string (*set)(ExperimentConfig &, const std::string &);
    std::string (*show)(const ExperimentConfig &);
};

#define DSARP_KEY_ROW(key, Type, field, doc)                              \
    {key, keytype::Type::kName, doc,                                      \
     [](ExperimentConfig &cfg, const std::string &v) {                    \
         return parse(keytype::Type{}, v, cfg.field, doc);                \
     },                                                                   \
     [](const ExperimentConfig &cfg) { return show(cfg.field); }},
#define DSARP_ROW_SYS(constant, key, Type, field, path, doc) \
    DSARP_KEY_ROW(key, Type, field, doc)
#define DSARP_ROW_TRAFFIC(constant, key, Type, member, doc) \
    DSARP_KEY_ROW(key, Type, traffic.member, doc)
#define DSARP_ROW_RUN(constant, key, Type, field, init, doc) \
    DSARP_KEY_ROW(key, Type, field, doc)

const KeyRow kRows[] = {
    DSARP_CONFIG_KEYS(DSARP_ROW_SYS, DSARP_ROW_TRAFFIC, DSARP_ROW_RUN)};

#undef DSARP_KEY_ROW
#undef DSARP_ROW_SYS
#undef DSARP_ROW_TRAFFIC
#undef DSARP_ROW_RUN

} // namespace

std::string
ExperimentConfig::trySet(const std::string &key, const std::string &value)
{
    const std::string wanted = trimmed(key);
    for (const KeyRow &row : kRows) {
        if (!equalsIgnoreCase(row.key, wanted))
            continue;
        std::string err = row.set(*this, trimmed(value));
        if (!err.empty())
            err = "config key '" + std::string(row.key) + "': " + err;
        return err;
    }
    std::ostringstream msg;
    msg << "unknown config key '" << key << "'; known:";
    for (const std::string &known : knownKeys())
        msg << ' ' << known;
    return msg.str();
}

void
ExperimentConfig::set(const std::string &key, const std::string &value)
{
    const std::string err = trySet(key, value);
    if (!err.empty())
        DSARP_FATALF("%s", err.c_str());
}

void
ExperimentConfig::applyOverride(const std::string &assignment)
{
    const auto eq = assignment.find('=');
    if (eq == std::string::npos) {
        DSARP_FATALF("override '%s' is not of the form key=value",
                     assignment.c_str());
    }
    set(assignment.substr(0, eq), assignment.substr(eq + 1));
}

void
ExperimentConfig::applyFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        DSARP_FATALF("cannot open config file '%s'", path.c_str());
    applyStream(in, path);
}

void
ExperimentConfig::applyStream(std::istream &in, const std::string &path)
{
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trimmed(line);
        if (line.empty())
            continue;
        const auto eq = line.find('=');
        if (eq == std::string::npos) {
            DSARP_FATALF("%s:%d: '%s' is not of the form key=value",
                         path.c_str(), lineno, line.c_str());
        }
        const std::string err =
            trySet(line.substr(0, eq), line.substr(eq + 1));
        if (!err.empty()) {
            DSARP_FATALF("%s:%d: %s", path.c_str(), lineno, err.c_str());
        }
    }
}

void
ExperimentConfig::applyEnv()
{
    const char *env = std::getenv("DSARP_SET");
    if (!env || !*env)
        return;
    applyEnvString(env);
}

void
ExperimentConfig::applyEnvString(const std::string &overrides)
{
    std::istringstream stream(overrides);
    std::string item;
    while (std::getline(stream, item, ',')) {
        item = trimmed(item);
        if (!item.empty())
            applyOverride(item);
    }
}

std::vector<std::string>
ExperimentConfig::knownKeys()
{
    std::vector<std::string> out;
    for (const KeyRow &row : kRows)
        out.push_back(row.key);
    std::sort(out.begin(), out.end());
    return out;
}

std::string
ExperimentConfig::keyListing()
{
    const ExperimentConfig defaults;
    std::vector<std::string> lines;
    for (const KeyRow &row : kRows) {
        char head[96];
        std::snprintf(head, sizeof(head), "%-30s %-6s %-10s ", row.key,
                      row.type, row.show(defaults).c_str());
        lines.push_back(head + std::string(row.doc) + "\n");
    }
    std::sort(lines.begin(), lines.end());
    std::ostringstream out;
    for (const std::string &line : lines)
        out << line;
    return out.str();
}

std::string
ExperimentConfig::validate() const
{
    std::ostringstream bad;
    const char *sep = "";
    auto fail = [&](const std::string &msg) {
        bad << sep << msg;
        sep = "; ";
    };

    const auto &registry = RefreshPolicyRegistry::instance();
    if (!registry.has(policy))
        fail(registry.unknownPolicyMessage(policy));
    const auto &specs = DramSpecRegistry::instance();
    if (!specs.has(dramSpec))
        fail(specs.unknownSpecMessage(dramSpec));
    if (densityGb != 8 && densityGb != 16 && densityGb != 32) {
        fail(std::string("config key '") + keys::kDensityGb +
             "' must be 8, 16 or 32 (got " +
             std::to_string(densityGb) + ")");
    }
    if (intensityPct != 0 && intensityPct != 25 && intensityPct != 50 &&
        intensityPct != 75 && intensityPct != 100) {
        fail(std::string("config key '") + keys::kIntensityPct +
             "' must be one of 0/25/50/75/100 (got " +
             std::to_string(intensityPct) + ")");
    }
    // System-level keys (numCores, sim.engine, the traffic.* family)
    // and the memory system, whose messages already name keys.
    // rowsPerBank must be applied first, as finalize() would, and the
    // policy's config bundle resolved so checks that depend on the
    // selected mechanism (e.g. REFsb needing a spec with bank-group
    // support) fire here, not at System construction.
    SystemConfig sys = toSystemConfig();
    const std::string sysErrors = sys.validate();
    if (!sysErrors.empty())
        fail(sysErrors);
    if (densityGb == 8 || densityGb == 16 || densityGb == 32) {
        sys.mem.org.rowsPerBank = rowsPerBankFor(sys.mem.density);
        if (registry.has(sys.mem.policy))
            registry.resolve(sys.mem);
        const std::string memErrors = sys.mem.validate();
        if (!memErrors.empty())
            fail(memErrors);
    }
    return bad.str();
}

std::string
ExperimentConfig::mechanismName() const
{
    return RefreshPolicyRegistry::instance().at(policy).name;
}

std::string
ExperimentConfig::dramSpecName() const
{
    return DramSpecRegistry::instance().at(dramSpec).name;
}

SystemConfig
ExperimentConfig::toSystemConfig() const
{
    SystemConfig sys;
#define DSARP_PROJECT(constant, key, Type, field, path, doc) \
    sys.path = keytype::Type::toSystem(field);
    DSARP_CONFIG_KEYS(DSARP_PROJECT, DSARP_KEY_SKIP, DSARP_KEY_SKIP)
#undef DSARP_PROJECT
    sys.traffic = traffic;
    return sys;
}

} // namespace dsarp
