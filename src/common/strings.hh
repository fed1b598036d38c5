/**
 * @file
 * Tiny string helpers shared by the config/registry layers.
 */

#ifndef DSARP_COMMON_STRINGS_HH
#define DSARP_COMMON_STRINGS_HH

#include <algorithm>
#include <cctype>
#include <string>
#include <string_view>

namespace dsarp {

/** ASCII-lowercased copy (for case-insensitive key/name lookups). */
inline std::string
lowered(const std::string &s)
{
    std::string out = s;
    std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return out;
}

/** ASCII case-insensitive equality, without lowered()'s copies. */
inline bool
equalsIgnoreCase(std::string_view a, std::string_view b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](unsigned char x, unsigned char y) {
                          return std::tolower(x) == std::tolower(y);
                      });
}

/** Copy of @p s without leading/trailing whitespace. */
inline std::string
trimmed(const std::string &s)
{
    const auto first = s.find_first_not_of(" \t\r\n");
    if (first == std::string::npos)
        return "";
    const auto last = s.find_last_not_of(" \t\r\n");
    return s.substr(first, last - first + 1);
}

} // namespace dsarp

#endif // DSARP_COMMON_STRINGS_HH
