/**
 * @file
 * Tiny command-line flag parser for the benches and examples.
 *
 * Supports "--name=value", "--name value", and boolean "--name".
 * Unknown flags are fatal so typos in sweep scripts do not silently
 * run the wrong experiment.
 */

#ifndef SMTDRAM_COMMON_FLAGS_HH
#define SMTDRAM_COMMON_FLAGS_HH

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace smtdram
{

/** Parsed view of argv with typed accessors and --help support. */
class Flags
{
  public:
    /**
     * Declare a flag before parse().
     * @param name flag name without leading dashes.
     * @param default_value printable default.
     * @param help one-line description for --help output.
     */
    void declare(const std::string &name, const std::string &default_value,
                 const std::string &help);

    /**
     * Parse argv.  fatal()s on unknown flags; prints usage and exits 0
     * on --help.
     * @param program_doc one-line description printed atop --help.
     */
    void parse(int argc, char **argv, const std::string &program_doc);

    std::string getString(const std::string &name) const;
    std::int64_t getInt(const std::string &name) const;
    double getDouble(const std::string &name) const;
    bool getBool(const std::string &name) const;

    /**
     * Integer flag @p name as unsigned type @p T; fatal()s, naming the
     * flag, unless it is a whole number (decimal, 0x hex or 0 octal)
     * that fits @p T, so a negative or oversized value never wraps.
     */
    template <class T>
    T
    getUnsigned(const std::string &name) const
    {
        return static_cast<T>(parseUnsigned(
            name, getString(name), std::numeric_limits<T>::max()));
    }

    /** @p text checked as getUnsigned() checks flag @p name's value,
     *  up to @p max: for the items of a list flag. */
    static std::uint64_t parseUnsigned(
        const std::string &name, const std::string &text,
        std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

    /** True if the flag was explicitly given on the command line. */
    bool given(const std::string &name) const;

  private:
    struct Decl {
        std::string defaultValue;
        std::string help;
    };

    std::map<std::string, Decl> decls_;
    std::map<std::string, std::string> values_;
};

/** Split a comma-separated list, e.g. "2,4,8" -> {"2","4","8"}. */
std::vector<std::string> splitList(const std::string &csv);

} // namespace smtdram

#endif // SMTDRAM_COMMON_FLAGS_HH
