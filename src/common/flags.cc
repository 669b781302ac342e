#include "common/flags.hh"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"

namespace smtdram
{

void
Flags::declare(const std::string &name, const std::string &default_value,
               const std::string &help)
{
    panic_if(decls_.count(name), "flag --%s declared twice", name.c_str());
    decls_[name] = Decl{default_value, help};
}

void
Flags::parse(int argc, char **argv, const std::string &program_doc)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::printf("%s\n\nFlags:\n", program_doc.c_str());
            for (const auto &[name, decl] : decls_) {
                std::printf("  --%-24s %s (default: %s)\n", name.c_str(),
                            decl.help.c_str(), decl.defaultValue.c_str());
            }
            std::exit(0);
        }
        fatal_if(arg.size() < 3 || arg.substr(0, 2) != "--",
                 "unexpected argument '%s' (flags start with --)",
                 arg.c_str());
        std::string body = arg.substr(2);
        std::string name, value;
        auto eq = body.find('=');
        if (eq != std::string::npos) {
            name = body.substr(0, eq);
            value = body.substr(eq + 1);
        } else {
            name = body;
            // "--name value" unless the flag is boolean-style (next
            // token missing or another flag).
            if (i + 1 < argc && argv[i + 1][0] != '-') {
                value = argv[++i];
            } else {
                value = "true";
            }
        }
        fatal_if(!decls_.count(name), "unknown flag --%s (try --help)",
                 name.c_str());
        values_[name] = value;
    }
}

std::string
Flags::getString(const std::string &name) const
{
    auto it = values_.find(name);
    if (it != values_.end())
        return it->second;
    auto dit = decls_.find(name);
    panic_if(dit == decls_.end(), "undeclared flag --%s", name.c_str());
    return dit->second.defaultValue;
}

std::int64_t
Flags::getInt(const std::string &name) const
{
    const std::string s = getString(name);
    char *end = nullptr;
    errno = 0;
    long long v = std::strtoll(s.c_str(), &end, 0);
    fatal_if(end == s.c_str() || *end != '\0' || errno == ERANGE,
             "flag --%s expects an integer, got '%s'", name.c_str(),
             s.c_str());
    return v;
}

std::uint64_t
Flags::parseUnsigned(const std::string &name, const std::string &text,
                     std::uint64_t max)
{
    // strtoull() also takes leading space and a sign, and wraps "-5"
    // to 2^64 - 5: only a digit may lead.
    const bool digit = !text.empty() &&
                       std::isdigit(static_cast<unsigned char>(text[0]));
    char *end = nullptr;
    errno = 0;
    const unsigned long long v =
        digit ? std::strtoull(text.c_str(), &end, 0) : 0;
    fatal_if(!digit || *end != '\0' || errno == ERANGE || v > max,
             "flag --%s expects a whole number from 0 to %llu, got '%s'",
             name.c_str(), (unsigned long long)max, text.c_str());
    return v;
}

double
Flags::getDouble(const std::string &name) const
{
    const std::string s = getString(name);
    char *end = nullptr;
    double v = std::strtod(s.c_str(), &end);
    fatal_if(end == s.c_str() || *end != '\0',
             "flag --%s expects a number, got '%s'", name.c_str(),
             s.c_str());
    return v;
}

bool
Flags::getBool(const std::string &name) const
{
    const std::string s = getString(name);
    if (s == "true" || s == "1" || s == "yes" || s == "on")
        return true;
    if (s == "false" || s == "0" || s == "no" || s == "off")
        return false;
    fatal("flag --%s expects a boolean, got '%s'", name.c_str(), s.c_str());
}

bool
Flags::given(const std::string &name) const
{
    return values_.count(name) != 0;
}

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= csv.size()) {
        size_t comma = csv.find(',', start);
        if (comma == std::string::npos) {
            if (start < csv.size())
                out.push_back(csv.substr(start));
            break;
        }
        if (comma > start)
            out.push_back(csv.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

} // namespace smtdram
