/**
 * @file
 * The command line of the ca_* tools: one parser and one rules-file
 * reader.
 *
 * Options are `--name value`, `--name=value`, or a bare `--name` for a
 * flag that takes no value; every other argument is positional. Each
 * tool (and each ca_artifact subcommand) names the options it accepts.
 * Anything else that starts with '-', and a valued option with no
 * value, is an error the tool answers with its usage and exit status
 * 2: a mistyped option must not quietly leave its setting at the
 * default.
 */
#ifndef CA_TOOLS_CLI_H
#define CA_TOOLS_CLI_H

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/error.h"

namespace ca::cli {

/** One accepted option, named without its leading dashes. */
struct Option
{
    const char *name;
    bool takesValue = true;
};

/** A parsed command line, options in the order given. */
struct Args
{
    std::vector<std::string> positional;
    std::vector<std::pair<std::string, std::string>> options;

    /** The first value given for @p name, or @p fallback. */
    std::string
    opt(const std::string &name, const std::string &fallback = {}) const
    {
        for (const auto &[k, v] : options)
            if (k == name)
                return v;
        return fallback;
    }

    /** Every value given for a repeatable option, in order. */
    std::vector<std::string>
    optAll(const std::string &name) const
    {
        std::vector<std::string> out;
        for (const auto &[k, v] : options)
            if (k == name)
                out.push_back(v);
        return out;
    }

    /** True when @p name was given (the way to read a flag). */
    bool
    has(const std::string &name) const
    {
        for (const auto &kv : options)
            if (kv.first == name)
                return true;
        return false;
    }
};

/**
 * Parses argv[start, argc) against @p accepted and the telemetry
 * options every tool takes (--metrics-out, --trace-out, which
 * telemetry::CliSession reads). On an argument it cannot accept it
 * names it on stderr, prefixed by @p tool, and returns nullopt.
 */
inline std::optional<Args>
parseArgs(int argc, char **argv, int start, const char *tool,
          const std::vector<Option> &accepted)
{
    auto find = [&](const std::string &key) -> const Option * {
        static const Option telemetry[] = {{"metrics-out"}, {"trace-out"}};
        for (const Option &o : accepted)
            if (key == o.name)
                return &o;
        for (const Option &o : telemetry)
            if (key == o.name)
                return &o;
        return nullptr;
    };
    Args args;
    for (int i = start; i < argc; ++i) {
        const std::string a = argv[i];
        if (a.empty() || a[0] != '-') {
            args.positional.push_back(a);
            continue;
        }
        // A single dash keeps its '-', so it names no option.
        std::string key = a.substr(a.rfind("--", 0) == 0 ? 2 : 0);
        std::optional<std::string> value;
        if (size_t eq = key.find('='); eq != std::string::npos) {
            value = key.substr(eq + 1);
            key.resize(eq);
        }
        const Option *o = find(key);
        if (!o) {
            std::fprintf(stderr, "%s: unknown option %s\n", tool, a.c_str());
            return std::nullopt;
        }
        if (o->takesValue && !value) {
            if (i + 1 == argc) {
                std::fprintf(stderr, "%s: --%s needs a value\n", tool,
                             o->name);
                return std::nullopt;
            }
            value = argv[++i];
        } else if (!o->takesValue && value) {
            std::fprintf(stderr, "%s: --%s takes no value\n", tool, o->name);
            return std::nullopt;
        }
        args.options.emplace_back(key, value.value_or(""));
    }
    return args;
}

/** A rules file: one rule per line; empty and '#' lines are skipped. */
inline std::vector<std::string>
readRulesFile(const std::string &path)
{
    std::ifstream is(path);
    CA_FATAL_IF(!is, "cannot open rules file " << path);
    std::vector<std::string> rules;
    std::string line;
    while (std::getline(is, line)) {
        if (!line.empty() && line[0] != '#')
            rules.push_back(line);
    }
    CA_FATAL_IF(rules.empty(), "no rules in " << path);
    return rules;
}

} // namespace ca::cli

#endif // CA_TOOLS_CLI_H
