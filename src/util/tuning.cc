#include "util/tuning.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace ptolemy
{

namespace
{

unsigned g_applied = 0;

/** The only knobs a tuning file may set (see header). */
const char *const kKnobs[] = {
    "PTOLEMY_NUM_THREADS",
    "PTOLEMY_SIMD",
};

bool
isKnownKnob(const std::string &name)
{
    for (const char *k : kKnobs)
        if (name == k)
            return true;
    return false;
}

void
skipSpace(const std::string &s, std::size_t &i)
{
    while (i < s.size() &&
           std::isspace(static_cast<unsigned char>(s[i])))
        ++i;
}

/** Parse a JSON string starting at the opening quote; advances @p i
 *  past the closing quote. Handles \" escapes (enough for knob names
 *  and values, which are plain identifiers/numbers). */
bool
parseString(const std::string &s, std::size_t &i, std::string &out)
{
    if (i >= s.size() || s[i] != '"')
        return false;
    out.clear();
    for (++i; i < s.size(); ++i) {
        if (s[i] == '\\' && i + 1 < s.size()) {
            out.push_back(s[++i]);
        } else if (s[i] == '"') {
            ++i;
            return true;
        } else {
            out.push_back(s[i]);
        }
    }
    return false;
}

/**
 * Extract the key/value pairs of the "picked_env" object from a
 * bench_sweep picks JSON. Values may be strings or bare numbers (the
 * sweep writes whatever type the grid held); both surface as the
 * string setenv needs. A deliberately small scanner, not a general
 * JSON parser: the input format is our own tool's output.
 */
bool
parsePickedEnv(const std::string &text,
               std::vector<std::pair<std::string, std::string>> &out)
{
    const std::size_t key = text.find("\"picked_env\"");
    if (key == std::string::npos)
        return false;
    std::size_t i = text.find('{', key);
    if (i == std::string::npos)
        return false;
    ++i;
    for (;;) {
        skipSpace(text, i);
        if (i >= text.size())
            return false;
        if (text[i] == '}')
            return true;
        if (text[i] == ',') {
            ++i;
            continue;
        }
        std::string name;
        if (!parseString(text, i, name))
            return false;
        skipSpace(text, i);
        if (i >= text.size() || text[i] != ':')
            return false;
        ++i;
        skipSpace(text, i);
        std::string value;
        if (i < text.size() && text[i] == '"') {
            if (!parseString(text, i, value))
                return false;
        } else {
            // Bare token (number / true / false) up to a delimiter.
            const std::size_t start = i;
            while (i < text.size() && text[i] != ',' && text[i] != '}' &&
                   !std::isspace(static_cast<unsigned char>(text[i])))
                ++i;
            if (i == start)
                return false;
            value = text.substr(start, i - start);
        }
        out.emplace_back(std::move(name), std::move(value));
    }
}

} // namespace

unsigned
applyTuningFile(const char *path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr,
                     "ptolemy: tuning file %s unreadable; ignoring\n",
                     path);
        return 0;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    std::vector<std::pair<std::string, std::string>> env;
    if (!parsePickedEnv(text, env)) {
        std::fprintf(stderr,
                     "ptolemy: tuning file %s has no parseable "
                     "picked_env block; ignoring\n",
                     path);
        return 0;
    }
    unsigned applied = 0;
    for (const auto &[name, value] : env) {
        if (!isKnownKnob(name))
            continue; // never inject arbitrary environment
        if (std::getenv(name.c_str()) != nullptr)
            continue; // explicit environment wins
        if (::setenv(name.c_str(), value.c_str(), /*overwrite=*/0) == 0)
            ++applied;
    }
    g_applied += applied;
    return applied;
}

void
ensureTuningApplied()
{
    static std::once_flag once;
    std::call_once(once, [] {
        const char *path = std::getenv("PTOLEMY_TUNING_FILE");
        if (path != nullptr && path[0] != '\0')
            applyTuningFile(path);
    });
}

unsigned
tuningKnobsApplied()
{
    ensureTuningApplied();
    return g_applied;
}

} // namespace ptolemy
