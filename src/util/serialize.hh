/**
 * @file
 * Minimal binary stream serialization used to cache trained models and
 * offline-generated class paths (the paper's "stored offline and reused
 * over time" artifacts, Sec. III-B).
 */

#ifndef PTOLEMY_UTIL_SERIALIZE_HH
#define PTOLEMY_UTIL_SERIALIZE_HH

#include <cstdint>
#include <istream>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "util/aligned.hh"

namespace ptolemy
{

/** Write a fixed-width little-endian integer. */
void writeU64(std::ostream &os, std::uint64_t v);
void writeU32(std::ostream &os, std::uint32_t v);

/** Write a double (IEEE-754 bit pattern). */
void writeF64(std::ostream &os, double v);

/** Write a float vector with a length prefix. */
void writeFloats(std::ostream &os, std::span<const float> v);

/** Write a length-prefixed string. */
void writeString(std::ostream &os, const std::string &s);

/** Readers return false on EOF/short-read so callers can reject caches.
 *  Length-prefixed readers also bound the prefix (2^26) before any
 *  allocation, so a corrupt length field is rejected instead of being
 *  handed to the allocator. */
bool readU64(std::istream &is, std::uint64_t &v);
bool readU32(std::istream &is, std::uint32_t &v);
bool readF64(std::istream &is, double &v);
bool readFloats(std::istream &is, std::vector<float> &v);
bool readFloats(std::istream &is, util::AlignedF32 &v);
bool readString(std::istream &is, std::string &s);

} // namespace ptolemy

#endif // PTOLEMY_UTIL_SERIALIZE_HH
