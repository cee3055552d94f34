#include "serialize.hh"

#include <cstring>

namespace ptolemy
{

void
writeU64(std::ostream &os, std::uint64_t v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

void
writeU32(std::ostream &os, std::uint32_t v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

void
writeF64(std::ostream &os, double v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

void
writeFloats(std::ostream &os, std::span<const float> v)
{
    writeU64(os, v.size());
    os.write(reinterpret_cast<const char *>(v.data()),
             v.size() * sizeof(float));
}

void
writeString(std::ostream &os, const std::string &s)
{
    writeU64(os, s.size());
    os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

bool
readU64(std::istream &is, std::uint64_t &v)
{
    is.read(reinterpret_cast<char *>(&v), sizeof(v));
    return is.good();
}

bool
readU32(std::istream &is, std::uint32_t &v)
{
    is.read(reinterpret_cast<char *>(&v), sizeof(v));
    return is.good();
}

bool
readF64(std::istream &is, double &v)
{
    is.read(reinterpret_cast<char *>(&v), sizeof(v));
    return is.good();
}

namespace
{
// Upper bound on any length prefix this codebase writes (the largest
// real payload is a network's conv weight vector, well under 2^26
// elements). A corrupt length field — e.g. a flipped high byte turning
// 19 into 2^56 — must be rejected before resize(), never handed to the
// allocator: under AddressSanitizer an absurd allocation is a hard
// error, and even without it the stream would fault or OOM.
constexpr std::uint64_t kMaxLenPrefix = 1ull << 26;

template <typename Alloc>
bool
readFloatsInto(std::istream &is, std::vector<float, Alloc> &v)
{
    std::uint64_t n;
    if (!readU64(is, n) || n > kMaxLenPrefix)
        return false;
    v.resize(n);
    is.read(reinterpret_cast<char *>(v.data()),
            static_cast<std::streamsize>(n * sizeof(float)));
    return is.good() || (is.eof() && is.gcount() ==
        static_cast<std::streamsize>(n * sizeof(float)));
}
} // namespace

bool
readFloats(std::istream &is, std::vector<float> &v)
{
    return readFloatsInto(is, v);
}

bool
readFloats(std::istream &is, util::AlignedF32 &v)
{
    return readFloatsInto(is, v);
}

bool
readString(std::istream &is, std::string &s)
{
    std::uint64_t n;
    if (!readU64(is, n) || n > kMaxLenPrefix)
        return false;
    s.resize(n);
    is.read(s.data(), static_cast<std::streamsize>(n));
    return is.good() || (is.eof() && is.gcount() ==
        static_cast<std::streamsize>(n));
}

} // namespace ptolemy
