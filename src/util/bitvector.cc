#include "bitvector.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

#include "bitvector_kernels.hh"
#include "simd.hh"

namespace ptolemy
{

namespace
{

/**
 * Word count below which the scalar loop wins (kernel setup + the
 * horizontal fold cost more than a handful of std::popcount calls).
 * Dispatch is observationally invisible either way — the kernels
 * compute the same exact integers.
 */
constexpr std::size_t kAvx2MinWords = 8;

inline bool
useAvx2(std::size_t nwords)
{
#ifdef PTOLEMY_HAVE_AVX2
    return nwords >= kAvx2MinWords && avx2Active();
#else
    (void)nwords;
    return false;
#endif
}

} // namespace

void
BitVector::reset()
{
    std::fill(words.begin(), words.end(), 0);
}

std::size_t
BitVector::popcount() const
{
#ifdef PTOLEMY_HAVE_AVX2
    if (useAvx2(words.size()))
        return detail::avx2Popcount(words.data(), words.size());
#endif
    std::size_t total = 0;
    for (std::uint64_t w : words)
        total += std::popcount(w);
    return total;
}

namespace
{

/** Mask covering bits [lo, hi) of a single 64-bit word, lo < hi <= 64. */
std::uint64_t
wordMask(std::size_t lo, std::size_t hi)
{
    std::uint64_t m = ~std::uint64_t{0};
    m >>= (64 - (hi - lo));
    return m << lo;
}

} // namespace

std::size_t
BitVector::popcountRange(std::size_t begin, std::size_t end) const
{
    assert(begin <= end && end <= numBits);
    if (begin == end)
        return 0;
    std::size_t first_word = begin >> 6;
    std::size_t last_word = (end - 1) >> 6;
    if (first_word == last_word) {
        return std::popcount(words[first_word] &
                             wordMask(begin & 63, ((end - 1) & 63) + 1));
    }
    std::size_t total =
        std::popcount(words[first_word] & wordMask(begin & 63, 64));
    // Boundary words stay scalar (they need the partial-word masks);
    // the interior full-word span dispatches to the AVX2 kernel.
    const std::size_t mid = last_word - first_word - 1;
#ifdef PTOLEMY_HAVE_AVX2
    if (useAvx2(mid)) {
        total += detail::avx2Popcount(words.data() + first_word + 1, mid);
    } else
#endif
    {
        for (std::size_t w = first_word + 1; w < last_word; ++w)
            total += std::popcount(words[w]);
    }
    total += std::popcount(words[last_word] & wordMask(0, ((end - 1) & 63) + 1));
    return total;
}

BitVector &
BitVector::operator|=(const BitVector &other)
{
    assert(numBits == other.numBits);
    for (std::size_t i = 0; i < words.size(); ++i)
        words[i] |= other.words[i];
    return *this;
}

std::size_t
BitVector::orAssignCountNew(const BitVector &other)
{
    assert(numBits == other.numBits);
    std::size_t added = 0;
    for (std::size_t i = 0; i < words.size(); ++i) {
        const std::uint64_t before = words[i];
        const std::uint64_t after = before | other.words[i];
        added += std::popcount(after ^ before);
        words[i] = after;
    }
    return added;
}

BitVector &
BitVector::operator&=(const BitVector &other)
{
    assert(numBits == other.numBits);
    for (std::size_t i = 0; i < words.size(); ++i)
        words[i] &= other.words[i];
    return *this;
}

std::size_t
BitVector::andPopcount(const BitVector &other) const
{
    assert(numBits == other.numBits);
#ifdef PTOLEMY_HAVE_AVX2
    if (useAvx2(words.size()))
        return detail::avx2AndPopcount(words.data(), other.words.data(),
                                       words.size());
#endif
    std::size_t total = 0;
    for (std::size_t i = 0; i < words.size(); ++i)
        total += std::popcount(words[i] & other.words[i]);
    return total;
}

std::size_t
BitVector::andPopcountRange(const BitVector &other, std::size_t begin,
                            std::size_t end) const
{
    assert(numBits == other.numBits);
    assert(begin <= end && end <= numBits);
    if (begin == end)
        return 0;
    std::size_t first_word = begin >> 6;
    std::size_t last_word = (end - 1) >> 6;
    auto masked = [&](std::size_t w, std::uint64_t mask) {
        return std::popcount(words[w] & other.words[w] & mask);
    };
    if (first_word == last_word)
        return masked(first_word, wordMask(begin & 63, ((end - 1) & 63) + 1));
    std::size_t total = masked(first_word, wordMask(begin & 63, 64));
    // Partial boundary words scalar, interior full-word span vectorized
    // (the per-class prefix sweeps hand this spans of thousands of
    // words, so the interior dominates).
    const std::size_t mid = last_word - first_word - 1;
#ifdef PTOLEMY_HAVE_AVX2
    if (useAvx2(mid)) {
        total += detail::avx2AndPopcount(words.data() + first_word + 1,
                                         other.words.data() + first_word + 1,
                                         mid);
    } else
#endif
    {
        for (std::size_t w = first_word + 1; w < last_word; ++w)
            total += std::popcount(words[w] & other.words[w]);
    }
    total += masked(last_word, wordMask(0, ((end - 1) & 63) + 1));
    return total;
}

double
BitVector::jaccard(const BitVector &other) const
{
    assert(numBits == other.numBits);
    std::size_t inter = 0, uni = 0;
#ifdef PTOLEMY_HAVE_AVX2
    if (useAvx2(words.size())) {
        detail::avx2AndOrPopcount(words.data(), other.words.data(),
                                  words.size(), inter, uni);
        return uni == 0 ? 1.0 : static_cast<double>(inter) / uni;
    }
#endif
    for (std::size_t i = 0; i < words.size(); ++i) {
        inter += std::popcount(words[i] & other.words[i]);
        uni += std::popcount(words[i] | other.words[i]);
    }
    return uni == 0 ? 1.0 : static_cast<double>(inter) / uni;
}

std::string
BitVector::serialize() const
{
    std::string blob;
    std::uint64_t n = numBits;
    blob.append(reinterpret_cast<const char *>(&n), sizeof(n));
    blob.append(reinterpret_cast<const char *>(words.data()),
                words.size() * sizeof(std::uint64_t));
    return blob;
}

bool
BitVector::deserialize(const std::string &blob, BitVector &out)
{
    if (blob.size() < sizeof(std::uint64_t))
        return false;
    std::uint64_t n;
    std::memcpy(&n, blob.data(), sizeof(n));
    std::size_t nwords = (n + 63) / 64;
    if (blob.size() != sizeof(n) + nwords * sizeof(std::uint64_t))
        return false;
    out.numBits = n;
    out.words.resize(nwords);
    std::memcpy(out.words.data(), blob.data() + sizeof(n),
                nwords * sizeof(std::uint64_t));
    return true;
}

} // namespace ptolemy
