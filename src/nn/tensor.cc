#include "tensor.hh"

#include <algorithm>
#include <cassert>

namespace ptolemy::nn
{

void
Tensor::fill(float v)
{
    std::fill(buf.begin(), buf.end(), v);
}

Tensor &
Tensor::operator+=(const Tensor &other)
{
    assert(shp == other.shp);
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] += other.buf[i];
    return *this;
}

Tensor &
Tensor::operator*=(float s)
{
    for (float &v : buf)
        v *= s;
    return *this;
}

double
Tensor::sumSq() const
{
    double s = 0.0;
    for (float v : buf)
        s += static_cast<double>(v) * v;
    return s;
}

std::size_t
Tensor::argmax() const
{
    return static_cast<std::size_t>(
        std::max_element(buf.begin(), buf.end()) - buf.begin());
}

} // namespace ptolemy::nn
