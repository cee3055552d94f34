/**
 * @file
 * Dense float tensor for the NN substrate.
 *
 * The reproduction trains and attacks small CNNs, so tensors are
 * single-sample (no batch dimension): a feature map is (C, H, W) and a
 * vector is (N). Keeping the batch loop outside the layers keeps every
 * layer's forward/backward easy to audit against the math.
 */

#ifndef PTOLEMY_NN_TENSOR_HH
#define PTOLEMY_NN_TENSOR_HH

#include <cstddef>
#include <stdexcept>
#include <vector>

namespace ptolemy::nn
{

/** Shape of a tensor: up to three dims; (C,H,W) for maps, (N) for vectors. */
struct Shape
{
    int c = 0; ///< channels (or vector length when h == w == 0)
    int h = 0; ///< height; 0 for flat vectors
    int w = 0; ///< width; 0 for flat vectors

    /** Flat element count. */
    std::size_t
    numel() const
    {
        if (h == 0 && w == 0)
            return static_cast<std::size_t>(c);
        return static_cast<std::size_t>(c) * h * w;
    }

    /** True for a flat (N) vector shape. */
    bool isFlat() const { return h == 0 && w == 0; }

    bool operator==(const Shape &other) const = default;
};

/** Make a flat vector shape of length n. */
inline Shape
flatShape(int n)
{
    return Shape{n, 0, 0};
}

/** Make a (C,H,W) feature-map shape. */
inline Shape
mapShape(int c, int h, int w)
{
    return Shape{c, h, w};
}

/**
 * Dense float tensor with CHW layout.
 */
class Tensor
{
  public:
    Tensor() = default;

    /** Zero-initialized tensor of the given shape. */
    explicit Tensor(Shape s) : shp(s), buf(s.numel(), 0.0f) {}

    /** Tensor adopting existing data; std::invalid_argument unless its
     *  size matches the shape. */
    Tensor(Shape s, std::vector<float> data) : shp(s), buf(std::move(data))
    {
        if (buf.size() != shp.numel())
            throw std::invalid_argument(
                "Tensor: data size does not match the shape");
    }

    const Shape &shape() const { return shp; }
    std::size_t size() const { return buf.size(); }
    bool empty() const { return buf.empty(); }

    float *data() { return buf.data(); }
    const float *data() const { return buf.data(); }
    std::vector<float> &vec() { return buf; }
    const std::vector<float> &vec() const { return buf; }

    float &operator[](std::size_t i) { return buf[i]; }
    float operator[](std::size_t i) const { return buf[i]; }

    /** (c,y,x) accessor for feature maps. */
    float &
    at(int c, int y, int x)
    {
        return buf[(static_cast<std::size_t>(c) * shp.h + y) * shp.w + x];
    }

    float
    at(int c, int y, int x) const
    {
        return buf[(static_cast<std::size_t>(c) * shp.h + y) * shp.w + x];
    }

    /** Flat index of map element (c,y,x). */
    std::size_t
    index(int c, int y, int x) const
    {
        return (static_cast<std::size_t>(c) * shp.h + y) * shp.w + x;
    }

    /**
     * Reshape to @p s, reusing the existing buffer when capacity allows
     * (no heap traffic in a warmed-up inference loop). Element values
     * are unspecified afterwards; callers must overwrite them.
     */
    void
    resize(Shape s)
    {
        shp = s;
        buf.resize(s.numel());
    }

    /** Reshape to @p s and zero-fill, reusing the buffer when possible. */
    void
    resizeZero(Shape s)
    {
        shp = s;
        buf.assign(s.numel(), 0.0f);
    }

    /** Fill with a constant. */
    void fill(float v);

    /** Element-wise in-place add; shapes must match. */
    Tensor &operator+=(const Tensor &other);

    /** Element-wise in-place scale. */
    Tensor &operator*=(float s);

    /** Sum of squared elements (used by attack distortion metrics). */
    double sumSq() const;

    /** Index of the maximum element (argmax over logits). */
    std::size_t argmax() const;

  private:
    Shape shp;
    std::vector<float> buf;
};

} // namespace ptolemy::nn

#endif // PTOLEMY_NN_TENSOR_HH
