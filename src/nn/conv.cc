#include "conv.hh"

#include <stdexcept>

#include "nn/gemm.hh"
#include "nn/psum_kernels.hh"

namespace ptolemy::nn
{

Conv2d::Conv2d(std::string name, int in_c, int out_c, int k, int stride,
               int pad)
    : Layer(std::move(name)), inC(in_c), outC(out_c), kSize(k), strd(stride),
      padding(pad),
      weight(static_cast<std::size_t>(out_c) * in_c * k * k, 0.0f),
      bias(out_c, 0.0f), gradWeight(weight.size(), 0.0f),
      gradBias(out_c, 0.0f)
{
    weightsChanged();
}

Shape
Conv2d::outShapeFor(const Shape &in) const
{
    const int oh = (in.h + 2 * padding - kSize) / strd + 1;
    const int ow = (in.w + 2 * padding - kSize) / strd + 1;
    return mapShape(outC, oh, ow);
}

Shape
Conv2d::outputShape(const std::vector<Shape> &ins) const
{
    requireShape(ins.size() == 1 && ins[0].c == inC,
                 "input channels differ from in_channels");
    requireShape(ins[0].h + 2 * padding >= kSize &&
                     ins[0].w + 2 * padding >= kSize,
                 "padded input is smaller than the kernel");
    return outShapeFor(ins[0]);
}

void
Conv2d::forwardInto(const std::vector<const Tensor *> &ins, Tensor &out,
                    bool train) const
{
    (void)train;
    const Tensor &in = *ins[0];
    // outShapeFor instead of outputShape({...}): the braced vector
    // temporary was the hot path's only steady-state heap allocation.
    out.resize(outShapeFor(in.shape()));
    convForwardPacked(in.data(), inC, in.shape().h, in.shape().w, kSize,
                      strd, padding, out.shape().h, out.shape().w, packedWt,
                      bias.data(), out.data());
}

void
Conv2d::weightsChanged()
{
    // B[k][oc] = W^T, packed straight from the [outC x K] weight rows.
    const int K = inC * kSize * kSize;
    packBMatrixStrided(weight.data(), /*k_stride=*/1, /*n_stride=*/K, K,
                       outC, packedWt);
}

void
Conv2d::setWeights(std::span<const float> w)
{
    if (w.size() != weight.size())
        throw std::invalid_argument("Conv2d::setWeights: expected " +
                                    std::to_string(weight.size()) +
                                    " weights, got " +
                                    std::to_string(w.size()));
    weight.assign(w.begin(), w.end());
    weightsChanged();
}

void
Conv2d::forwardNaive(const Tensor &in, Tensor &out) const
{
    out.resize(outShapeFor(in.shape()));
    const int ih = in.shape().h, iw = in.shape().w;
    const int oh = out.shape().h, ow = out.shape().w;

    for (int oc = 0; oc < outC; ++oc) {
        for (int oy = 0; oy < oh; ++oy) {
            for (int ox = 0; ox < ow; ++ox) {
                float acc = bias[oc];
                const int iy0 = oy * strd - padding;
                const int ix0 = ox * strd - padding;
                for (int ic = 0; ic < inC; ++ic) {
                    for (int ky = 0; ky < kSize; ++ky) {
                        const int iy = iy0 + ky;
                        if (iy < 0 || iy >= ih)
                            continue;
                        for (int kx = 0; kx < kSize; ++kx) {
                            const int ix = ix0 + kx;
                            if (ix < 0 || ix >= iw)
                                continue;
                            acc += wAt(oc, ic, ky, kx) * in.at(ic, iy, ix);
                        }
                    }
                }
                out.at(oc, oy, ox) = acc;
            }
        }
    }
}

void
Conv2d::backwardInto(const std::vector<const Tensor *> &ins,
                     const Tensor &grad_out,
                     const std::vector<GradSink> &sinks,
                     std::vector<float> *const *param_grads)
{
    const bool skip = param_grads == skipParamGrads();
    auto *grad_w =
        skip ? nullptr : (param_grads ? param_grads[0] : &gradWeight);
    auto *grad_b =
        skip ? nullptr : (param_grads ? param_grads[1] : &gradBias);
    backwardGemm(*ins[0], grad_out, sinks[0], grad_w, grad_b);
}

void
Conv2d::backwardGemm(const Tensor &in, const Tensor &grad_out,
                     const GradSink &sink, std::vector<float> *grad_w,
                     std::vector<float> *grad_b)
{
    const int ih = in.shape().h, iw = in.shape().w;
    const int oh = grad_out.shape().h, ow = grad_out.shape().w;
    const std::size_t ohw = static_cast<std::size_t>(oh) * ow;
    const int kdim = inC * kSize * kSize;

    if (grad_b) {
        for (int oc = 0; oc < outC; ++oc) {
            const float *row =
                grad_out.data() + static_cast<std::size_t>(oc) * ohw;
            float acc = 0.0f;
            for (std::size_t i = 0; i < ohw; ++i)
                acc += row[i];
            (*grad_b)[oc] += acc;
        }
    }
    if (grad_w) {
        // The im2col only feeds the dW product, so the input-only
        // backward skips both.
        auto &col = gemmScratch().col;
        im2col(in.data(), inC, ih, iw, kSize, strd, padding, oh, ow, col);
        // grad_W[outC x kdim] += grad_out[outC x ohw] * col^T.
        sgemmNT(outC, kdim, static_cast<int>(ohw), grad_out.data(),
                col.data(), grad_w->data(), /*accumulate=*/true);
    }
    if (!sink.grad)
        return; // nothing consumes dL/d(in)
    if (!sink.accumulate)
        sink.grad->resize(in.shape());
    convBackwardInput(grad_out.data(), outC, oh, ow, weight.data(), inC, ih,
                      iw, kSize, strd, padding, sink.grad->data(),
                      sink.accumulate);
}

void
Conv2d::backwardNaive(const Tensor &in, const Tensor &grad_out,
                      Tensor &grad_in, std::vector<float> *grad_w,
                      std::vector<float> *grad_b) const
{
    grad_in.resizeZero(in.shape());
    const int ih = in.shape().h, iw = in.shape().w;
    const int oh = grad_out.shape().h, ow = grad_out.shape().w;

    for (int oc = 0; oc < outC; ++oc) {
        for (int oy = 0; oy < oh; ++oy) {
            for (int ox = 0; ox < ow; ++ox) {
                const float g = grad_out.at(oc, oy, ox);
                if (g == 0.0f)
                    continue;
                if (grad_b)
                    (*grad_b)[oc] += g;
                const int iy0 = oy * strd - padding;
                const int ix0 = ox * strd - padding;
                for (int ic = 0; ic < inC; ++ic) {
                    for (int ky = 0; ky < kSize; ++ky) {
                        const int iy = iy0 + ky;
                        if (iy < 0 || iy >= ih)
                            continue;
                        for (int kx = 0; kx < kSize; ++kx) {
                            const int ix = ix0 + kx;
                            if (ix < 0 || ix >= iw)
                                continue;
                            const std::size_t wi =
                                ((static_cast<std::size_t>(oc) * inC + ic) *
                                 kSize + ky) * kSize + kx;
                            if (grad_w)
                                (*grad_w)[wi] += g * in.at(ic, iy, ix);
                            grad_in.at(ic, iy, ix) += g * weight[wi];
                        }
                    }
                }
            }
        }
    }
}

std::vector<Param>
Conv2d::params()
{
    return {{&weight, &gradWeight}, {&bias, &gradBias}};
}

void
Conv2d::partialSums(const Tensor &input, std::size_t out_index, PsumRow &out,
                    const std::uint32_t *rf_offsets) const
{
    const int ih = input.shape().h, iw = input.shape().w;
    const int oh = (ih + 2 * padding - kSize) / strd + 1;
    const int ow = (iw + 2 * padding - kSize) / strd + 1;
    const std::size_t plane = static_cast<std::size_t>(oh) * ow;
    const int oc = static_cast<int>(out_index / plane);
    const std::size_t rem = out_index % plane;
    const int oy = static_cast<int>(rem / ow);
    const int ox = static_cast<int>(rem % ow);

    const int iy0 = oy * strd - padding;
    const int ix0 = ox * strd - padding;

    if (rf_offsets && iy0 >= 0 && ix0 >= 0 && iy0 + kSize <= ih &&
        ix0 + kSize <= iw) {
        // Interior neuron: the whole receptive field is in-image, so the
        // row is the weight row times the input gathered at base +
        // offset — the same taps, order and single-rounding products as
        // the clipped loop below.
        const std::size_t n = receptiveFieldSize();
        out.resize(n);
        const float *w = &weight[static_cast<std::size_t>(oc) * n];
        const auto base =
            static_cast<std::uint32_t>(static_cast<std::size_t>(iy0) * iw +
                                       static_cast<std::size_t>(ix0));
#ifdef PTOLEMY_HAVE_AVX2
        if (avx2Active()) {
            detail::avx2GatherProducts(w, input.data(), base, rf_offsets, n,
                                       out.value.data(), out.index.data());
            return;
        }
#endif
        const float *in = input.data();
        for (std::size_t j = 0; j < n; ++j) {
            out.index[j] = base + rf_offsets[j];
            out.value[j] = w[j] * in[out.index[j]];
        }
        return;
    }

    out.clear();
    for (int ic = 0; ic < inC; ++ic) {
        for (int ky = 0; ky < kSize; ++ky) {
            const int iy = iy0 + ky;
            if (iy < 0 || iy >= ih)
                continue;
            for (int kx = 0; kx < kSize; ++kx) {
                const int ix = ix0 + kx;
                if (ix < 0 || ix >= iw)
                    continue;
                out.push(static_cast<std::uint32_t>(input.index(ic, iy, ix)),
                         wAt(oc, ic, ky, kx) * input.at(ic, iy, ix));
            }
        }
    }
}

std::vector<std::uint32_t>
Conv2d::receptiveFieldOffsets(const Shape &in) const
{
    std::vector<std::uint32_t> off;
    off.reserve(receptiveFieldSize());
    for (int ic = 0; ic < inC; ++ic)
        for (int ky = 0; ky < kSize; ++ky)
            for (int kx = 0; kx < kSize; ++kx)
                off.push_back(static_cast<std::uint32_t>(
                    (static_cast<std::size_t>(ic) * in.h + ky) * in.w + kx));
    return off;
}

std::size_t
Conv2d::receptiveFieldSize() const
{
    return static_cast<std::size_t>(inC) * kSize * kSize;
}

} // namespace ptolemy::nn
