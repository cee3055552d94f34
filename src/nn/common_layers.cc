#include "common_layers.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>

namespace ptolemy::nn
{

// ---------------------------------------------------------------- ReLU ----

Shape
ReLU::outputShape(const std::vector<Shape> &ins) const
{
    return ins[0];
}

void
ReLU::forwardInto(const std::vector<const Tensor *> &ins, Tensor &out,
                  bool train) const
{
    (void)train;
    const Tensor &in = *ins[0];
    out.resize(in.shape());
    for (std::size_t i = 0; i < in.size(); ++i)
        out[i] = in[i] > 0.0f ? in[i] : 0.0f;
}

namespace
{

/** x > 0.0f, as an all-ones/all-zeros word: bits(x) - 1 < bits(+inf)
 *  holds for exactly the positive subnormals, normals and +inf (+0
 *  wraps to 0xFFFFFFFF; -0, negatives and NaN sit at or above +inf's
 *  pattern). Integer-only, so the loops below vectorize. */
inline std::uint32_t
positiveMask(float x)
{
    return std::bit_cast<std::uint32_t>(x) - 1u < 0x7F800000u ? ~0u : 0u;
}

/** All-ones when @p take, else zero. */
inline std::uint32_t
maskOf(bool take)
{
    return 0u - static_cast<std::uint32_t>(take);
}

/** @p m ? a : b, bitwise (@p m all-ones or zero). */
inline float
selectBits(std::uint32_t m, float a, float b)
{
    return std::bit_cast<float>((std::bit_cast<std::uint32_t>(a) & m) |
                                (std::bit_cast<std::uint32_t>(b) & ~m));
}

} // namespace

void
ReLU::backwardInto(const std::vector<const Tensor *> &ins,
                   const Tensor &grad_out, const std::vector<GradSink> &sinks,
                   std::vector<float> *const *param_grads)
{
    (void)param_grads;
    // The mask is the recorded input's sign — no stash needed. Both
    // loops select by bit mask rather than branch on the sign: about
    // half of the activations are positive, so a branch mispredicts.
    const Tensor &in = *ins[0];
    Tensor &d = *sinks[0].grad;
    const std::size_t n = grad_out.size();
    const float *__restrict x = in.data();
    const float *__restrict g = grad_out.data();
    if (sinks[0].accumulate) {
        // d + g only where x > 0: elsewhere d keeps its bits (nothing,
        // not even +0, is added).
        float *__restrict o = d.data();
        for (std::size_t i = 0; i < n; ++i)
            o[i] = selectBits(positiveMask(x[i]), o[i] + g[i], o[i]);
        return;
    }
    d.resize(in.shape());
    float *__restrict o = d.data();
    for (std::size_t i = 0; i < n; ++i)
        o[i] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(g[i]) &
                                    positiveMask(x[i]));
}

// ----------------------------------------------------------- MaxPool2d ----

Shape
MaxPool2d::outputShape(const std::vector<Shape> &ins) const
{
    assert(ins[0].h % kSize == 0 && ins[0].w % kSize == 0);
    return mapShape(ins[0].c, ins[0].h / kSize, ins[0].w / kSize);
}

namespace
{

/**
 * One output row of max pooling: each window's taps in (ky, kx) scan
 * order through the branchless `v > best ? v : best`, which keeps the
 * first maximum and skips NaN exactly like a branchy `if (v > best)`
 * but never mispredicts on post-ReLU data. KS > 0 fixes the window
 * size at compile time so the common 2x2 case vectorizes.
 */
template <int KS>
inline void
maxPoolRow(const float *__restrict in, int iw, int ks_rt, int ow,
           float *__restrict out)
{
    const int ks = KS > 0 ? KS : ks_rt;
    for (int ox = 0; ox < ow; ++ox) {
        const float *win = in + ox * ks;
        float best = -INFINITY;
        for (int ky = 0; ky < ks; ++ky) {
            for (int kx = 0; kx < ks; ++kx) {
                const float v = win[ky * iw + kx];
                best = v > best ? v : best;
            }
        }
        out[ox] = best;
    }
}

} // namespace

void
MaxPool2d::forwardInto(const std::vector<const Tensor *> &ins, Tensor &out,
                       bool train) const
{
    (void)train;
    const Tensor &in = *ins[0];
    const int iw = in.shape().w;
    out.resize(mapShape(in.shape().c, in.shape().h / kSize, iw / kSize));
    const int oh = out.shape().h, ow = out.shape().w;
    for (int c = 0; c < out.shape().c; ++c) {
        for (int oy = 0; oy < oh; ++oy) {
            const float *rows = in.data() + in.index(c, oy * kSize, 0);
            float *o = out.data() + out.index(c, oy, 0);
            if (kSize == 2)
                maxPoolRow<2>(rows, iw, 2, ow, o);
            else
                maxPoolRow<0>(rows, iw, kSize, ow, o);
        }
    }
}

namespace
{

/**
 * One output row of 2x2 max-pool backward. Per window the winner is the
 * last tap that beat the running best in scan order (a, b, c, e) — the
 * first maximum, NaN never winning, tap a when nothing beats -inf —
 * and every tap is rewritten as (winner ? d + g : d). Bit masks rather
 * than float ternaries keep the loop free of control flow, so it
 * vectorizes across windows.
 */
inline void
maxPoolBackRow2(const float *__restrict r0, const float *__restrict r1,
                const float *__restrict g, float *__restrict d0,
                float *__restrict d1, int ow)
{
    for (int ox = 0; ox < ow; ++ox) {
        const float a = r0[2 * ox], b = r0[2 * ox + 1];
        const float c = r1[2 * ox], e = r1[2 * ox + 1];
        float best = selectBits(maskOf(a > -INFINITY), a, -INFINITY);
        const std::uint32_t tb = maskOf(b > best);
        best = selectBits(tb, b, best);
        const std::uint32_t tc = maskOf(c > best);
        best = selectBits(tc, c, best);
        const std::uint32_t we = maskOf(e > best);
        const std::uint32_t wc = tc & ~we;
        const std::uint32_t wb = tb & ~tc & ~we;
        const std::uint32_t wa = ~(we | wc | wb);
        const float gv = g[ox];
        d0[2 * ox] = selectBits(wa, d0[2 * ox] + gv, d0[2 * ox]);
        d0[2 * ox + 1] = selectBits(wb, d0[2 * ox + 1] + gv, d0[2 * ox + 1]);
        d1[2 * ox] = selectBits(wc, d1[2 * ox] + gv, d1[2 * ox]);
        d1[2 * ox + 1] = selectBits(we, d1[2 * ox + 1] + gv, d1[2 * ox + 1]);
    }
}

} // namespace

void
MaxPool2d::backwardInto(const std::vector<const Tensor *> &ins,
                        const Tensor &grad_out,
                        const std::vector<GradSink> &sinks,
                        std::vector<float> *const *param_grads)
{
    (void)param_grads;
    // Re-derive each window's winner from the recorded input: the first
    // maximum in scan order, NaN never winning, the window start when
    // nothing beats -inf — the forward's tie-break. The scan selects
    // instead of branching, so post-ReLU ties and zeros cannot
    // mispredict. The winner then takes d + g (0 + g on an overwrite
    // sink: a -0 gradient lands as +0).
    const Tensor &in = *ins[0];
    Tensor &d = *sinks[0].grad;
    if (!sinks[0].accumulate)
        d.resizeZero(in.shape()); // scatter-add target must start clean
    const int iw = in.shape().w;
    const int oh = grad_out.shape().h, ow = grad_out.shape().w;
    const int ks = kSize;
    for (int c = 0; c < grad_out.shape().c; ++c) {
        for (int oy = 0; oy < oh; ++oy) {
            const std::size_t row0 = in.index(c, oy * ks, 0);
            const float *rows = in.data() + row0;
            const float *g = grad_out.data() + grad_out.index(c, oy, 0);
            if (ks == 2) {
                maxPoolBackRow2(rows, rows + iw, g, d.data() + row0,
                                d.data() + row0 + iw, ow);
                continue;
            }
            for (int ox = 0; ox < ow; ++ox) {
                float best = -INFINITY;
                int arg = ox * ks;
                for (int ky = 0; ky < ks; ++ky) {
                    for (int kx = 0; kx < ks; ++kx) {
                        const int at = ky * iw + ox * ks + kx;
                        const float v = rows[at];
                        const bool take = v > best;
                        best = take ? v : best;
                        arg = take ? at : arg;
                    }
                }
                d[row0 + arg] += g[ox];
            }
        }
    }
}

void
MaxPool2d::backmapImportant(
    const std::vector<const Tensor *> &ins, const Tensor &out,
    const std::vector<std::size_t> &out_idx,
    std::vector<std::vector<std::size_t>> &per_input) const
{
    // Re-derive the winner from the recorded tensors: the important output
    // value equals the maximal input in its pooling window.
    const Tensor &in = *ins[0];
    clearSlots(per_input, 1);
    per_input[0].reserve(out_idx.size());
    const int ow = out.shape().w;
    const int oh = out.shape().h;
    for (std::size_t o : out_idx) {
        const int c = static_cast<int>(o / (static_cast<std::size_t>(oh) *
                                            ow));
        const std::size_t rem = o % (static_cast<std::size_t>(oh) * ow);
        const int oy = static_cast<int>(rem / ow);
        const int ox = static_cast<int>(rem % ow);
        float best = -INFINITY;
        std::size_t best_idx = in.index(c, oy * kSize, ox * kSize);
        for (int ky = 0; ky < kSize; ++ky) {
            for (int kx = 0; kx < kSize; ++kx) {
                const float v = in.at(c, oy * kSize + ky, ox * kSize + kx);
                if (v > best) {
                    best = v;
                    best_idx = in.index(c, oy * kSize + ky, ox * kSize + kx);
                }
            }
        }
        per_input[0].push_back(best_idx);
    }
}

// ------------------------------------------------------- GlobalAvgPool ----

Shape
GlobalAvgPool::outputShape(const std::vector<Shape> &ins) const
{
    return flatShape(ins[0].c);
}

void
GlobalAvgPool::forwardInto(const std::vector<const Tensor *> &ins,
                           Tensor &out, bool train) const
{
    (void)train;
    const Tensor &in = *ins[0];
    out.resize(flatShape(in.shape().c));
    const int hw = in.shape().h * in.shape().w;
    for (int c = 0; c < in.shape().c; ++c) {
        float acc = 0.0f;
        for (int y = 0; y < in.shape().h; ++y)
            for (int x = 0; x < in.shape().w; ++x)
                acc += in.at(c, y, x);
        out[c] = acc / hw;
    }
}

void
GlobalAvgPool::backwardInto(const std::vector<const Tensor *> &ins,
                            const Tensor &grad_out,
                            const std::vector<GradSink> &sinks,
                            std::vector<float> *const *param_grads)
{
    (void)param_grads;
    const Shape in_shape = ins[0]->shape();
    Tensor &d = *sinks[0].grad;
    const bool acc = sinks[0].accumulate;
    if (!acc)
        d.resize(in_shape);
    const int hw = in_shape.h * in_shape.w;
    for (int c = 0; c < in_shape.c; ++c) {
        const float g = grad_out[c] / hw;
        for (int y = 0; y < in_shape.h; ++y)
            for (int x = 0; x < in_shape.w; ++x) {
                if (acc)
                    d.at(c, y, x) += g;
                else
                    d.at(c, y, x) = g;
            }
    }
}

void
GlobalAvgPool::backmapImportant(
    const std::vector<const Tensor *> &ins, const Tensor &out,
    const std::vector<std::size_t> &out_idx,
    std::vector<std::vector<std::size_t>> &per_input) const
{
    // Every spatial element of an important channel contributes equally;
    // mark the whole channel plane (windows are small in our models).
    (void)out;
    const Shape in_shape = ins[0]->shape();
    clearSlots(per_input, 1);
    for (std::size_t o : out_idx) {
        const int c = static_cast<int>(o);
        for (int y = 0; y < in_shape.h; ++y)
            for (int x = 0; x < in_shape.w; ++x)
                per_input[0].push_back(ins[0]->index(c, y, x));
    }
}

// ------------------------------------------------------------- Flatten ----

Shape
Flatten::outputShape(const std::vector<Shape> &ins) const
{
    return flatShape(static_cast<int>(ins[0].numel()));
}

void
Flatten::forwardInto(const std::vector<const Tensor *> &ins, Tensor &out,
                     bool train) const
{
    (void)train;
    out.resize(flatShape(static_cast<int>(ins[0]->size())));
    std::copy(ins[0]->vec().begin(), ins[0]->vec().end(), out.vec().begin());
}

void
Flatten::backwardInto(const std::vector<const Tensor *> &ins,
                      const Tensor &grad_out,
                      const std::vector<GradSink> &sinks,
                      std::vector<float> *const *param_grads)
{
    (void)param_grads;
    Tensor &d = *sinks[0].grad;
    if (sinks[0].accumulate) {
        for (std::size_t i = 0; i < grad_out.size(); ++i)
            d[i] += grad_out[i];
        return;
    }
    d.resize(ins[0]->shape());
    std::copy(grad_out.vec().begin(), grad_out.vec().end(),
              d.vec().begin());
}

// ----------------------------------------------------------------- Add ----

Shape
Add::outputShape(const std::vector<Shape> &ins) const
{
    assert(ins.size() == 2 && ins[0] == ins[1]);
    return ins[0];
}

void
Add::forwardInto(const std::vector<const Tensor *> &ins, Tensor &out,
                 bool train) const
{
    (void)train;
    const Tensor &a = *ins[0], &b = *ins[1];
    out.resize(a.shape());
    for (std::size_t i = 0; i < a.size(); ++i)
        out[i] = a[i] + b[i];
}

void
Add::backwardInto(const std::vector<const Tensor *> &ins,
                  const Tensor &grad_out, const std::vector<GradSink> &sinks,
                  std::vector<float> *const *param_grads)
{
    (void)param_grads;
    const Shape shape = ins[0]->shape();
    for (const auto &s : sinks) {
        if (!s.grad)
            continue;
        Tensor &d = *s.grad;
        if (s.accumulate) {
            d += grad_out;
        } else {
            d.resize(shape);
            std::copy(grad_out.vec().begin(), grad_out.vec().end(),
                      d.vec().begin());
        }
    }
}

void
Add::backmapImportant(const std::vector<const Tensor *> &ins,
                      const Tensor &out,
                      const std::vector<std::size_t> &out_idx,
                      std::vector<std::vector<std::size_t>> &per_input) const
{
    // Both branches carry the important value at the same element.
    (void)ins;
    (void)out;
    clearSlots(per_input, 2);
    per_input[0].assign(out_idx.begin(), out_idx.end());
    per_input[1].assign(out_idx.begin(), out_idx.end());
}

// -------------------------------------------------------------- Concat ----

Shape
Concat::outputShape(const std::vector<Shape> &ins) const
{
    assert(ins.size() == 2 && ins[0].h == ins[1].h && ins[0].w == ins[1].w);
    return mapShape(ins[0].c + ins[1].c, ins[0].h, ins[0].w);
}

void
Concat::forwardInto(const std::vector<const Tensor *> &ins, Tensor &out,
                    bool train) const
{
    (void)train;
    out.resize(mapShape(ins[0]->shape().c + ins[1]->shape().c,
                        ins[0]->shape().h, ins[0]->shape().w));
    std::copy(ins[0]->vec().begin(), ins[0]->vec().end(),
              out.vec().begin());
    std::copy(ins[1]->vec().begin(), ins[1]->vec().end(),
              out.vec().begin() + static_cast<std::ptrdiff_t>(ins[0]->size()));
}

void
Concat::backwardInto(const std::vector<const Tensor *> &ins,
                     const Tensor &grad_out,
                     const std::vector<GradSink> &sinks,
                     std::vector<float> *const *param_grads)
{
    (void)param_grads;
    std::size_t off = 0;
    for (int slot = 0; slot < 2; ++slot) {
        const Shape shape = ins[slot]->shape();
        const std::size_t n = shape.numel();
        if (!sinks[slot].grad) {
            off += n;
            continue;
        }
        Tensor &d = *sinks[slot].grad;
        if (sinks[slot].accumulate) {
            for (std::size_t i = 0; i < n; ++i)
                d[i] += grad_out[off + i];
        } else {
            d.resize(shape);
            std::copy(grad_out.vec().begin() +
                          static_cast<std::ptrdiff_t>(off),
                      grad_out.vec().begin() +
                          static_cast<std::ptrdiff_t>(off + n),
                      d.vec().begin());
        }
        off += n;
    }
}

void
Concat::backmapImportant(
    const std::vector<const Tensor *> &ins, const Tensor &out,
    const std::vector<std::size_t> &out_idx,
    std::vector<std::vector<std::size_t>> &per_input) const
{
    (void)out;
    const std::size_t split = ins[0]->size();
    clearSlots(per_input, 2);
    for (std::size_t o : out_idx) {
        if (o < split)
            per_input[0].push_back(o);
        else
            per_input[1].push_back(o - split);
    }
}

// ------------------------------------------------------- DownsamplePad ----

Shape
DownsamplePad::outputShape(const std::vector<Shape> &ins) const
{
    assert(ins[0].h % 2 == 0 && ins[0].w % 2 == 0);
    return mapShape(ins[0].c * 2, ins[0].h / 2, ins[0].w / 2);
}

void
DownsamplePad::forwardInto(const std::vector<const Tensor *> &ins,
                           Tensor &out, bool train) const
{
    (void)train;
    const Tensor &in = *ins[0];
    // Padded channels stay zero.
    out.resizeZero(mapShape(in.shape().c * 2, in.shape().h / 2,
                            in.shape().w / 2));
    for (int c = 0; c < in.shape().c; ++c)
        for (int y = 0; y < out.shape().h; ++y)
            for (int x = 0; x < out.shape().w; ++x)
                out.at(c, y, x) = in.at(c, 2 * y, 2 * x);
}

void
DownsamplePad::backwardInto(const std::vector<const Tensor *> &ins,
                            const Tensor &grad_out,
                            const std::vector<GradSink> &sinks,
                            std::vector<float> *const *param_grads)
{
    (void)param_grads;
    const Shape in_shape = ins[0]->shape();
    Tensor &d = *sinks[0].grad;
    const bool acc = sinks[0].accumulate;
    if (!acc)
        d.resizeZero(in_shape); // untouched elements carry no gradient
    for (int c = 0; c < in_shape.c; ++c)
        for (int y = 0; y < grad_out.shape().h; ++y)
            for (int x = 0; x < grad_out.shape().w; ++x) {
                if (acc)
                    d.at(c, 2 * y, 2 * x) += grad_out.at(c, y, x);
                else
                    d.at(c, 2 * y, 2 * x) = grad_out.at(c, y, x);
            }
}

void
DownsamplePad::backmapImportant(
    const std::vector<const Tensor *> &ins, const Tensor &out,
    const std::vector<std::size_t> &out_idx,
    std::vector<std::vector<std::size_t>> &per_input) const
{
    const Tensor &in = *ins[0];
    clearSlots(per_input, 1);
    const int oh = out.shape().h, ow = out.shape().w;
    for (std::size_t o : out_idx) {
        const int c = static_cast<int>(o / (static_cast<std::size_t>(oh) *
                                            ow));
        if (c >= in.shape().c)
            continue; // zero-padded channel: no input neuron behind it
        const std::size_t rem = o % (static_cast<std::size_t>(oh) * ow);
        const int y = static_cast<int>(rem / ow);
        const int x = static_cast<int>(rem % ow);
        per_input[0].push_back(in.index(c, 2 * y, 2 * x));
    }
}

// -------------------------------------------------------------- Norm2d ----

Norm2d::Norm2d(std::string name, int channels, float momentum, float eps)
    : Layer(std::move(name)), chans(channels), mom(momentum), epsilon(eps),
      gamma(channels, 1.0f), beta(channels, 0.0f), runMean(channels, 0.0f),
      runVar(channels, 1.0f), gradGamma(channels, 0.0f),
      gradBeta(channels, 0.0f)
{
}

Shape
Norm2d::outputShape(const std::vector<Shape> &ins) const
{
    assert(ins[0].c == chans);
    return ins[0];
}

void
Norm2d::forwardInto(const std::vector<const Tensor *> &ins, Tensor &out,
                    bool train) const
{
    // Train and inference passes normalize identically, with the stats
    // as they stand; the training-time stat update is deferred (see the
    // class comment), so this method never writes layer state.
    (void)train;
    const Tensor &in = *ins[0];
    const int hw = std::max(1, in.shape().h * in.shape().w);
    out.resize(in.shape());
    for (int c = 0; c < chans; ++c) {
        const float inv = 1.0f / std::sqrt(runVar[c] + epsilon);
        for (int i = 0; i < hw; ++i) {
            const std::size_t idx = static_cast<std::size_t>(c) * hw + i;
            out[idx] = gamma[c] * (in[idx] - runMean[c]) * inv + beta[c];
        }
    }
}

void
Norm2d::backwardInto(const std::vector<const Tensor *> &ins,
                     const Tensor &grad_out,
                     const std::vector<GradSink> &sinks,
                     std::vector<float> *const *param_grads)
{
    const Tensor &in = *ins[0];
    Tensor *const d = sinks[0].grad; // null: parameter gradients only
    const bool acc = sinks[0].accumulate;
    if (d && !acc)
        d->resize(in.shape());
    const int hw = std::max(1, in.shape().h * in.shape().w);
    if (param_grads == skipParamGrads()) {
        // Input-gradient-only backward: d depends only on gamma and
        // the frozen stats, so xhat need not be recomputed at all.
        for (int c = 0; c < chans; ++c) {
            const float inv = 1.0f / std::sqrt(runVar[c] + epsilon);
            const float scale = gamma[c] * inv;
            for (int i = 0; i < hw; ++i) {
                const std::size_t idx =
                    static_cast<std::size_t>(c) * hw + i;
                if (acc)
                    (*d)[idx] += grad_out[idx] * scale;
                else
                    (*d)[idx] = grad_out[idx] * scale;
            }
        }
        return;
    }
    auto &g_gamma = param_grads ? *param_grads[0] : gradGamma;
    auto &g_beta = param_grads ? *param_grads[1] : gradBeta;
    for (int c = 0; c < chans; ++c) {
        // xhat is recomputed from the recorded input with the same
        // frozen stats the forward pass used — bit-identical to what
        // forward produced, with no stashed tensor.
        const float inv = 1.0f / std::sqrt(runVar[c] + epsilon);
        const float scale = gamma[c] * inv;
        for (int i = 0; i < hw; ++i) {
            const std::size_t idx = static_cast<std::size_t>(c) * hw + i;
            const float xhat = (in[idx] - runMean[c]) * inv;
            g_gamma[c] += grad_out[idx] * xhat;
            g_beta[c] += grad_out[idx];
            if (!d)
                continue;
            if (acc)
                (*d)[idx] += grad_out[idx] * scale;
            else
                (*d)[idx] = grad_out[idx] * scale;
        }
    }
}

std::vector<Param>
Norm2d::params()
{
    return {{&gamma, &gradGamma}, {&beta, &gradBeta}};
}

std::vector<Param>
Norm2d::state()
{
    return {{&runMean, nullptr}, {&runVar, nullptr}};
}

std::size_t
Norm2d::trainStateSize() const
{
    return static_cast<std::size_t>(chans) * 2; // per-channel mean, var
}

void
Norm2d::collectTrainState(const std::vector<const Tensor *> &ins,
                          float *dst) const
{
    const Tensor &in = *ins[0];
    const int hw = std::max(1, in.shape().h * in.shape().w);
    for (int c = 0; c < chans; ++c) {
        double m = 0.0, v = 0.0;
        for (int i = 0; i < hw; ++i) {
            const float x = in[static_cast<std::size_t>(c) * hw + i];
            m += x;
            v += static_cast<double>(x) * x;
        }
        m /= hw;
        v = v / hw - m * m;
        dst[c] = static_cast<float>(m);
        dst[chans + c] = static_cast<float>(std::max(v, 0.0));
    }
}

void
Norm2d::applyTrainState(const float *src)
{
    for (int c = 0; c < chans; ++c) {
        runMean[c] = (1.0f - mom) * runMean[c] + mom * src[c];
        runVar[c] = (1.0f - mom) * runVar[c] + mom * src[chans + c];
    }
}

} // namespace ptolemy::nn
