// NN-specific ops on Var: softmax, cross-entropy, layer norm, embedding,
// dropout.  These are the building blocks of the Transformer models and
// the RL controller.
#include <cmath>

#include "common/check.hpp"
#include "tensor/var.hpp"

namespace rt3 {

namespace {

// Softmax over the last dimension on a raw tensor.
Tensor softmax_raw(const Tensor& a) {
  check(a.dim() >= 1, "softmax: need at least 1-D");
  const std::int64_t last = a.size(-1);
  const std::int64_t rows = a.numel() / last;
  Tensor out = a;
  for (std::int64_t r = 0; r < rows; ++r) {
    softmax_row_inplace(out.data() + r * last, last);
  }
  return out;
}

}  // namespace

Var softmax_lastdim(const Var& a) {
  Tensor out = softmax_raw(a.value());
  const Tensor s = out;
  return Var::make_op(
      std::move(out), {a},
      [s](const Tensor& g, std::vector<Var>& ps) {
        // dx = s * (g - sum(g * s)) per row.
        const std::int64_t last = s.size(-1);
        const std::int64_t rows = s.numel() / last;
        Tensor ga(s.shape());
        for (std::int64_t r = 0; r < rows; ++r) {
          const float* gr = g.data() + r * last;
          const float* sr = s.data() + r * last;
          float dot = 0.0F;
          for (std::int64_t j = 0; j < last; ++j) {
            dot += gr[j] * sr[j];
          }
          float* out_row = ga.data() + r * last;
          for (std::int64_t j = 0; j < last; ++j) {
            out_row[j] = sr[j] * (gr[j] - dot);
          }
        }
        ps[0].accumulate_grad(ga);
      });
}

Var log_softmax_lastdim(const Var& a) {
  const Tensor s = softmax_raw(a.value());
  Tensor out = s;
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    out[i] = std::log(out[i] + 1e-12F);
  }
  return Var::make_op(
      std::move(out), {a},
      [s](const Tensor& g, std::vector<Var>& ps) {
        // dx = g - softmax * sum(g) per row.
        const std::int64_t last = s.size(-1);
        const std::int64_t rows = s.numel() / last;
        Tensor ga(s.shape());
        for (std::int64_t r = 0; r < rows; ++r) {
          const float* gr = g.data() + r * last;
          const float* sr = s.data() + r * last;
          float total = 0.0F;
          for (std::int64_t j = 0; j < last; ++j) {
            total += gr[j];
          }
          float* out_row = ga.data() + r * last;
          for (std::int64_t j = 0; j < last; ++j) {
            out_row[j] = gr[j] - sr[j] * total;
          }
        }
        ps[0].accumulate_grad(ga);
      });
}

Var cross_entropy(const Var& logits,
                  const std::vector<std::int64_t>& targets) {
  check(logits.shape().size() == 2, "cross_entropy: logits must be [N,C]");
  const std::int64_t n = logits.shape()[0];
  const std::int64_t c = logits.shape()[1];
  check(static_cast<std::int64_t>(targets.size()) == n,
        "cross_entropy: target count mismatch");

  const Tensor probs = softmax_raw(logits.value());
  double loss = 0.0;
  std::int64_t counted = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t t = targets[static_cast<std::size_t>(i)];
    if (t < 0) {
      continue;  // padding
    }
    check(t < c, "cross_entropy: target out of range");
    loss -= std::log(static_cast<double>(probs[i * c + t]) + 1e-12);
    ++counted;
  }
  check(counted > 0, "cross_entropy: all targets are padding");
  const float inv_n = 1.0F / static_cast<float>(counted);
  Tensor out = Tensor::scalar(static_cast<float>(loss) * inv_n);
  const std::vector<std::int64_t> tgt = targets;
  return Var::make_op(
      std::move(out), {logits},
      [probs, tgt, inv_n, n, c](const Tensor& g, std::vector<Var>& ps) {
        Tensor ga(probs.shape());
        for (std::int64_t i = 0; i < n; ++i) {
          const std::int64_t t = tgt[static_cast<std::size_t>(i)];
          if (t < 0) {
            continue;
          }
          for (std::int64_t j = 0; j < c; ++j) {
            ga[i * c + j] = probs[i * c + j] * inv_n * g[0];
          }
          ga[i * c + t] -= inv_n * g[0];
        }
        ps[0].accumulate_grad(ga);
      });
}

Var mse_loss(const Var& pred, const Tensor& target) {
  check(pred.shape() == target.shape(), "mse_loss: shape mismatch");
  const Tensor diff = sub(pred.value(), target);
  double acc = 0.0;
  for (std::int64_t i = 0; i < diff.numel(); ++i) {
    acc += static_cast<double>(diff[i]) * diff[i];
  }
  const float inv_n = 1.0F / static_cast<float>(diff.numel());
  Tensor out = Tensor::scalar(static_cast<float>(acc) * inv_n);
  return Var::make_op(std::move(out), {pred},
                      [diff, inv_n](const Tensor& g, std::vector<Var>& ps) {
                        Tensor ga = diff;
                        ga.scale_(2.0F * inv_n * g[0]);
                        ps[0].accumulate_grad(ga);
                      });
}

Var layer_norm(const Var& x, const Var& gamma, const Var& beta, float eps) {
  const std::int64_t last = x.value().size(-1);
  check(gamma.shape() == Shape{last} && beta.shape() == Shape{last},
        "layer_norm: gamma/beta must be 1-D of the last dimension");
  const std::int64_t rows = x.numel() / last;

  const Tensor& xv = x.value();
  Tensor xhat(xv.shape());
  Tensor inv_std({rows});
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* xr = xv.data() + r * last;
    float mu = 0.0F;
    for (std::int64_t j = 0; j < last; ++j) {
      mu += xr[j];
    }
    mu /= static_cast<float>(last);
    float var = 0.0F;
    for (std::int64_t j = 0; j < last; ++j) {
      var += (xr[j] - mu) * (xr[j] - mu);
    }
    var /= static_cast<float>(last);
    const float istd = 1.0F / std::sqrt(var + eps);
    inv_std[r] = istd;
    float* hr = xhat.data() + r * last;
    for (std::int64_t j = 0; j < last; ++j) {
      hr[j] = (xr[j] - mu) * istd;
    }
  }

  Tensor out(xv.shape());
  const Tensor& gv = gamma.value();
  const Tensor& bv = beta.value();
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t j = 0; j < last; ++j) {
      out[r * last + j] = xhat[r * last + j] * gv[j] + bv[j];
    }
  }

  const Tensor xhat_c = xhat;
  const Tensor inv_std_c = inv_std;
  const Tensor gamma_c = gv;
  return Var::make_op(
      std::move(out), {x, gamma, beta},
      [xhat_c, inv_std_c, gamma_c, rows, last](const Tensor& g,
                                               std::vector<Var>& ps) {
        Tensor gx(xhat_c.shape());
        Tensor ggamma({last});
        Tensor gbeta({last});
        for (std::int64_t r = 0; r < rows; ++r) {
          const float* gr = g.data() + r * last;
          const float* hr = xhat_c.data() + r * last;
          float mean_gy = 0.0F;
          float mean_gyh = 0.0F;
          for (std::int64_t j = 0; j < last; ++j) {
            const float gy = gr[j] * gamma_c[j];
            mean_gy += gy;
            mean_gyh += gy * hr[j];
            ggamma[j] += gr[j] * hr[j];
            gbeta[j] += gr[j];
          }
          mean_gy /= static_cast<float>(last);
          mean_gyh /= static_cast<float>(last);
          float* gxr = gx.data() + r * last;
          for (std::int64_t j = 0; j < last; ++j) {
            const float gy = gr[j] * gamma_c[j];
            gxr[j] = (gy - mean_gy - hr[j] * mean_gyh) * inv_std_c[r];
          }
        }
        ps[0].accumulate_grad(gx);
        ps[1].accumulate_grad(ggamma);
        ps[2].accumulate_grad(gbeta);
      });
}

Var embedding(const Var& weight, const std::vector<std::int64_t>& ids) {
  check(weight.shape().size() == 2, "embedding: weight must be [V,D]");
  const std::int64_t v = weight.shape()[0];
  const std::int64_t d = weight.shape()[1];
  const std::int64_t n = static_cast<std::int64_t>(ids.size());
  Tensor out({n, d});
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t id = ids[static_cast<std::size_t>(i)];
    check(id >= 0 && id < v, "embedding: id out of range");
    for (std::int64_t j = 0; j < d; ++j) {
      out[i * d + j] = weight.value()[id * d + j];
    }
  }
  const std::vector<std::int64_t> ids_c = ids;
  const Shape w_shape = weight.shape();
  return Var::make_op(
      std::move(out), {weight},
      [ids_c, w_shape, d](const Tensor& g, std::vector<Var>& ps) {
        Tensor gw(w_shape);
        for (std::size_t i = 0; i < ids_c.size(); ++i) {
          const std::int64_t id = ids_c[i];
          for (std::int64_t j = 0; j < d; ++j) {
            gw[id * d + j] += g[static_cast<std::int64_t>(i) * d + j];
          }
        }
        ps[0].accumulate_grad(gw);
      });
}

Var dropout(const Var& a, float p, Rng& rng, bool training) {
  if (!training || p <= 0.0F) {
    return a;
  }
  check(p < 1.0F, "dropout: p must be < 1");
  const float keep = 1.0F - p;
  Tensor mask(a.shape());
  for (std::int64_t i = 0; i < mask.numel(); ++i) {
    mask[i] = rng.bernoulli(keep) ? (1.0F / keep) : 0.0F;
  }
  return mul_const(a, mask);
}

}  // namespace rt3
