// Basic arithmetic, matrix and reduction ops on Var.
#include <cmath>

#include "common/check.hpp"
#include "tensor/var.hpp"

namespace rt3 {

namespace {

enum class Bcast { kSame, kScalar, kLastDim };

Bcast bcast_kind(const Shape& a, const Shape& b) {
  if (a == b) {
    return Bcast::kSame;
  }
  if (Tensor::volume(b) == 1) {
    return Bcast::kScalar;
  }
  if (b.size() == 1 && !a.empty() && b[0] == a.back()) {
    return Bcast::kLastDim;
  }
  throw CheckError("broadcast: unsupported shape combination");
}

// Materializes b broadcast to the shape of `like`.
Tensor broadcast_to(const Tensor& b, const Shape& target, Bcast kind) {
  switch (kind) {
    case Bcast::kSame:
      return b;
    case Bcast::kScalar:
      return Tensor::full(target, b[0]);
    case Bcast::kLastDim: {
      Tensor out(target);
      const std::int64_t last = target.back();
      const std::int64_t rows = out.numel() / last;
      for (std::int64_t r = 0; r < rows; ++r) {
        for (std::int64_t j = 0; j < last; ++j) {
          out[r * last + j] = b[j];
        }
      }
      return out;
    }
  }
  throw CheckError("broadcast: unreachable");
}

// Reduces a gradient of broadcast shape back to b's original shape.
Tensor reduce_from(const Tensor& g, const Shape& b_shape, Bcast kind) {
  switch (kind) {
    case Bcast::kSame:
      return g;
    case Bcast::kScalar: {
      Tensor out(b_shape);
      out[0] = g.sum();
      return out;
    }
    case Bcast::kLastDim: {
      Tensor out(b_shape);
      const std::int64_t last = b_shape[0];
      const std::int64_t rows = g.numel() / last;
      for (std::int64_t r = 0; r < rows; ++r) {
        for (std::int64_t j = 0; j < last; ++j) {
          out[j] += g[r * last + j];
        }
      }
      return out;
    }
  }
  throw CheckError("broadcast: unreachable");
}

Tensor pointwise(const Tensor& a, float (*fn)(float)) {
  Tensor out = a;
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    out[i] = fn(out[i]);
  }
  return out;
}

}  // namespace

Var add(const Var& a, const Var& b) {
  const Bcast kind = bcast_kind(a.shape(), b.shape());
  Tensor out = a.value();
  out.add_(broadcast_to(b.value(), a.shape(), kind));
  const Shape b_shape = b.shape();
  return Var::make_op(std::move(out), {a, b},
                      [kind, b_shape](const Tensor& g, std::vector<Var>& ps) {
                        ps[0].accumulate_grad(g);
                        ps[1].accumulate_grad(reduce_from(g, b_shape, kind));
                      });
}

Var sub(const Var& a, const Var& b) {
  const Bcast kind = bcast_kind(a.shape(), b.shape());
  Tensor out = a.value();
  out.add_scaled_(broadcast_to(b.value(), a.shape(), kind), -1.0F);
  const Shape b_shape = b.shape();
  return Var::make_op(std::move(out), {a, b},
                      [kind, b_shape](const Tensor& g, std::vector<Var>& ps) {
                        ps[0].accumulate_grad(g);
                        Tensor gb = reduce_from(g, b_shape, kind);
                        gb.scale_(-1.0F);
                        ps[1].accumulate_grad(gb);
                      });
}

Var mul(const Var& a, const Var& b) {
  const Bcast kind = bcast_kind(a.shape(), b.shape());
  const Tensor bb = broadcast_to(b.value(), a.shape(), kind);
  Tensor out = mul(a.value(), bb);
  const Shape b_shape = b.shape();
  const Tensor a_val = a.value();
  return Var::make_op(
      std::move(out), {a, b},
      [kind, b_shape, bb, a_val](const Tensor& g, std::vector<Var>& ps) {
        ps[0].accumulate_grad(mul(g, bb));
        ps[1].accumulate_grad(reduce_from(mul(g, a_val), b_shape, kind));
      });
}

Var neg(const Var& a) { return scale(a, -1.0F); }

Var scale(const Var& a, float factor) {
  Tensor out = a.value();
  out.scale_(factor);
  return Var::make_op(std::move(out), {a},
                      [factor](const Tensor& g, std::vector<Var>& ps) {
                        Tensor ga = g;
                        ga.scale_(factor);
                        ps[0].accumulate_grad(ga);
                      });
}

Var add_scalar(const Var& a, float constant) {
  Tensor out = a.value();
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    out[i] += constant;
  }
  return Var::make_op(std::move(out), {a},
                      [](const Tensor& g, std::vector<Var>& ps) {
                        ps[0].accumulate_grad(g);
                      });
}

Var mul_const(const Var& a, const Tensor& mask) {
  check(mask.shape() == a.shape(), "mul_const: mask shape mismatch");
  Tensor out = mul(a.value(), mask);
  const Tensor mask_copy = mask;
  return Var::make_op(std::move(out), {a},
                      [mask_copy](const Tensor& g, std::vector<Var>& ps) {
                        ps[0].accumulate_grad(mul(g, mask_copy));
                      });
}

Var add_const(const Var& a, const Tensor& bias) {
  check(bias.shape() == a.shape(), "add_const: bias shape mismatch");
  Tensor out = a.value();
  out.add_(bias);
  return Var::make_op(std::move(out), {a},
                      [](const Tensor& g, std::vector<Var>& ps) {
                        ps[0].accumulate_grad(g);
                      });
}

Var matmul(const Var& a, const Var& b) {
  Tensor out = matmul2d(a.value(), b.value());
  const Tensor a_val = a.value();
  const Tensor b_val = b.value();
  return Var::make_op(
      std::move(out), {a, b},
      [a_val, b_val](const Tensor& g, std::vector<Var>& ps) {
        ps[0].accumulate_grad(matmul2d(g, transpose2d(b_val)));
        ps[1].accumulate_grad(matmul2d(transpose2d(a_val), g));
      });
}

namespace {

// Batched [B,M,K] x [B,K,N] -> [B,M,N] on raw tensors.
Tensor bmm_raw(const Tensor& a, const Tensor& b) {
  check(a.dim() == 3 && b.dim() == 3, "bmm: need 3-D operands");
  const std::int64_t batch = a.size(0);
  const std::int64_t m = a.size(1);
  const std::int64_t k = a.size(2);
  const std::int64_t n = b.size(2);
  check(b.size(0) == batch && b.size(1) == k, "bmm: shape mismatch");
  Tensor out({batch, m, n});
  for (std::int64_t bt = 0; bt < batch; ++bt) {
    const float* pa = a.data() + bt * m * k;
    const float* pb = b.data() + bt * k * n;
    float* po = out.data() + bt * m * n;
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float aik = pa[i * k + kk];
        if (aik == 0.0F) {
          continue;
        }
        for (std::int64_t j = 0; j < n; ++j) {
          po[i * n + j] += aik * pb[kk * n + j];
        }
      }
    }
  }
  return out;
}

Tensor transpose_last2_raw(const Tensor& a) {
  check(a.dim() == 2 || a.dim() == 3, "transpose_last2: need 2-D or 3-D");
  if (a.dim() == 2) {
    return transpose2d(a);
  }
  const std::int64_t batch = a.size(0);
  const std::int64_t m = a.size(1);
  const std::int64_t n = a.size(2);
  Tensor out({batch, n, m});
  for (std::int64_t bt = 0; bt < batch; ++bt) {
    const float* pa = a.data() + bt * m * n;
    float* po = out.data() + bt * n * m;
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        po[j * m + i] = pa[i * n + j];
      }
    }
  }
  return out;
}

}  // namespace

Var bmm(const Var& a, const Var& b) {
  Tensor out = bmm_raw(a.value(), b.value());
  const Tensor a_val = a.value();
  const Tensor b_val = b.value();
  return Var::make_op(
      std::move(out), {a, b},
      [a_val, b_val](const Tensor& g, std::vector<Var>& ps) {
        ps[0].accumulate_grad(bmm_raw(g, transpose_last2_raw(b_val)));
        ps[1].accumulate_grad(bmm_raw(transpose_last2_raw(a_val), g));
      });
}

Var transpose_last2(const Var& a) {
  Tensor out = transpose_last2_raw(a.value());
  return Var::make_op(std::move(out), {a},
                      [](const Tensor& g, std::vector<Var>& ps) {
                        ps[0].accumulate_grad(transpose_last2_raw(g));
                      });
}

namespace {

Tensor permute_raw(const Tensor& a, const std::vector<std::int64_t>& axes) {
  const std::int64_t nd = a.dim();
  check(static_cast<std::int64_t>(axes.size()) == nd,
        "permute: axes arity mismatch");
  Shape new_shape(static_cast<std::size_t>(nd));
  for (std::int64_t d = 0; d < nd; ++d) {
    new_shape[static_cast<std::size_t>(d)] =
        a.size(axes[static_cast<std::size_t>(d)]);
  }
  Tensor out(new_shape);
  // Strides of the input.
  std::vector<std::int64_t> in_strides(static_cast<std::size_t>(nd), 1);
  for (std::int64_t d = nd - 2; d >= 0; --d) {
    in_strides[static_cast<std::size_t>(d)] =
        in_strides[static_cast<std::size_t>(d + 1)] * a.size(d + 1);
  }
  std::vector<std::int64_t> idx(static_cast<std::size_t>(nd), 0);
  for (std::int64_t flat = 0; flat < out.numel(); ++flat) {
    std::int64_t src = 0;
    for (std::int64_t d = 0; d < nd; ++d) {
      const auto axis =
          static_cast<std::size_t>(axes[static_cast<std::size_t>(d)]);
      src += idx[static_cast<std::size_t>(d)] * in_strides[axis];
    }
    out[flat] = a[src];
    // Increment the multi-index over the OUTPUT shape.
    for (std::int64_t d = nd - 1; d >= 0; --d) {
      auto& id = idx[static_cast<std::size_t>(d)];
      if (++id < new_shape[static_cast<std::size_t>(d)]) {
        break;
      }
      id = 0;
    }
  }
  return out;
}

std::vector<std::int64_t> inverse_axes(const std::vector<std::int64_t>& axes) {
  std::vector<std::int64_t> inv(axes.size());
  for (std::size_t i = 0; i < axes.size(); ++i) {
    inv[static_cast<std::size_t>(axes[i])] = static_cast<std::int64_t>(i);
  }
  return inv;
}

}  // namespace

Var permute(const Var& a, const std::vector<std::int64_t>& axes) {
  Tensor out = permute_raw(a.value(), axes);
  const auto inv = inverse_axes(axes);
  return Var::make_op(std::move(out), {a},
                      [inv](const Tensor& g, std::vector<Var>& ps) {
                        ps[0].accumulate_grad(permute_raw(g, inv));
                      });
}

Var reshape(const Var& a, Shape new_shape) {
  const Shape old_shape = a.shape();
  Tensor out = a.value().reshaped(std::move(new_shape));
  return Var::make_op(std::move(out), {a},
                      [old_shape](const Tensor& g, std::vector<Var>& ps) {
                        ps[0].accumulate_grad(g.reshaped(old_shape));
                      });
}

Var concat_rows(const std::vector<Var>& parts) {
  check(!parts.empty(), "concat_rows: empty input");
  Shape tail = parts[0].shape();
  check(!tail.empty(), "concat_rows: need at least 1-D parts");
  std::int64_t rows = 0;
  std::int64_t row_elems = 1;
  for (std::size_t d = 1; d < tail.size(); ++d) {
    row_elems *= tail[d];
  }
  for (const auto& p : parts) {
    Shape s = p.shape();
    check(s.size() == tail.size(), "concat_rows: rank mismatch");
    for (std::size_t d = 1; d < tail.size(); ++d) {
      check(s[d] == tail[d], "concat_rows: trailing shape mismatch");
    }
    rows += s[0];
  }
  Shape out_shape = tail;
  out_shape[0] = rows;
  Tensor out(out_shape);
  std::int64_t offset = 0;
  std::vector<std::int64_t> part_offsets;
  std::vector<std::int64_t> part_sizes;
  for (const auto& p : parts) {
    const std::int64_t n = p.numel();
    part_offsets.push_back(offset);
    part_sizes.push_back(n);
    for (std::int64_t i = 0; i < n; ++i) {
      out[offset + i] = p.value()[i];
    }
    offset += n;
  }
  (void)row_elems;
  return Var::make_op(
      std::move(out), parts,
      [part_offsets, part_sizes](const Tensor& g, std::vector<Var>& ps) {
        for (std::size_t k = 0; k < ps.size(); ++k) {
          Tensor gk(ps[k].shape());
          for (std::int64_t i = 0; i < part_sizes[k]; ++i) {
            gk[i] = g[part_offsets[k] + i];
          }
          ps[k].accumulate_grad(gk);
        }
      });
}

Var relu(const Var& a) {
  Tensor out =
      pointwise(a.value(), [](float x) { return x > 0.0F ? x : 0.0F; });
  const Tensor a_val = a.value();
  return Var::make_op(std::move(out), {a},
                      [a_val](const Tensor& g, std::vector<Var>& ps) {
                        Tensor ga = g;
                        for (std::int64_t i = 0; i < ga.numel(); ++i) {
                          ga[i] = a_val[i] > 0.0F ? ga[i] : 0.0F;
                        }
                        ps[0].accumulate_grad(ga);
                      });
}

Var gelu(const Var& a) {
  const Tensor a_val = a.value();
  Tensor out = pointwise(a.value(), [](float x) {
    return 0.5F * x * (1.0F + std::erf(x * 0.70710678F));
  });
  return Var::make_op(
      std::move(out), {a},
      [a_val](const Tensor& g, std::vector<Var>& ps) {
        Tensor ga = g;
        for (std::int64_t i = 0; i < ga.numel(); ++i) {
          const float x = a_val[i];
          const float cdf = 0.5F * (1.0F + std::erf(x * 0.70710678F));
          const float pdf = 0.3989422804F * std::exp(-0.5F * x * x);
          ga[i] *= cdf + x * pdf;
        }
        ps[0].accumulate_grad(ga);
      });
}

Var tanh_v(const Var& a) {
  Tensor out = pointwise(a.value(), [](float x) { return std::tanh(x); });
  const Tensor out_val = out;
  return Var::make_op(std::move(out), {a},
                      [out_val](const Tensor& g, std::vector<Var>& ps) {
                        Tensor ga = g;
                        for (std::int64_t i = 0; i < ga.numel(); ++i) {
                          ga[i] *= 1.0F - out_val[i] * out_val[i];
                        }
                        ps[0].accumulate_grad(ga);
                      });
}

Var sigmoid(const Var& a) {
  Tensor out = pointwise(a.value(), [](float x) {
    return 1.0F / (1.0F + std::exp(-x));
  });
  const Tensor out_val = out;
  return Var::make_op(std::move(out), {a},
                      [out_val](const Tensor& g, std::vector<Var>& ps) {
                        Tensor ga = g;
                        for (std::int64_t i = 0; i < ga.numel(); ++i) {
                          ga[i] *= out_val[i] * (1.0F - out_val[i]);
                        }
                        ps[0].accumulate_grad(ga);
                      });
}

Var exp_v(const Var& a) {
  Tensor out = pointwise(a.value(), [](float x) { return std::exp(x); });
  const Tensor out_val = out;
  return Var::make_op(std::move(out), {a},
                      [out_val](const Tensor& g, std::vector<Var>& ps) {
                        ps[0].accumulate_grad(mul(g, out_val));
                      });
}

Var log_v(const Var& a) {
  const Tensor a_val = a.value();
  Tensor out = pointwise(a.value(), [](float x) { return std::log(x); });
  return Var::make_op(std::move(out), {a},
                      [a_val](const Tensor& g, std::vector<Var>& ps) {
                        Tensor ga = g;
                        for (std::int64_t i = 0; i < ga.numel(); ++i) {
                          ga[i] /= a_val[i];
                        }
                        ps[0].accumulate_grad(ga);
                      });
}

Var sum_all(const Var& a) {
  Tensor out = Tensor::scalar(a.value().sum());
  const Shape in_shape = a.shape();
  return Var::make_op(std::move(out), {a},
                      [in_shape](const Tensor& g, std::vector<Var>& ps) {
                        ps[0].accumulate_grad(Tensor::full(in_shape, g[0]));
                      });
}

Var mean_all(const Var& a) {
  const float inv_n = 1.0F / static_cast<float>(a.numel());
  Tensor out = Tensor::scalar(a.value().sum() * inv_n);
  const Shape in_shape = a.shape();
  return Var::make_op(
      std::move(out), {a},
      [in_shape, inv_n](const Tensor& g, std::vector<Var>& ps) {
        ps[0].accumulate_grad(Tensor::full(in_shape, g[0] * inv_n));
      });
}

}  // namespace rt3
