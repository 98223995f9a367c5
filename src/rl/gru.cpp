#include "rl/gru.hpp"

#include <cmath>

namespace rt3 {

GruCell::GruCell(std::int64_t input_dim, std::int64_t hidden_dim, Rng& rng)
    : hidden_dim_(hidden_dim) {
  wz_ = std::make_unique<Linear>(input_dim, hidden_dim, rng);
  uz_ = std::make_unique<Linear>(hidden_dim, hidden_dim, rng, /*bias=*/false);
  wr_ = std::make_unique<Linear>(input_dim, hidden_dim, rng);
  ur_ = std::make_unique<Linear>(hidden_dim, hidden_dim, rng, /*bias=*/false);
  wn_ = std::make_unique<Linear>(input_dim, hidden_dim, rng);
  un_ = std::make_unique<Linear>(hidden_dim, hidden_dim, rng, /*bias=*/false);
}

Var GruCell::forward(const Var& x, const Var& h) const {
  Var z = sigmoid(add(wz_->forward(x), uz_->forward(h)));
  Var r = sigmoid(add(wr_->forward(x), ur_->forward(h)));
  Var n = tanh_v(add(wn_->forward(x), un_->forward(mul(r, h))));
  // h' = (1 - z) * h + z * n
  Var one_minus_z = add_scalar(neg(z), 1.0F);
  return add(mul(one_minus_z, h), mul(z, n));
}

void GruCell::step(const float* x, float* h, float* scratch) const {
  const std::int64_t n = hidden_dim_;
  float* z = scratch;
  float* r = scratch + n;
  float* c = scratch + 2 * n;  // candidate n
  float* t = scratch + 3 * n;
  // z = sigmoid((Wz x + b) + Uz h), r likewise.
  wz_->forward_row(x, z);
  uz_->forward_row(h, t);
  for (std::int64_t i = 0; i < n; ++i) {
    z[i] = 1.0F / (1.0F + std::exp(-(z[i] + t[i])));
  }
  wr_->forward_row(x, r);
  ur_->forward_row(h, t);
  for (std::int64_t i = 0; i < n; ++i) {
    r[i] = 1.0F / (1.0F + std::exp(-(r[i] + t[i])));
  }
  // c = tanh((Wn x + b) + Un (r * h)); r now holds r * h.
  for (std::int64_t i = 0; i < n; ++i) {
    r[i] *= h[i];
  }
  wn_->forward_row(x, c);
  un_->forward_row(r, t);
  for (std::int64_t i = 0; i < n; ++i) {
    c[i] = std::tanh(c[i] + t[i]);
  }
  // h' = (-z + 1) * h + z * c.  Each product is stored before the sum, as
  // the taped ops do, so no compiler can fuse one into the add.
  for (std::int64_t i = 0; i < n; ++i) {
    t[i] = (-z[i] + 1.0F) * h[i];
  }
  for (std::int64_t i = 0; i < n; ++i) {
    c[i] *= z[i];
  }
  for (std::int64_t i = 0; i < n; ++i) {
    h[i] = t[i] + c[i];
  }
}

Var GruCell::initial_state(std::int64_t batch) const {
  return Var(Tensor::zeros({batch, hidden_dim_}));
}

void GruCell::collect_params(const std::string& prefix,
                             std::vector<NamedParam>& out) const {
  wz_->collect_params(prefix + "wz.", out);
  uz_->collect_params(prefix + "uz.", out);
  wr_->collect_params(prefix + "wr.", out);
  ur_->collect_params(prefix + "ur.", out);
  wn_->collect_params(prefix + "wn.", out);
  un_->collect_params(prefix + "un.", out);
}

}  // namespace rt3
