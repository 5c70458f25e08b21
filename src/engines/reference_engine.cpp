#include "engines/reference_engine.hpp"

#include <cstring>

#include "core/regularization.hpp"
#include "engines/streaming.hpp"

namespace mlbm {

template <class L>
ReferenceEngine<L>::ReferenceEngine(Geometry geo, real_t tau,
                                    CollisionScheme scheme)
    : Engine<L>(std::move(geo), tau), scheme_(scheme) {
  const auto n = static_cast<std::size_t>(this->geo_.box.cells()) *
                 static_cast<std::size_t>(L::Q);
  f_[0].assign(n, real_t(0));
  f_[1].assign(n, real_t(0));
}

template <class L>
const char* ReferenceEngine<L>::pattern_name() const {
  switch (scheme_) {
    case CollisionScheme::kBGK: return "REF-BGK";
    case CollisionScheme::kProjective: return "REF-P";
    case CollisionScheme::kRecursive: return "REF-R";
  }
  return "REF";
}

template <class L>
void ReferenceEngine<L>::read_moments(const NodeRange& r,
                                      std::span<Moments<L>> out) const {
  this->check_range(r, out.size());
  const bool solids = this->geo_.has_solids();
  const std::vector<real_t>& fc = f_[cur_];
  Moments<L>* m = out.data();
  r.each([&](int x, int y, int z) {
    if (solids && this->geo_.solid(x, y, z)) {
      *m++ = solid_moments<L>();
      return;
    }
    const index_t cell = this->geo_.box.idx(x, y, z);
    real_t f[L::Q];
    for (int i = 0; i < L::Q; ++i) {
      f[i] = fc[static_cast<std::size_t>(soa(i, cell))];
    }
    *m++ = compute_moments<L>(f);
  });
}

template <class L>
void ReferenceEngine<L>::write_moments(const NodeRange& r,
                                       std::span<const Moments<L>> in) {
  // The stored state is pre-collision; the projective reconstruction is the
  // unique population whose first three Hermite moments equal the written
  // moments exactly and whose higher-order non-equilibrium content vanishes.
  // All engines use this convention so written states produce identical
  // trajectories.
  this->check_range(r, in.size());
  const bool solids = this->geo_.has_solids();
  std::vector<real_t>& fc = f_[cur_];
  const Moments<L>* m = in.data();
  r.each([&](int x, int y, int z) {
    const Moments<L>& mn = *m++;
    if (solids && this->geo_.solid(x, y, z)) return;
    const index_t cell = this->geo_.box.idx(x, y, z);
    real_t pineq[Moments<L>::NP];
    for (int p = 0; p < Moments<L>::NP; ++p) pineq[p] = mn.pi_neq(p);
    for (int i = 0; i < L::Q; ++i) {
      fc[static_cast<std::size_t>(soa(i, cell))] =
          reconstruct_projective<L>(i, mn.rho, mn.u.data(), pineq);
    }
  });
}

template <class L>
std::size_t ReferenceEngine<L>::state_bytes() const {
  return (f_[0].size() + f_[1].size()) * sizeof(real_t);
}

template <class L>
real_t ReferenceEngine<L>::f_at(int i, int x, int y, int z) const {
  return f_[cur_][static_cast<std::size_t>(soa(i, this->geo_.box.idx(x, y, z)))];
}

template <class L>
void ReferenceEngine<L>::inject_storage_bitflip(std::uint64_t site,
                                                unsigned bit) {
  const std::uint64_t n0 = f_[0].size();
  const std::uint64_t s = site % fault_sites();
  real_t& v = s < n0 ? f_[0][static_cast<std::size_t>(s)]
                     : f_[1][static_cast<std::size_t>(s - n0)];
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  u ^= std::uint64_t{1} << (bit % 64u);
  std::memcpy(&v, &u, sizeof(u));
}

template <class L>
void ReferenceEngine<L>::do_step() {
  step_range(0, this->geo_.box.nx);
  cur_ = 1 - cur_;
}

template <class L>
void ReferenceEngine<L>::do_step_split(
    const FrontierSpec& fs,
    const typename Engine<L>::FrontierDoneFn& on_frontier) {
  const Box& b = this->geo_.box;
  // Source-partitioned push (see DistEngine::do_step_split): target planes
  // [0, left) are final once sources [0, left] have scattered, and no
  // interior source writes them.
  const int fl = fs.left > 0 ? fs.left + 1 : 0;
  const int fr = fs.right > 0 ? fs.right + 1 : 0;
  if (fs.empty() || fl + fr >= b.nx) {
    step_range(0, b.nx);
    if (on_frontier) on_frontier();
  } else {
    step_range(0, fl);
    step_range(b.nx - fr, b.nx);
    if (on_frontier) on_frontier();
    step_range(fl, b.nx - fr);
  }
  cur_ = 1 - cur_;
}

template <class L>
void ReferenceEngine<L>::step_range(int rx0, int rx1) {
  const Box& b = this->geo_.box;
  const Geometry& geo = this->geo_;
  const std::vector<real_t>& src = f_[cur_];
  std::vector<real_t>& dst = f_[1 - cur_];
  const real_t inv_cs2 = real_t(1) / L::cs2;

  const index_t cells = b.cells();

  for (int z = 0; z < b.nz; ++z) {
    for (int y = 0; y < b.ny; ++y) {
      for (int x = rx0; x < rx1; ++x) {
        // Solid nodes have no populations to collide or scatter; their links
        // are handled from the fluid side (resolve_stream bounces).
        if (geo.has_solids() && geo.solid(x, y, z)) continue;
        const index_t cell = b.idx(x, y, z);
        // Strided gather of the node's Q populations (soa slot i is
        // i*cells + cell): one base pointer, Q constant-stride reads.
        real_t f[L::Q];
        const real_t* fp = src.data() + cell;
        for (int i = 0; i < L::Q; ++i, fp += cells) {
          f[i] = *fp;
        }
        // Collide on read: stored state is pre-collision.
        const real_t rho_pre = [&] {
          real_t r = 0;
          for (int i = 0; i < L::Q; ++i) r += f[i];
          return r;
        }();
        collide<L>(scheme_, f, this->tau_);

        for (int i = 0; i < L::Q; ++i) {
          const StreamTarget t = resolve_stream<L>(geo, x, y, z, i);
          switch (t.kind) {
            case StreamTarget::Kind::kInterior:
              dst[static_cast<std::size_t>(soa(i, b.idx(t.x, t.y, t.z)))] = f[i];
              break;
            case StreamTarget::Kind::kBounce:
              dst[static_cast<std::size_t>(soa(L::opposite(i), cell))] =
                  f[i] - real_t(2) * L::w[static_cast<std::size_t>(i)] * rho_pre *
                             t.cu_wall * inv_cs2;
              break;
            case StreamTarget::Kind::kDropped:
              break;
          }
        }
      }
    }
  }
}

template class ReferenceEngine<D2Q9>;
template class ReferenceEngine<D3Q19>;
template class ReferenceEngine<D3Q27>;
template class ReferenceEngine<D3Q15>;

}  // namespace mlbm
