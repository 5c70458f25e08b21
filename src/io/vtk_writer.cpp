#include "io/vtk_writer.hpp"

#include <fstream>
#include <span>

#include "util/error.hpp"

namespace mlbm {

template <class L>
void write_vtk(const Engine<L>& eng, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw IoError("write_vtk: cannot open " + path);

  const Box& b = eng.geometry().box;
  out << "# vtk DataFile Version 3.0\n"
      << "mlbm " << eng.pattern_name() << " t=" << eng.time() << "\n"
      << "ASCII\nDATASET STRUCTURED_POINTS\n"
      << "DIMENSIONS " << b.nx << " " << b.ny << " " << b.nz << "\n"
      << "ORIGIN 0 0 0\nSPACING 1 1 1\n"
      << "POINT_DATA " << b.cells() << "\n";

  const NodeRange all{0, b.nx, 0, b.ny, 0, b.nz};
  out << "SCALARS density double 1\nLOOKUP_TABLE default\n";
  for_each_row(eng, all, [&out](int, int, std::span<const Moments<L>> row) {
    for (const Moments<L>& m : row) out << m.rho << "\n";
  });

  out << "VECTORS velocity double\n";
  for_each_row(eng, all, [&out](int, int, std::span<const Moments<L>> row) {
    for (const Moments<L>& m : row) {
      real_t uz = 0;
      if constexpr (L::D == 3) uz = m.u[2];
      out << m.u[0] << " " << m.u[1] << " " << uz << "\n";
    }
  });

  // Obstacle geometries additionally carry the flag field so ParaView can
  // threshold the solid region away. Solid nodes hold no state: their
  // density/velocity rows above are already blanked to zero (the engines
  // report solid_moments() for them).
  const Geometry& geo = eng.geometry();
  if (geo.has_solids()) {
    out << "SCALARS node_kind int 1\nLOOKUP_TABLE default\n";
    for (int z = 0; z < b.nz; ++z) {
      for (int y = 0; y < b.ny; ++y) {
        for (int x = 0; x < b.nx; ++x) {
          out << static_cast<int>(geo.at(x, y, z)) << "\n";
        }
      }
    }
  }
  if (!out) throw IoError("write_vtk: write failed for " + path);
}

template void write_vtk<D2Q9>(const Engine<D2Q9>&, const std::string&);
template void write_vtk<D3Q19>(const Engine<D3Q19>&, const std::string&);
template void write_vtk<D3Q27>(const Engine<D3Q27>&, const std::string&);
template void write_vtk<D3Q15>(const Engine<D3Q15>&, const std::string&);

}  // namespace mlbm
