// World builders: synthetic campuses with the structural properties of the
// paper's testbeds (see README "Benchmarks and examples").
//
//  * make_uji_like_campus(): three multi-floor buildings with inaccessible
//    courtyards in a 397 m x 273 m frame (UJIIndoorLoc, Fig. 1).
//  * make_ipin_like_building(): one small building (IPIN2016 Tutorial).
//  * make_outdoor_track(): a 160 m x 60 m walkway loop with reference points
//    (the paper's self-collected IMU campus walk, §V-A).
#ifndef NOBLE_GEO_CAMPUS_H_
#define NOBLE_GEO_CAMPUS_H_

#include "geo/floorplan.h"
#include "geo/pathgraph.h"

namespace noble::geo {

/// An indoor world: buildings plus per-(building, floor) corridor graphs that
/// fingerprint-collection routes follow.
struct IndoorWorld {
  struct Corridor {
    int building;
    int floor;
    PathGraph graph;
  };

  FloorPlan plan;
  std::vector<Corridor> corridors;

  /// All corridors belonging to one building/floor pair.
  const Corridor* corridor(int building, int floor) const;
};

/// An outdoor world: walkway graph, ordered reference points along it, and
/// the world bounds.
struct OutdoorWorld {
  PathGraph walkways;
  std::vector<Point2> reference_points;
  Aabb bounds;
};

/// Three-building campus (4 floors each) mimicking UJIIndoorLoc's structure:
/// elongated footprints, interior courtyards that hold no data, ring + cross
/// corridors per floor.
IndoorWorld make_uji_like_campus();

/// Single small building (3 floors) mimicking the IPIN2016 Tutorial setting.
IndoorWorld make_ipin_like_building();

/// Outdoor loop with `num_reference_points` GPS reference locations spread
/// along the walkways (paper: 177 references over 160 m x 60 m).
OutdoorWorld make_outdoor_track(std::size_t num_reference_points = 177);

}  // namespace noble::geo

#endif  // NOBLE_GEO_CAMPUS_H_
