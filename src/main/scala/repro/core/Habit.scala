package repro.core

import repro.geo.{Geo, LatLng, RDP}
import repro.h3.HexGrid

/** Inverse-projection option for cell → coordinates (paper §3.3, Figure 2):
  * `Center` uses the geometric cell center (p = c); `Median` uses the
  * data-driven per-cell median position (p = w).
  */
sealed trait Projection
object Projection {
  case object Center extends Projection
  case object Median extends Projection
}

/** HABIT configuration: H3 resolution r, RDP simplification tolerance t
  * (meters, 0 disables), and the inverse-projection option p.
  */
final case class HabitConfig(res: Int = 9, toleranceM: Double = 100.0,
                             projection: Projection = Projection.Median)

/** The HABIT imputer (paper §3.3–3.4). Given the two endpoints of a gap:
  *  1. project both onto H3 cells; snap to the nearest graph node if the
  *     cell is unseen in the historical data (least hex distance, smallest
  *     id among ties);
  *  2. A* over the motion graph for the most frequent shortest cell path;
  *  3. inverse-project the cell sequence to coordinates (center or median);
  *  4. RDP-simplify for a navigable path.
  *
  * Falls back to the straight segment when no graph path exists (e.g., the
  * endpoints lie in disconnected components) — the imputation must always
  * return some path, as in the paper's evaluation harness.
  */
final class Habit(val graph: MotionGraph, val config: HabitConfig) extends Serializable {
  require(graph.res == config.res, s"graph res ${graph.res} != config res ${config.res}")
  graph.landmarks // A*'s tables are built here, so no query pays for them.

  /** Impute the gap between `from` and `to`; returns the full path
    * including both gap endpoints.
    */
  def impute(from: LatLng, to: LatLng): IndexedSeq[LatLng] = {
    val s = graph.nearestIndex(HexGrid.latLngToCell(from, config.res))
    val g = graph.nearestIndex(HexGrid.latLngToCell(to, config.res))
    val path = if (s < 0 || g < 0) None else AStar.search(graph, s, g)
    val mid: IndexedSeq[LatLng] = path match {
      case Some(nodes) => nodes.toIndexedSeq.map {
        i => config.projection match {
          case Projection.Center => HexGrid.cellCenter(graph.ids(i))
          case Projection.Median => LatLng(graph.medLat(i), graph.medLon(i))
        }
      }
      case None => IndexedSeq.empty
    }
    // Drop interpolated vertices that sit on top of the fixed endpoints.
    val interior = mid.filter(p => Geo.haversineM(p, from) > 1.0 && Geo.haversineM(p, to) > 1.0)
    RDP.simplify(from +: interior :+ to, config.toleranceM)
  }
}
