package repro.core

import repro.geo.{EndpointFilter, LatLng, RDP}
import repro.h3.HexGrid
import scala.collection.immutable.ArraySeq

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
    val cells = (if (s < 0 || g < 0) None else AStar.search(graph, s, g)).getOrElse(Array.emptyIntArray)
    // One pass from the cell path to the polyline from, interior, to in
    // primitive arrays, dropping the projected vertices that sit on top
    // of the fixed endpoints.
    val lat = new Array[Double](cells.length + 2)
    val lon = new Array[Double](cells.length + 2)
    val ends = new EndpointFilter(from, to)
    val median = config.projection == Projection.Median
    lat(0) = from.lat; lon(0) = from.lon
    var n = 1
    var k = 0
    while (k < cells.length) {
      val i = cells(k)
      val c = if (median) null else HexGrid.cellCenter(graph.ids(i))
      val pLat = if (median) graph.medLat(i) else c.lat
      val pLon = if (median) graph.medLon(i) else c.lon
      if (ends.keeps(pLat, pLon)) { lat(n) = pLat; lon(n) = pLon; n += 1 }
      k += 1
    }
    lat(n) = to.lat; lon(n) = to.lon
    n += 1
    // RDP, then the result's one boxed copy, with the endpoints themselves.
    val keep = RDP.keep(lat, lon, n, config.toleranceM)
    var size = 0
    k = 0
    while (k < n) { if (keep(k)) size += 1; k += 1 }
    val out = new Array[LatLng](size)
    out(0) = from; out(size - 1) = to
    var j = 1
    k = 1
    while (k < n - 1) { if (keep(k)) { out(j) = LatLng(lat(k), lon(k)); j += 1 }; k += 1 }
    ArraySeq.unsafeWrapArray(out)
  }
}
