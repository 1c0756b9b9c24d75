package repro.core

import repro.geo.{Geo, LatLng, ReferenceRDP}
import repro.h3.HexGrid

/** The boxed query tail that `Habit.impute` replaced, kept as the
  * reference for the differential tests: one `LatLng` per path cell, two
  * full haversines per vertex for the endpoint filter, the path copied
  * with its endpoints, then [[ReferenceRDP]]. Snapping and A* are the
  * `Habit`'s own.
  */
object ReferenceHabit {

  def impute(h: Habit, from: LatLng, to: LatLng): IndexedSeq[LatLng] = {
    val graph = h.graph; val config = h.config
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
    val interior = mid.filter(p => Geo.haversineM(p, from) > 1.0 && Geo.haversineM(p, to) > 1.0)
    ReferenceRDP.simplify(from +: interior :+ to, config.toleranceM)
  }
}
