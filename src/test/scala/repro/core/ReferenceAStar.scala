package repro.core

import repro.h3.HexGrid
import scala.collection.mutable

/** The boxed A* that [[AStar]] replaced, kept as the reference for the
  * differential tests: maps for distances and predecessors, a case-class
  * `mutable.PriorityQueue`, and the graph's adjacency map view with each
  * list put in the canonical order (by target cell) here, whatever order
  * the graph stores.
  */
object ReferenceAStar {

  private final case class QEntry(cell: Long, f: Double)
  private implicit val qOrd: Ordering[QEntry] = Ordering.by[QEntry, Double](_.f).reverse

  def shortestPath(g: MotionGraph, start: Long, goal: Long): Option[IndexedSeq[Long]] = {
    if (start == goal) return Some(IndexedSeq(start))
    val dist  = mutable.Map(start -> 0.0)
    val prev  = mutable.Map.empty[Long, Long]
    val done  = mutable.Set.empty[Long]
    val queue = mutable.PriorityQueue(QEntry(start, heuristic(start, goal)))
    while (queue.nonEmpty) {
      val cur = queue.dequeue()
      if (cur.cell == goal) {
        val path = mutable.ArrayBuffer(goal)
        while (path.last != start) path += prev(path.last)
        return Some(path.reverse.toIndexedSeq)
      }
      if (!done.contains(cur.cell)) {
        done += cur.cell
        val out = g.adjacency.getOrElse(cur.cell, IndexedSeq.empty).sortBy(_.to)
        for (e <- out if !done.contains(e.to)) {
          val cost = AStar.edgeCost(e)
          val cand = dist(cur.cell) + cost
          if (cand < dist.getOrElse(e.to, Double.PositiveInfinity)) {
            dist(e.to) = cand
            prev(e.to) = cur.cell
            queue.enqueue(QEntry(e.to, cand + heuristic(e.to, goal)))
          }
        }
      }
    }
    None
  }

  private def heuristic(cell: Long, goal: Long): Double =
    HexGrid.gridDistance(cell, goal).toDouble
}
