package repro.core

import scala.collection.mutable

/** The boxed A* that [[AStar]] replaced, kept as the reference for the
  * differential tests: maps for distances and predecessors, a case-class
  * `mutable.PriorityQueue`, and the graph's adjacency map view with each
  * list put in the canonical order (by target cell) here, whatever order
  * the graph stores. The heuristic `h` (over cells) is a parameter, so the
  * tests pass the one [[AStar]] uses; as in the kernel, a cell whose `h` is
  * +∞ is never enqueued.
  */
object ReferenceAStar {

  private final case class QEntry(cell: Long, f: Double)
  private implicit val qOrd: Ordering[QEntry] = Ordering.by[QEntry, Double](_.f).reverse

  def shortestPath(g: MotionGraph, start: Long, goal: Long, h: Long => Double): Option[IndexedSeq[Long]] = {
    if (start == goal) return Some(IndexedSeq(start))
    val dist  = mutable.Map(start -> 0.0)
    val prev  = mutable.Map.empty[Long, Long]
    val done  = mutable.Set.empty[Long]
    val queue = mutable.PriorityQueue(QEntry(start, h(start)))
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
          if (cand < dist.getOrElse(e.to, Double.PositiveInfinity) && h(e.to) != Double.PositiveInfinity) {
            dist(e.to) = cand
            prev(e.to) = cur.cell
            queue.enqueue(QEntry(e.to, cand + h(e.to)))
          }
        }
      }
    }
    None
  }
}
