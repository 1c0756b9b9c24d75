package repro.baselines

import repro.geo.Geo
import scala.collection.mutable

/** The boxed, goal-directed Dijkstra that GTI used before it moved onto
  * the shared A* kernel, kept as the reference for the differential tests.
  */
object ReferenceDijkstra {

  def shortestPath(g: GTI, s: Int, t: Int): Option[IndexedSeq[Int]] = {
    if (s == t) return Some(IndexedSeq(s))
    val dist = mutable.Map(s -> 0.0)
    val prev = mutable.Map.empty[Int, Int]
    val done = mutable.Set.empty[Int]
    val goal = g.point(t)
    def h(i: Int): Double = Geo.haversineM(g.point(i), goal)
    implicit val ord: Ordering[(Int, Double)] = Ordering.by[(Int, Double), Double](_._2).reverse
    val queue = mutable.PriorityQueue((s, h(s)))
    while (queue.nonEmpty) {
      val (u, _) = queue.dequeue()
      if (u == t) {
        val path = mutable.ArrayBuffer(t)
        while (path.last != s) path += prev(path.last)
        return Some(path.reverse.toIndexedSeq)
      }
      if (!done.contains(u)) {
        done += u
        for ((v, c) <- g.edges(u) if !done.contains(v)) {
          val cand = dist(u) + c
          if (cand < dist.getOrElse(v, Double.PositiveInfinity)) {
            dist(v) = cand; prev(v) = u
            queue.enqueue((v, cand + h(v)))
          }
        }
      }
    }
    None
  }
}
