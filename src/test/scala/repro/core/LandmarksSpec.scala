package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.h3.HexGrid
import scala.collection.mutable
import scala.util.Random

/** The graph's strongly connected components and the landmark tables of
  * A*'s lower bound, against boxed references on random graphs.
  */
class LandmarksSpec extends AnyFunSuite {

  private def randomGraph(rnd: Random, n: Int, edgesPerNode: Double): MotionGraph = {
    val cells = (0 until n).map(_ => HexGrid.encode(8, rnd.nextInt(30), rnd.nextInt(30))).distinct
    val nodes = cells.map(c => GraphNode(c, 0.0, 0.0, 1, 1))
    val edges = (0 until (n * edgesPerNode).toInt).map { _ =>
      GraphEdge(cells(rnd.nextInt(cells.size)), cells(rnd.nextInt(cells.size)), 1 + rnd.nextInt(50))
    }.filter(e => e.from != e.to)
    MotionGraph(8, nodes, edges)
  }

  /** Boxed Dijkstra from node index `s` over `g`'s edges, reversed if asked. */
  private def dijkstra(g: MotionGraph, s: Int, reversed: Boolean): Array[Double] = {
    val edges = for (u <- 0 until g.nodeCount; k <- g.off(u) until g.off(u + 1))
      yield if (reversed) (g.tgt(k), u, g.cost(k)) else (u, g.tgt(k), g.cost(k))
    val out = edges.groupBy(_._1)
    val dist = Array.fill(g.nodeCount)(Double.PositiveInfinity)
    dist(s) = 0.0
    val pq = mutable.PriorityQueue((s, 0.0))(Ordering.by[(Int, Double), Double](_._2).reverse)
    while (pq.nonEmpty) {
      val (u, du) = pq.dequeue()
      if (du == dist(u)) for ((_, v, c) <- out.getOrElse(u, Nil) if du + c < dist(v)) {
        dist(v) = du + c; pq.enqueue((v, du + c))
      }
    }
    dist
  }

  test("components are the classes of mutual reachability") {
    val rnd = new Random(21)
    for (trial <- 1 to 30) {
      val g = randomGraph(rnd, 40, 0.5 + rnd.nextDouble() * 2)
      val reach = (0 until g.nodeCount).map(dijkstra(g, _, reversed = false).map(_ < Double.PositiveInfinity))
      for (u <- 0 until g.nodeCount; v <- 0 until g.nodeCount)
        assert((g.component(u) == g.component(v)) == (reach(u)(v) && reach(v)(u)), s"trial $trial: $u, $v")
    }
  }

  test("landmarks lie in the largest component and their tables are the least costs") {
    val rnd = new Random(22)
    for (trial <- 1 to 30) {
      val g = randomGraph(rnd, 40, 0.8 + rnd.nextDouble() * 2)
      val lm = g.landmarks
      val sizes = g.component.groupBy(identity).view.mapValues(_.length).toMap
      val largest = sizes.values.max
      assert(lm.k == math.min(Landmarks.K, largest) && lm.nodes.distinct.length == lm.k)
      assert(lm.nodes.forall(v => sizes(g.component(v)) == largest))
      assert(lm.nodes.map(g.component).distinct.length == 1)
      for (l <- 0 until lm.k) {
        val (from, to) = (dijkstra(g, lm.nodes(l), reversed = false), dijkstra(g, lm.nodes(l), reversed = true))
        for (v <- 0 until g.nodeCount) {
          assert(math.abs(lm.from(v * lm.k + l) - from(v)) <= 1e-9 || lm.from(v * lm.k + l) == from(v), s"trial $trial")
          assert(math.abs(lm.to(v * lm.k + l) - to(v)) <= 1e-9 || lm.to(v * lm.k + l) == to(v), s"trial $trial")
        }
      }
    }
  }

  test("an empty graph has no components and no landmarks") {
    val g = MotionGraph(8, Seq.empty, Seq.empty)
    assert(g.landmarks.k == 0 && g.component.isEmpty)
  }
}
