package repro.core

import org.apache.spark.sql.{functions => F}
import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.ais.Datasets
import repro.exp.Prep
import repro.h3.HexGrid
import scala.collection.mutable

/** The A* kernel on a built SAR graph against the reference boxed A*, and
  * the canonical edge order that `fromTables` gives the kernel.
  */
class SearchSpec extends AnyFunSuite with SparkSpec {

  private lazy val sar = Prep.prepare("SAR", Datasets.sar(spark, 40, 12).cache())
  private val Res = 10

  test("fromTables orders each node's edges by target, whatever the row order") {
    val cells = CellStats.cellTable(sar.trainDf, Res).cache()
    val edges = CellStats.edgeTable(sar.trainDf, Res).cache()
    val rows = edges.select("lag_cl", "cl", "transitions").collect()
      .map(r => GraphEdge(r.getLong(0), r.getLong(1), r.getLong(2)))
    val g = MotionGraph.fromTables(cells, edges, Res)
    val kept = rows.filter(e => g.indexOf(e.from) >= 0 && g.indexOf(e.to) >= 0)
    assert(g.edgeCount == kept.length && g.nodeCount == cells.count())
    assert(g.adjacency == kept.toIndexedSeq.groupBy(_.from).view.mapValues(_.sortBy(_.to)).toMap)
    for (rowOrder <- Seq(edges.orderBy(F.desc("cl")), edges.orderBy("transitions", "lag_cl"))) {
      val other = MotionGraph.fromTables(cells, rowOrder, Res)
      assert(other.off.toSeq == g.off.toSeq && other.tgt.toSeq == g.tgt.toSeq &&
             other.transitions.toSeq == g.transitions.toSeq)
    }
    Seq(cells, edges).foreach(_.unpersist())
  }

  private lazy val sarGraph = MotionGraph.build(sar.trainDf, Res)

  /** Least cost from every cell to `t` (absent if it cannot reach `t`):
    * a boxed Dijkstra from `t` over the reversed edges.
    */
  private def costsTo(g: MotionGraph, t: Long): Map[Long, Double] = {
    val into = g.adjacency.values.flatten.groupBy(_.to)
    val dist = mutable.Map(t -> 0.0)
    val pq = mutable.PriorityQueue((t, 0.0))(Ordering.by[(Long, Double), Double](_._2).reverse)
    while (pq.nonEmpty) {
      val (v, dv) = pq.dequeue()
      if (dv == dist(v)) for (e <- into.getOrElse(v, Nil); c = dv + AStar.edgeCost(e)
                              if c < dist.getOrElse(e.from, Double.PositiveInfinity)) {
        dist(e.from) = c; pq.enqueue((e.from, c))
      }
    }
    dist.toMap
  }

  /** The snapped endpoints of SAR gaps of both lengths, seeds 1-5. */
  private lazy val sarPairs = {
    val gaps = for (sec <- Seq(3600L, 7200L); seed <- 1L to 5L; gap <- sar.gaps(sec, seed)) yield gap
    gaps.map(gap => (sarGraph.nearestNode(HexGrid.latLngToCell(gap.from, Res)).get,
                     sarGraph.nearestNode(HexGrid.latLngToCell(gap.to, Res)).get))
  }

  test("every SAR gap endpoint snaps to the reference's node, beyond 16 rings too") {
    val g = sarGraph
    val cells = for (sec <- Seq(3600L, 7200L); seed <- 1L to 5L; gap <- sar.gaps(sec, seed);
                     p <- Seq(gap.from, gap.to)) yield HexGrid.latLngToCell(p, Res)
    var beyond = 0
    for (c <- cells) {
      val i = g.nearestIndex(c)
      assert(i == ReferenceSnap.nearestIndex(g, c), s"cell $c")
      if (HexGrid.gridDistance(c, g.ids(i)) > 16) beyond += 1
    }
    assert(cells.size > 40 && beyond > 0, s"${cells.size} endpoints, $beyond beyond 16 rings")
  }

  test("every SAR gap: the same cell path as the reference A*") {
    val g = sarGraph
    assert(sarPairs.size > 20)
    var found = 0
    for ((s, t) <- sarPairs) {
      val got = AStar.shortestPath(g, s, t)
      assert(got == ReferenceAStar.shortestPath(g, s, t, AStar.lowerBound(g, t)), s"$s -> $t")
      if (got.isDefined) found += 1
    }
    assert(found > sarPairs.size / 2)
  }

  test("every SAR gap: the path costs the least cost of a reference Dijkstra") {
    val g = sarGraph
    for ((s, t) <- sarPairs) {
      val least = costsTo(g, t).get(s)
      val got = AStar.shortestPath(g, s, t)
      assert(got.isDefined == least.isDefined, s"$s -> $t")
      for (path <- got) {
        val cost = path.sliding(2).collect { case Seq(a, b) =>
          AStar.edgeCost(g.adjacency(a).filter(_.to == b).minBy(AStar.edgeCost))
        }.sum
        assert(math.abs(cost - least.get) < 1e-9, s"$s -> $t: $cost vs ${least.get}")
      }
    }
  }

  test("SAR graph: the heuristic is admissible toward sampled goals, +∞ only if unreachable") {
    val g = sarGraph
    val cells = g.nodes.keys.toIndexedSeq.sorted
    val rnd = new scala.util.Random(3)
    var proven = 0
    for (t <- Seq.fill(12)(cells(rnd.nextInt(cells.size)))) {
      val d = costsTo(g, t); val h = AStar.lowerBound(g, t)
      for (v <- cells) d.get(v) match {
        case Some(dv) => assert(h(v) <= dv, s"h = ${h(v)} > d = $dv for $v -> $t")
        case None =>
          if (h(v) == Double.PositiveInfinity) {
            proven += 1
            assert(AStar.shortestPath(g, v, t).isEmpty && Search.lastExpanded == 0, s"$v -> $t")
          }
      }
    }
    assert(proven > 0)
  }
}
