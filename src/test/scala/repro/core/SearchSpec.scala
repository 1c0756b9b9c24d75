package repro.core

import org.apache.spark.sql.{functions => F}
import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.ais.Datasets
import repro.exp.Prep
import repro.h3.HexGrid

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

  test("every SAR gap: the same cell path as the reference A*") {
    val g = MotionGraph.build(sar.trainDf, Res)
    val gaps = for (sec <- Seq(3600L, 7200L); seed <- 1L to 5L; gap <- sar.gaps(sec, seed)) yield gap
    assert(gaps.size > 20)
    var found = 0
    for (gap <- gaps) {
      val s = g.nearestNode(HexGrid.latLngToCell(gap.from, Res)).get
      val t = g.nearestNode(HexGrid.latLngToCell(gap.to, Res)).get
      val got = AStar.shortestPath(g, s, t)
      assert(got == ReferenceAStar.shortestPath(g, s, t), s"gap of trip ${gap.tripId}")
      if (got.isDefined) found += 1
    }
    assert(found > gaps.size / 2)
  }
}
