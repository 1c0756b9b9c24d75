package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.ais.Datasets
import repro.exp.Prep
import repro.geo.{Geo, LatLng}
import repro.h3.HexGrid
import scala.util.Random

/** `Habit.impute`'s primitive tail against [[ReferenceHabit]], the boxed
  * tail it replaced: the same paths, bit for bit, for both projections and
  * t ∈ {0, 100, 250}, on random graphs and on the SAR r=10 and KIEL r=9
  * gap sets.
  */
class HabitTailSpec extends AnyFunSuite with SparkSpec {

  private val Tolerances = Seq(0.0, 100.0, 250.0)

  private def bits(p: Seq[LatLng]): Seq[(Long, Long)] =
    p.map(q => (java.lang.Double.doubleToRawLongBits(q.lat), java.lang.Double.doubleToRawLongBits(q.lon)))

  /** Every (projection, t) Habit on `g` imputes each pair as the reference does. */
  private def check(name: String, g: MotionGraph, pairs: Seq[(LatLng, LatLng)]): Unit =
    for (proj <- Seq(Projection.Median, Projection.Center); t <- Tolerances) {
      val h = new Habit(g, HabitConfig(g.res, t, proj))
      for ((from, to) <- pairs) {
        val got = h.impute(from, to)
        assert(bits(got) == bits(ReferenceHabit.impute(h, from, to)), s"$name $proj t=$t: $from -> $to")
      }
    }

  /** A random graph whose medians lie up to ~150 m off the cell centers;
    * a few nodes share one median, so paths repeat vertices.
    */
  private def randomGraph(rnd: Random, n: Int): MotionGraph = {
    val res   = 8
    val cells = (0 until n).map(_ => HexGrid.encode(res, rnd.nextInt(12), rnd.nextInt(12))).distinct
    val shared = HexGrid.cellCenter(cells.head)
    val nodes = cells.map { c =>
      val p = if (rnd.nextInt(6) == 0) shared else HexGrid.cellCenter(c)
      GraphNode(c, p.lat + rnd.nextGaussian() * 5e-4 * rnd.nextInt(2), p.lon + rnd.nextGaussian() * 8e-4 * rnd.nextInt(2),
                1 + rnd.nextInt(100), 1 + rnd.nextInt(5))
    }
    val edges = (0 until n * 4).map { _ =>
      GraphEdge(cells(rnd.nextInt(cells.size)), cells(rnd.nextInt(cells.size)), 1 + rnd.nextInt(50))
    }.filter(e => e.from != e.to)
    MotionGraph(res, nodes, edges)
  }

  /** Gap endpoints on, within a metre of, and away from the graph's
    * vertices, so the endpoint filter drops some projected vertices.
    */
  private def randomEnd(rnd: Random, g: MotionGraph): LatLng = {
    val i = rnd.nextInt(g.nodeCount)
    val median = LatLng(g.medLat(i), g.medLon(i))
    rnd.nextInt(5) match {
      case 0 => median
      case 1 => HexGrid.cellCenter(g.ids(i))
      case 2 => Geo.destination(median, rnd.nextDouble() * 360, rnd.nextDouble() * 1.5)
      case 3 => Geo.destination(HexGrid.cellCenter(g.ids(i)), rnd.nextDouble() * 360, rnd.nextDouble() * 1.5)
      case _ => Geo.destination(median, rnd.nextDouble() * 360, rnd.nextDouble() * 2000)
    }
  }

  test("the array tail gives the reference paths on 40 random graphs") {
    val rnd = new Random(131)
    for (trial <- 1 to 40) {
      val g = randomGraph(rnd, 40)
      check(s"trial $trial", g, Seq.fill(30)((randomEnd(rnd, g), randomEnd(rnd, g))))
    }
  }

  private def gapPairs(p: Prep.Prepared, secs: Seq[Long], seeds: Seq[Long]): Seq[(LatLng, LatLng)] = {
    val pairs = for (sec <- secs; seed <- seeds; gap <- p.gaps(sec, seed)) yield (gap.from, gap.to)
    assert(pairs.size > 40, s"${p.name}: ${pairs.size} gaps")
    pairs
  }

  test("the array tail gives the reference paths on the SAR r=10 gaps") {
    val sar = Prep.prepare("SAR", Datasets.sar(spark, 40, 12).cache())
    check("SAR", MotionGraph.build(sar.trainDf, 10), gapPairs(sar, Seq(3600L, 7200L), 1L to 5L))
  }

  test("the array tail gives the reference paths on the KIEL r=9 gaps") {
    val kiel = Prep.prepare("KIEL", Datasets.kiel(spark, 10).cache())
    check("KIEL", MotionGraph.build(kiel.trainDf, 9), gapPairs(kiel, Seq(3600L, 7200L), 1L to 15L))
  }
}
