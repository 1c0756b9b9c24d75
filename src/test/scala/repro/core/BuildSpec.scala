package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, QueryStageExec}
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.apache.spark.sql.execution.exchange.ShuffleExchangeLike
import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.ais.Datasets
import repro.exp.Prep
import repro.h3.{HexGrid, Rings}
import repro.preprocess.{Cleaner, ReferenceCleaner, ReferenceTripSegmenter, TripSegmenter}

/** The build over one vessel_id shuffle against the reference stages it
  * replaced (same rows, same aggregates), its plan (one shuffle for the
  * trips, one per aggregate), and a graph and paths that do not depend on
  * the number of shuffle partitions.
  */
class BuildSpec extends AnyFunSuite with SparkSpec {

  private lazy val inputs = Seq(
    "KIEL" -> Datasets.kiel(spark, 4),
    "SAR"  -> Datasets.sar(spark, 12, 4),
    "DAN"  -> Datasets.dan(spark, 6)).map { case (n, df) => n -> df.cache() }

  /** Rows of `got` and of `ref` on the columns of `got`, both as multisets. */
  private def assertSameRows(got: DataFrame, ref: DataFrame, what: String): Unit = {
    def bag(df: DataFrame): Map[Row, Int] =
      df.select(got.columns.toIndexedSeq.map(df.col): _*).collect().groupBy(identity).view.mapValues(_.length).toMap
    val (g, r) = (bag(got), bag(ref))
    assert(g.values.sum > 0, s"$what is empty")
    assert(g == r, s"$what: ${g.values.sum} rows against the reference's ${r.values.sum}")
  }

  test("clean, segment and the cell and edge tables equal the reference stages") {
    for ((name, raw) <- inputs) {
      val cleaned = Cleaner.clean(raw)
      val ref     = ReferenceCleaner.clean(raw)
      assertSameRows(cleaned, ref, s"$name cleaned")
      val trips    = TripSegmenter.segment(cleaned).cache()
      val refTrips = ReferenceTripSegmenter.segment(ref).cache()
      assert(trips.columns.toSeq == refTrips.columns.toSeq)
      assertSameRows(trips, refTrips, s"$name trips")
      for (res <- Seq(9, 10); exact <- Seq(true, false)) {
        assertSameRows(CellStats.cellTable(trips, res, exact),
                       ReferenceCellStats.cellTable(refTrips, res, exact), s"$name r=$res exact=$exact nodes")
        assertSameRows(CellStats.edgeTable(trips, res, exact),
                       ReferenceCellStats.edgeTable(refTrips, res, exact), s"$name r=$res exact=$exact edges")
      }
      Seq(trips, refTrips).foreach(_.unpersist())
    }
  }

  /** Shuffle exchanges in an executed plan, not counting those that
    * filled the cached relations it reads.
    */
  private def shuffles(plan: SparkPlan): Int = plan match {
    case a: AdaptiveSparkPlanExec => shuffles(a.executedPlan)
    case s: QueryStageExec        => shuffles(s.plan)
    case e: ShuffleExchangeLike   => 1 + shuffles(e.child)
    case p                        => p.children.map(shuffles).sum
  }

  /** The executed plan that filled the cache a cached `df` reads. */
  private def cachedPlan(df: DataFrame): SparkPlan = {
    def find(plan: SparkPlan): Option[SparkPlan] = plan match {
      case a: AdaptiveSparkPlanExec => find(a.executedPlan)
      case m: InMemoryTableScanExec => Some(m.relation.cachedPlan)
      case p                        => p.children.flatMap(find).headOption
    }
    find(df.queryExecution.executedPlan).get
  }

  test("plan: one shuffle makes the trips, and one more each node or edge table") {
    for ((name, raw) <- inputs) {
      val p = Prep.prepare(name, raw)
      p.trips.count()
      assert(shuffles(cachedPlan(p.trips)) == 1, s"$name trips")
      for ((what, table) <- Seq("edges" -> CellStats.edgeTable _, "nodes" -> CellStats.cellTable _)) {
        val df = table(p.trainDf, 10, false)
        df.collect()
        assert(shuffles(df.queryExecution.executedPlan) == 1, s"$name $what")
      }
      Seq(p.trainDf, p.trips).foreach(_.unpersist())
    }
  }

  test("1, 8 and 64 shuffle partitions: the same graph arrays and HABIT paths") {
    val raw  = Datasets.sar(spark, 20, 8).cache()
    val conf = "spark.sql.shuffle.partitions"
    val before = spark.conf.get(conf)
    val Res = 10
    def run(partitions: Int) = {
      spark.conf.set(conf, partitions.toLong)
      try {
        val p = Prep.prepare("SAR", raw)
        val g = MotionGraph.build(p.trainDf, Res)
        val habit = new Habit(g, HabitConfig(Res, 100.0))
        val gaps = for (sec <- Seq(3600L, 7200L); seed <- 1L to 5L; gap <- p.gaps(sec, seed)) yield gap
        val paths = gaps.map(gap => habit.impute(gap.from, gap.to))
        Seq(p.trainDf, p.trips).foreach(_.unpersist())
        val arrays = Seq(g.ids.toSeq, g.medLat.toSeq, g.medLon.toSeq, g.cnt.toSeq, g.vessels.toSeq,
                         g.off.toSeq, g.tgt.toSeq, g.transitions.toSeq, g.dist.toSeq)
        (arrays, gaps.size, paths)
      } finally spark.conf.set(conf, before)
    }
    val one = run(1)
    assert(one._2 > 20 && one._1.head.nonEmpty, s"${one._2} gaps")
    for (n <- Seq(8, 64)) {
      val other = run(n)
      assert(other._1 == one._1, s"graph arrays at $n partitions")
      assert(other._2 == one._2, s"gap count at $n partitions")
      val differ = one._3.indices.count(i => one._3(i) != other._3(i))
      assert(differ == 0, s"$differ of ${one._2} paths differ at $n partitions")
    }
    raw.unpersist()
  }

  test("snapping takes the smallest id among nearest nodes tied across columns") {
    // Six nodes on one ring around `far`, in different axial columns: all
    // tie on hex distance, near (radius 3) and farther out (radius 17).
    val far = HexGrid.latLngToCell(repro.geo.LatLng(54.5, 11.0), 9)
    for (k <- Seq(3, 17)) {
      val ring = Rings.ring(far, k).take(6)
      val g = MotionGraph(9, ring.map(c => GraphNode(c, 0.0, 0.0, 1, 1)), Nil)
      assert(g.nearestNode(far) == Some(ring.min), s"radius $k")
    }
  }
}
