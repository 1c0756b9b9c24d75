package repro.exp

import repro.baselines.{GTI, SLI}
import repro.core.{Habit, HabitConfig, MotionGraph}
import repro.eval.{EvalResult, GapHarness}
import repro.exp.Prep.{Prepared, fmt}
import repro.geo.{Geo, LatLng}

/** The paper's evaluation (§4): one function per table, returning numeric
  * rows. The bench suites print them beside the paper's values and assert
  * their shapes; [[Tables.main]] prints them on their own.
  */
object Tables {

  final case class DatasetRow(dataset: String, sizeMb: Double, positions: Long,
                              trips: Long, ships: Long) {
    def cells: Seq[String] =
      Seq(dataset, fmt(sizeMb), positions.toString, trips.toString, ships.toString)
  }

  final case class StorageRow(method: String, config: String, kielMb: Double, sarMb: Double) {
    def cells: Seq[String] = Seq(method, config, fmt(kielMb), fmt(sarMb))
  }

  /** Mean turn statistics over a set of paths (the Table 3 columns). */
  final case class TurnMeans(cnt: Double, avgRot: Double, maxRot: Double, over45: Double) {
    def cells: Seq[String] = Seq(cnt, avgRot, maxRot, over45).map(fmt)
  }
  final case class SimplificationRow(r: Int, t: Int, turns: TurnMeans) {
    def cells: Seq[String] = Seq(r.toString, t.toString) ++ turns.cells
  }
  final case class Simplification(rows: Seq[SimplificationRow], original: TurnMeans)

  final case class LatencyRow(dataset: String, method: String, config: String, result: EvalResult) {
    def cells: Seq[String] =
      Seq(dataset, method, config) ++
        Seq(result.avgLatency, result.p50Latency, result.p99Latency, result.maxLatency).map(s => f"$s%.4f") ++
        Seq(fmt(result.meanDtw), fmt(result.medianDtw), f"${result.dtwCells / 1e6}%.2f",
            f"${result.planarCells / 1e6}%.2f")
  }

  /** Median DTW of HABIT (r=9, t=100) for one gap duration; None when the
    * test split has no trip long enough for that gap.
    */
  final case class GapDurationRow(gapSec: Long, medianDtw: Option[Double])

  /** Table 1: dataset characteristics after cleaning and segmentation. */
  def table1(sets: Seq[Prepared]): Seq[DatasetRow] = sets.map { p =>
    DatasetRow(p.name, p.rawSizeMb, p.cleaned.count(),
               p.trips.select("trip_id").distinct().count(),
               p.trips.select("vessel_id").distinct().count())
  }

  /** Table 2: framework storage size, HABIT r = 6..10 and GTI (rm = 500 m). */
  def table2(kiel: Prepared, sar: Prepared): Seq[StorageRow] = {
    def mb(p: Prepared, r: Int) = MotionGraph.build(p.trainDf, r).serializedSizeBytes / 1e6
    def gtiMb(p: Prepared, rd: Double) =
      GTI.build(p.gtiPaths, rmM = 500, rdDeg = rd).serializedSizeBytes / 1e6
    (6 to 10).map(r => StorageRow("HABIT", s"r = $r", mb(kiel, r), mb(sar, r))) ++
      Seq(1e-4, 5e-4, 1e-3).map(rd =>
        StorageRow("GTI", s"rd = $rd", gtiMb(kiel, rd), gtiMb(sar, rd)))
  }

  /** Table 3: RDP tolerance t against the turn statistics of HABIT's
    * imputed paths on DAN's 60-min gaps, plus the withheld originals.
    */
  def table3(dan: Prepared): Simplification = {
    val gaps = dan.gaps(3600)
    require(gaps.nonEmpty, "no eligible 60-min gaps in the DAN test split")
    val rows = for {
      r <- Seq(9, 10)
      graph = MotionGraph.build(dan.trainDf, r)
      t <- Seq(0, 100, 250, 500, 1000)
    } yield {
      val habit = new Habit(graph, HabitConfig(res = r, toleranceM = t))
      SimplificationRow(r, t, turnMeans(gaps.map(g => habit.impute(g.from, g.to))))
    }
    Simplification(rows, turnMeans(gaps.map(_.truth)))
  }

  private def turnMeans(paths: Seq[Seq[LatLng]]): TurnMeans = {
    val stats = paths.map(Geo.turnStats)
    TurnMeans(stats.map(_.cnt.toDouble).sum / stats.size,
              stats.map(_.avgRot).sum / stats.size,
              stats.map(_.maxRot).sum / stats.size,
              stats.map(_.over45.toDouble).sum / stats.size)
  }

  /** Table 4: query latency and DTW accuracy (Figure 5) of HABIT, GTI and
    * SLI over the same 60-min gaps on KIEL and SAR. Each gap is timed as
    * the median of three calls, after an untimed warm-up pass; each path is
    * DTW-scored once.
    */
  def table4(kiel: Prepared, sar: Prepared): Seq[LatencyRow] =
    latency(kiel, Seq(250 -> "1e-4", 250 -> "5e-4", 250 -> "1e-3")) ++
      latency(sar, Seq(250 -> "1e-4", 250 -> "5e-4", 500 -> "1e-3"))

  private def latency(p: Prepared, gtiConfigs: Seq[(Int, String)]): Seq[LatencyRow] = {
    val gaps = p.gaps(3600)
    def row(method: String, config: String, impute: (LatLng, LatLng) => Seq[LatLng]) = {
      GapHarness.impute(impute, gaps) // JIT warm-up pass, untimed
      // A gap's latency is the median of three timed calls, one per pass,
      // so one slow call does not move a row's average. The paths are the
      // same on every pass, so they are scored once.
      val passes = IndexedSeq.fill(3)(GapHarness.impute(impute, gaps))
      val latencies = gaps.indices.map(i => passes.map(_._2(i)).sorted.apply(1))
      LatencyRow(p.name, method, config, GapHarness.scored(passes.head._1, latencies, gaps))
    }
    val graphs = Seq(9, 10).map(r => r -> MotionGraph.build(p.trainDf, r)).toMap
    val habit = for ((r, t) <- Seq((9, 100), (9, 250), (10, 100), (10, 250))) yield
      row("HABIT", s"r=$r t=$t", new Habit(graphs(r), HabitConfig(res = r, toleranceM = t)).impute)
    val paths = p.gtiPaths
    val gti = for ((rm, rd) <- gtiConfigs) yield
      row("GTI", s"rm=$rm rd=$rd", GTI.build(paths, rmM = rm, rdDeg = rd.toDouble).impute)
    habit ++ gti :+ row("SLI", "-", SLI.impute)
  }

  /** Figure 7 companion: HABIT's median DTW on KIEL for 1, 2 and 4 h gaps. */
  def figure7(kiel: Prepared): Seq[GapDurationRow] = {
    val graph = MotionGraph.build(kiel.trainDf, 9)
    val habit = new Habit(graph, HabitConfig(res = 9, toleranceM = 100))
    Seq(3600L, 7200L, 14400L).map { d =>
      val gaps = kiel.gaps(d)
      GapDurationRow(d,
        if (gaps.isEmpty) None else Some(GapHarness.evaluate(habit.impute, gaps).medianDtw))
    }
  }

  /** Prints the tables named by the arguments (1, 2, 3, 4 and 7 for the
    * Figure 7 companion), all of them when there is none.
    * Usage: `sbt "runMain repro.exp.Tables 4"`.
    */
  def main(args: Array[String]): Unit = {
    val all   = Seq("1", "2", "3", "4", "7")
    val which = if (args.isEmpty) all else args.toSeq
    require(which.forall(all.contains), s"tables are ${all.mkString(" ")}; got ${args.mkString(" ")}")
    val spark = Prep.session("tables")
    lazy val dan  = Prep.dan(spark)
    lazy val kiel = Prep.kiel(spark)
    lazy val sar  = Prep.sar(spark)
    which.foreach {
      case "1" =>
        Prep.printTable("Table 1: AIS dataset characteristics",
          Seq("Dataset", "Size MB", "Positions", "Trips", "Ships"),
          table1(Seq(dan, kiel, sar)).map(_.cells))
      case "2" =>
        Prep.printTable("Table 2: framework storage size (MB)",
          Seq("Method", "Configuration", "KIEL", "SAR"), table2(kiel, sar).map(_.cells))
      case "3" =>
        val t3 = table3(dan)
        Prep.printTable("Table 3: simplification effect on imputed paths [DAN]",
          Seq("r", "t", "cnt", "Avg rot", "Max rot", ">45"),
          t3.rows.map(_.cells) :+ (Seq("Original", "-") ++ t3.original.cells))
      case "4" =>
        Prep.printTable("Table 4: query latency (s) + DTW accuracy",
          Seq("Dataset", "Method", "Config", "Avg s", "p50 s", "p99 s", "Max s", "mean DTW", "med DTW",
              "DTW Mcells", "planar Mcells"),
          table4(kiel, sar).map(_.cells))
      case "7" =>
        Prep.printTable("Figure 7: HABIT median DTW by gap duration [KIEL, r=9 t=100]",
          Seq("Gap h", "median DTW m"),
          figure7(kiel).map(g => Seq((g.gapSec / 3600).toString, g.medianDtw.fold("n/a")(fmt))))
    }
    spark.stop()
  }
}
