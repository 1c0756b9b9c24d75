package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession, functions => F}
import repro.eval.{Gap, GapHarness, TimedPoint}
import repro.preprocess.{Cleaner, TripSegmenter}

/** Experiment preparation shared by [[Tables]], the bench suites and the
  * benchmark runner: dataset generation → cleaning → segmentation → 70/30
  * split → gap extraction, all deterministic.
  */
object Prep {

  /** A dataset prepared for evaluation. */
  final case class Prepared(name: String, raw: DataFrame, cleaned: DataFrame, trips: DataFrame) {
    lazy val collected: Map[Long, IndexedSeq[TimedPoint]] = GapHarness.collectTrips(trips)
    lazy val split: (Set[Long], Set[Long])                = GapHarness.split(collected.keys.toSeq)
    def trainIds: Set[Long] = split._1
    def testIds: Set[Long]  = split._2
    lazy val trainDf: DataFrame =
      trips.filter(F.col("trip_id").isin(trainIds.toSeq: _*)).cache()
    def gaps(gapSec: Long, seed: Long = 7): IndexedSeq[Gap] =
      GapHarness.gapsFor(collected, testIds, gapSec, seed)
    /** GTI training input: ordered point paths of the training trips. */
    def gtiPaths: Seq[IndexedSeq[repro.geo.LatLng]] =
      GapHarness.trainPaths(collected, trainIds)
    /** Raw size in MB, estimated as the CSV footprint of the raw feed. */
    lazy val rawSizeMb: Double = {
      val bytes = raw.select(F.sum(F.length(F.concat_ws(",",
        raw.columns.map(F.col).toIndexedSeq: _*)) + F.lit(1L))).collect()(0).getLong(0)
      bytes / 1e6
    }
  }

  /** Clean and segment `raw`. Only the trips are cached: they keep the
    * one vessel_id shuffle of [[Cleaner.clean]], which every later window
    * and aggregate input of the build reuses.
    */
  def prepare(name: String, raw: DataFrame): Prepared = {
    val cleaned = Cleaner.clean(raw)
    val trips   = TripSegmenter.segment(cleaned).cache()
    Prepared(name, raw, cleaned, trips)
  }

  /** Bench-scale analogues of the paper's three datasets (Table 1 sizes
    * scaled ~10–20x down; see EXPERIMENTS.md).
    */
  def dan(spark: SparkSession): Prepared =
    prepare("DAN", repro.ais.Datasets.dan(spark, 160).cache())
  def kiel(spark: SparkSession): Prepared =
    prepare("KIEL", repro.ais.Datasets.kiel(spark, 60).cache())
  def sar(spark: SparkSession): Prepared =
    prepare("SAR", repro.ais.Datasets.sar(spark, 400, 120).cache())

  /** The local SparkSession of every entry point and test run. */
  def session(app: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .getOrCreate()

  def fmt(d: Double): String = f"$d%.2f"

  def printTable(title: String, header: Seq[String], rows: Seq[Seq[String]]): Unit = {
    println(s"\n=== $title ===")
    println(header.mkString("| ", " | ", " |"))
    println(header.map(_ => "---").mkString("| ", " | ", " |"))
    rows.foreach(r => println(r.mkString("| ", " | ", " |")))
  }
}
