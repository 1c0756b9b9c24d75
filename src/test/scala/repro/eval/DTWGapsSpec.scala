package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.ais.Datasets
import repro.baselines.{GTI, SLI}
import repro.core.{Habit, HabitConfig, MotionGraph}
import repro.exp.Prep
import repro.geo.{Geo, LatLng}

/** The pruned [[DTW]] against the full-matrix [[ReferenceDTW]] on real
  * gaps: every 60/120-min gap of gap seeds 1-5 on small KIEL and SAR sets,
  * scored for HABIT (r = 9, 10), GTI and SLI. SLI's straight lines, like
  * HABIT's straight-line fallbacks, are where the upper bound is loosest.
  * On the HABIT gaps the upper bound must also be tight: a bound that
  * silently loosens costs cells, not scores.
  */
class DTWGapsSpec extends AnyFunSuite with SparkSpec {

  private lazy val kiel = Prep.prepare("KIEL", Datasets.kiel(spark, 10).cache())
  private lazy val sar  = Prep.prepare("SAR", Datasets.sar(spark, 20, 8).cache())

  for (name <- Seq("KIEL", "SAR"))
    test(s"$name: pathErrorM equals the full-matrix DTW bit for bit on every gap and method") {
      val p = if (name == "KIEL") kiel else sar
      val gaps = for (sec <- Seq(3600L, 7200L); seed <- 1L to 5L; gap <- p.gaps(sec, seed)) yield gap
      assert(gaps.nonEmpty)
      val methods: Seq[(String, (LatLng, LatLng) => Seq[LatLng])] =
        Seq(9, 10).map(r => s"HABIT r=$r" ->
          (new Habit(MotionGraph.build(p.trainDf, r), HabitConfig(res = r)).impute _)) ++
        Seq("GTI" -> (GTI.build(p.gtiPaths, rmM = 250, rdDeg = 5e-4).impute _),
            "SLI" -> (SLI.impute _))
      for ((method, impute) <- methods; g <- gaps) {
        val path = impute(g.from, g.to)
        assert(DTW.pathErrorM(path, g.truth) == ReferenceDTW.pathErrorM(path, g.truth),
          s"$method, gap of trip ${g.tripId}")
      }
    }

  for (name <- Seq("KIEL", "SAR"))
    test(s"$name: the upper bound is within 1e-9 of the exact cost on at least 95 % of the HABIT gaps") {
      val p = if (name == "KIEL") kiel else sar
      val gaps = for (sec <- Seq(3600L, 7200L); seed <- 1L to 5L; gap <- p.gaps(sec, seed)) yield gap
      for (r <- Seq(9, 10)) {
        val habit = new Habit(MotionGraph.build(p.trainDf, r), HabitConfig(res = r))
        val tight = gaps.count { g =>
          val a = Geo.densify(habit.impute(g.from, g.to), DTW.DensifyM)
          val b = Geo.densify(g.truth, DTW.DensifyM)
          DTW.upperBound(a, b)._1 <= DTW.cost(a, b) * (1 + 1e-9)
        }
        assert(tight >= 0.95 * gaps.size, s"HABIT r=$r: the bound is tight on $tight of ${gaps.size} gaps")
      }
    }
}
