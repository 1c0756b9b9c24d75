package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.ais.Datasets
import repro.exp.Prep
import repro.geo.Geo

/** GTI's bucket-ring snap against a brute-force argmin over every training
  * point, on the gap endpoints of the KIEL and SAR analogues.
  */
class GTISnapSpec extends AnyFunSuite with SparkSpec {

  private def check(p: Prep.Prepared): Unit = {
    val gti = GTI.build(p.gtiPaths, rmM = 250, rdDeg = 5e-4)
    val ends = for (sec <- Seq(3600L, 7200L); seed <- 1L to 8L; gap <- p.gaps(sec, seed);
                    e <- Seq(gap.from, gap.to)) yield e
    assert(ends.size > 40, s"${p.name}: ${ends.size} endpoints")
    for (e <- ends) {
      val dist = (0 until gti.nodeCount).map(i => Geo.haversineM(e, gti.point(i)))
      val want = dist.indices.minBy(dist)
      val got = gti.nearestNode(e)
      assert(dist(got) == dist(want), s"${p.name} $e: ${dist(got)} m, nearest ${dist(want)} m")
      assert(got == want, s"${p.name} $e: point $got, least index among the nearest $want")
    }
  }

  test("KIEL: every gap endpoint snaps to the nearest training point") {
    check(Prep.prepare("KIEL", Datasets.kiel(spark, 10).cache()))
  }

  test("SAR: every gap endpoint snaps to the nearest training point") {
    check(Prep.prepare("SAR", Datasets.sar(spark, 40, 12).cache()))
  }
}
