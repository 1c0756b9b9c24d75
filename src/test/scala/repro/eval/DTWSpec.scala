package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import repro.geo.{Geo, LatLng}

class DTWSpec extends AnyFunSuite {

  private def line(n: Int, lat: Double = 55.0): IndexedSeq[LatLng] =
    (0 until n).map(i => LatLng(lat, 11.0 + i * 0.002))

  test("identical paths have zero cost") {
    assert(DTW.cost(line(20), line(20)) === 0.0)
    assert(DTW.normalized(line(20), line(20)) === 0.0)
  }

  test("normalized DTW of a uniformly offset path equals the offset") {
    val a = line(50)
    val b = a.map(p => Geo.destination(p, 0.0, 500.0))
    val e = DTW.normalized(a, b)
    assert(math.abs(e - 500.0) < 25.0, s"got $e")
  }

  test("DTW is symmetric") {
    val a = line(30)
    val b = line(40, lat = 55.01)
    assert(math.abs(DTW.cost(a, b) - DTW.cost(b, a)) < 1e-6)
  }

  test("larger offsets give larger errors") {
    val a = line(40)
    val errs = Seq(100.0, 500.0, 2000.0).map(off =>
      DTW.normalized(a, a.map(p => Geo.destination(p, 0.0, off))))
    assert(errs.zip(errs.tail).forall { case (x, y) => x < y })
  }

  test("pathErrorM neutralizes sampling-rate differences (the 250 m protocol)") {
    // Raw DTW between the same path at 100 m vs 2000 m sampling is large;
    // after the protocol's densification to 250 m it is negligible.
    val dense  = Geo.densify(Seq(LatLng(55, 11), LatLng(55.4, 11.5)), 100.0).toIndexedSeq
    val sparse = Geo.densify(Seq(LatLng(55, 11), LatLng(55.4, 11.5)), 2000.0).toIndexedSeq
    assert(DTW.normalized(dense, sparse) > 100.0)
    // Residual phase offset between samplings is bounded by half the
    // densification step (125 m).
    assert(DTW.pathErrorM(dense, sparse) < 125.0)
  }

  test("pathErrorM densifies both sides to 250 m before aligning") {
    // Two-point straight paths, one shifted: the error should reflect the
    // continuous segments, not just the endpoints.
    val a = Seq(LatLng(55.0, 11.0), LatLng(55.0, 11.5))
    val b = Seq(LatLng(55.01, 11.0), LatLng(55.01, 11.5))
    val e = DTW.pathErrorM(a, b)
    assert(math.abs(e - 1112.0) < 80.0, s"got $e")
  }

  test("empty paths are rejected") {
    intercept[IllegalArgumentException](DTW.cost(IndexedSeq.empty, line(3)))
  }

  test("single-point vs path aligns every point to it") {
    val single = IndexedSeq(LatLng(55.0, 11.0))
    val e = DTW.cost(single, line(10))
    assert(e > 0)
  }

  test("a straight-line cut across a curved path scores the corner error") {
    val curved = Geo.densify(
      Seq(LatLng(55.0, 11.0), LatLng(55.3, 11.4), LatLng(55.0, 11.8)), 250.0).toIndexedSeq
    val cut = Geo.densify(Seq(LatLng(55.0, 11.0), LatLng(55.0, 11.8)), 250.0).toIndexedSeq
    val e = DTW.normalized(curved, cut)
    // The corner sits ~33 km north of the cut; mean error is a large fraction.
    assert(e > 5000.0, s"got $e")
  }

  /** The n x m matrix DTW that the rolling-row `DTW` replaced: (cost, length). */
  private def matrixAlign(a: IndexedSeq[LatLng], b: IndexedSeq[LatLng]): (Double, Int) = {
    val n = a.size; val m = b.size
    val cost = Array.fill(n + 1, m + 1)(Double.PositiveInfinity)
    val len  = Array.fill(n + 1, m + 1)(0)
    cost(0)(0) = 0.0
    for (i <- 1 to n; j <- 1 to m) {
      val d = Geo.haversineM(a(i - 1), b(j - 1))
      val c1 = cost(i - 1)(j); val c2 = cost(i)(j - 1); val c3 = cost(i - 1)(j - 1)
      val (pc, pl) =
        if (c3 <= c1 && c3 <= c2) (c3, len(i - 1)(j - 1))
        else if (c1 <= c2) (c1, len(i - 1)(j))
        else (c2, len(i)(j - 1))
      cost(i)(j) = d + pc
      len(i)(j) = pl + 1
    }
    (cost(n)(m), len(n)(m))
  }

  test("rolling rows give the matrix DTW's scores bit for bit") {
    val rnd = new scala.util.Random(21)
    def walk(n: Int) = IndexedSeq.iterate(LatLng(55 + rnd.nextDouble(), 11 + rnd.nextDouble()), n)(p =>
      LatLng(p.lat + rnd.nextGaussian() * 0.003, p.lon + rnd.nextGaussian() * 0.003))
    // Equal-distance lattices make the diagonal/up/left ties common.
    val ties = Seq((line(12), line(12, 55.001)), (line(7), line(19)), (line(1), line(5)))
    for ((a, b) <- ties ++ Seq.fill(60)((walk(1 + rnd.nextInt(40)), walk(1 + rnd.nextInt(40))))) {
      val (c, steps) = matrixAlign(a, b)
      assert(DTW.cost(a, b) == c)
      assert(DTW.normalized(a, b) == c / steps)
    }
  }
}
