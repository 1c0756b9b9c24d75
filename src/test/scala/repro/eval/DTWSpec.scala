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

  test("rolling rows give the matrix DTW's scores bit for bit") {
    val rnd = new scala.util.Random(21)
    def walk(n: Int) = IndexedSeq.iterate(LatLng(55 + rnd.nextDouble(), 11 + rnd.nextDouble()), n)(p =>
      LatLng(p.lat + rnd.nextGaussian() * 0.003, p.lon + rnd.nextGaussian() * 0.003))
    val walks = Seq.fill(60)((walk(1 + rnd.nextInt(40)), walk(1 + rnd.nextInt(40))))
    // Equal-distance lattices make the diagonal/up/left ties common.
    val ties = Seq((line(12), line(12, 55.001)), (line(7), line(19)), (line(1), line(5)),
                   (line(5), line(23, 55.001)), (line(31), line(8)), (line(17), line(16, 55.002)))
    // The pruning bound is loose, or a row's window reaches the matrix edge.
    val w = walk(60)
    val straight = Geo.densify(Seq(LatLng(55.0, 11.0), LatLng(55.0, 11.6)), 250.0).toIndexedSeq
    val detour = Geo.densify(Seq(LatLng(55.0, 11.0), LatLng(55.5, 11.1), LatLng(55.6, 11.5),
                                 LatLng(55.0, 11.6)), 250.0).toIndexedSeq
    val loose = Seq((w, w.reverse), (w, w), (w, w.map(p => Geo.destination(p, 0.0, 100000.0))),
                    (IndexedSeq(w(30)), w), (IndexedSeq(w(0)), IndexedSeq(w(59))), (straight, detour))
    // Short paths over a coarse lattice revisit positions, which puts cells
    // above the bound on both sides of a window: about 1 pair in 4,000
    // reads a stale rolling-row entry if a window's right end is not reset.
    def coarse() = {
      val step = if (rnd.nextBoolean()) 0.001 else 0.1
      IndexedSeq.fill(2 + rnd.nextInt(7))(LatLng(55.0 + rnd.nextInt(5) * step, 11.0 + rnd.nextInt(5) * step))
    }
    val lattice = Seq.fill(30000)((coarse(), coarse()))
    for ((a, b) <- walks ++ ties ++ loose ++ lattice; (x, y) <- Seq((a, b), (b, a))) {
      val (c, steps) = ReferenceDTW.align(x, y)
      assert(DTW.cost(x, y) == c, s"$x, $y")
      assert(DTW.normalized(x, y) == c / steps, s"$x, $y")
    }
  }

  test("non-finite or out-of-range coordinates are rejected") {
    val ok = line(5)
    val bad = Seq(LatLng(Double.NaN, 11.0), LatLng(55.0, Double.NaN), LatLng(91.0, 11.0),
                  LatLng(-90.5, 11.0), LatLng(Double.PositiveInfinity, 11.0),
                  LatLng(55.0, Double.NegativeInfinity))
    for (p <- bad; k <- Seq(0, 2, 4)) {
      val path = ok.updated(k, p)
      val e = intercept[IllegalArgumentException](DTW.cost(path, ok))
      assert(e.getMessage.contains(p.toString), e.getMessage)
      intercept[IllegalArgumentException](DTW.cost(ok, path))
      intercept[IllegalArgumentException](DTW.pathErrorM(path, ok))
    }
    // The poles and far longitudes are in range.
    assert(DTW.cost(IndexedSeq(LatLng(90.0, 0.0), LatLng(-90.0, 540.0)), ok) > 0.0)
  }
}
