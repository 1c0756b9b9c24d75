package repro.geo

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class GeoSpec extends AnyFunSuite {
  private val tol = 1e-6

  test("haversine: zero distance for identical points") {
    assert(Geo.haversineM(LatLng(55.0, 12.0), LatLng(55.0, 12.0)) === 0.0)
  }

  test("haversine: one degree of latitude is ~111.2 km") {
    val d = Geo.haversineM(LatLng(55.0, 12.0), LatLng(56.0, 12.0))
    assert(math.abs(d - 111195) < 300, s"got $d")
  }

  test("haversine: one degree of longitude at 60N is ~55.6 km") {
    val d = Geo.haversineM(LatLng(60.0, 12.0), LatLng(60.0, 13.0))
    assert(math.abs(d - 55597) < 300, s"got $d")
  }

  test("haversine: symmetric") {
    val a = LatLng(54.3, 10.1); val b = LatLng(57.7, 11.97)
    assert(math.abs(Geo.haversineM(a, b) - Geo.haversineM(b, a)) < tol)
  }

  test("haversine: Kiel to Gothenburg is roughly 390 km") {
    val d = Geo.haversineM(LatLng(54.32, 10.14), LatLng(57.70, 11.97))
    assert(d > 350000 && d < 420000, s"got $d")
  }

  test("haversine: triangle inequality on random triples") {
    val rnd = new Random(1)
    for (_ <- 1 to 200) {
      def p() = LatLng(rnd.nextDouble() * 120 - 60, rnd.nextDouble() * 300 - 150)
      val (a, b, c) = (p(), p(), p())
      assert(Geo.haversineM(a, c) <= Geo.haversineM(a, b) + Geo.haversineM(b, c) + 1e-6)
    }
  }

  test("bearing: due north is 0") {
    assert(math.abs(Geo.bearingDeg(LatLng(55, 12), LatLng(56, 12))) < 0.01)
  }

  test("bearing: due east is ~90") {
    assert(math.abs(Geo.bearingDeg(LatLng(0, 12), LatLng(0, 13)) - 90.0) < 0.01)
  }

  test("bearing: due south is 180") {
    assert(math.abs(Geo.bearingDeg(LatLng(56, 12), LatLng(55, 12)) - 180.0) < 0.01)
  }

  test("bearing: due west is ~270") {
    assert(math.abs(Geo.bearingDeg(LatLng(0, 13), LatLng(0, 12)) - 270.0) < 0.01)
  }

  test("bearing: always in [0, 360)") {
    val rnd = new Random(2)
    for (_ <- 1 to 200) {
      def p() = LatLng(rnd.nextDouble() * 120 - 60, rnd.nextDouble() * 300 - 150)
      val b = Geo.bearingDeg(p(), p())
      assert(b >= 0.0 && b < 360.0)
    }
  }

  test("destination: distance and direction are honored") {
    val rnd = new Random(3)
    for (_ <- 1 to 100) {
      val a  = LatLng(rnd.nextDouble() * 100 - 50, rnd.nextDouble() * 300 - 150)
      val br = rnd.nextDouble() * 360
      val d  = rnd.nextDouble() * 50000
      val b  = Geo.destination(a, br, d)
      assert(math.abs(Geo.haversineM(a, b) - d) < math.max(1.0, d * 1e-6))
    }
  }

  test("destination: roundtrip via computed bearing") {
    val a = LatLng(55.0, 12.0)
    val b = Geo.destination(a, 47.0, 25000)
    assert(math.abs(Geo.bearingDeg(a, b) - 47.0) < 0.3)
  }

  test("destination: zero distance is identity") {
    val a = LatLng(37.9, 23.6)
    val b = Geo.destination(a, 123.0, 0.0)
    assert(Geo.haversineM(a, b) < 1e-6)
  }

  test("interpolate: endpoints at f=0 and f=1") {
    val a = LatLng(55, 12); val b = LatLng(56, 13)
    assert(Geo.interpolate(a, b, 0.0) == a)
    assert(Geo.interpolate(a, b, 1.0) == b)
  }

  test("interpolate: midpoint is halfway") {
    val m = Geo.interpolate(LatLng(55, 12), LatLng(56, 13), 0.5)
    assert(m.lat === 55.5 && m.lon === 12.5)
  }

  test("pointSegmentDist: point on segment is 0") {
    val a = LatLng(55, 12); val b = LatLng(55, 13)
    assert(Geo.pointSegmentDistM(LatLng(55, 12.5), a, b) < 1.0)
  }

  test("pointSegmentDist: perpendicular offset is recovered") {
    val a = LatLng(0, 12); val b = LatLng(0, 13)
    val p = LatLng(0.01, 12.5) // ~1112 m north of the segment
    val d = Geo.pointSegmentDistM(p, a, b)
    assert(math.abs(d - 1112.0) < 15, s"got $d")
  }

  test("pointSegmentDist: beyond endpoint clamps to endpoint distance") {
    val a = LatLng(0, 12); val b = LatLng(0, 13)
    val p = LatLng(0, 14)
    assert(math.abs(Geo.pointSegmentDistM(p, a, b) - Geo.haversineM(p, b)) < 5.0)
  }

  test("pointSegmentDist: degenerate segment equals point distance") {
    val a = LatLng(55, 12)
    val p = LatLng(55.01, 12)
    assert(math.abs(Geo.pointSegmentDistM(p, a, a) - Geo.haversineM(p, a)) < 2.0)
  }

  test("pathLength: empty and single-point paths are 0") {
    assert(Geo.pathLengthM(Seq.empty) === 0.0)
    assert(Geo.pathLengthM(Seq(LatLng(55, 12))) === 0.0)
  }

  test("pathLength: sums segment lengths") {
    val p = Seq(LatLng(55, 12), LatLng(56, 12), LatLng(57, 12))
    val d = Geo.pathLengthM(p)
    assert(math.abs(d - 2 * 111195) < 600)
  }

  test("densify: respects the max-gap bound") {
    val p = Seq(LatLng(55, 12), LatLng(56, 12))
    val d = Geo.densify(p, 250.0)
    d.sliding(2).foreach { case Seq(a, b) => assert(Geo.haversineM(a, b) <= 251.0) }
  }

  test("densify: preserves endpoints") {
    val p = Seq(LatLng(55, 12), LatLng(55.5, 12.6), LatLng(56, 12))
    val d = Geo.densify(p, 500.0)
    assert(d.head == p.head && d.last == p.last)
  }

  test("densify: path already dense is unchanged in length") {
    val p = Seq(LatLng(55, 12), LatLng(55.0001, 12))
    assert(Geo.densify(p, 250.0).size == 2)
  }

  test("densify: total length is preserved") {
    val p = Seq(LatLng(55, 12), LatLng(55.7, 12.9), LatLng(56.2, 12.1))
    assert(math.abs(Geo.pathLengthM(p) - Geo.pathLengthM(Geo.densify(p, 200.0))) < 20.0)
  }

  test("densify: rejects non-positive gap") {
    intercept[IllegalArgumentException](Geo.densify(Seq(LatLng(0, 0), LatLng(1, 1)), 0.0))
  }

  test("densify: bit-identical to the reference on random paths and generator lanes") {
    def bits(p: Seq[LatLng]): Seq[(Long, Long)] =
      p.map(q => (java.lang.Double.doubleToRawLongBits(q.lat), java.lang.Double.doubleToRawLongBits(q.lon)))
    val rnd = new Random(7)
    val random = Seq.fill(200) {
      val n = rnd.nextInt(12)
      (List.fill(n)(LatLng(54 + rnd.nextDouble() * 3, 10 + rnd.nextDouble() * 3)), 50.0 + rnd.nextDouble() * 5000)
    }
    val lanes = (repro.ais.Datasets.danSpecs(20) ++ repro.ais.Datasets.sarSpecs(20, 8)).map(spec =>
      (spec.wpts.grouped(2).map(a => LatLng(a(0), a(1))).toSeq, 100.0))
    for ((p, gap) <- random ++ lanes; (in: Seq[LatLng]) <- Seq(p, p.toVector))
      assert(bits(Geo.densify(in, gap)) == bits(ReferenceGeo.densify(in, gap)), s"$gap m: $in")
  }

  test("turnAngles: straight path has ~zero turns") {
    val p = Seq(LatLng(0, 12), LatLng(0, 12.5), LatLng(0, 13))
    assert(Geo.turnAnglesDeg(p).forall(_ < 0.01))
  }

  test("turnAngles: right angle detected") {
    val p = Seq(LatLng(0, 12), LatLng(0, 12.5), LatLng(0.5, 12.5))
    val t = Geo.turnAnglesDeg(p)
    assert(t.size == 1 && math.abs(t.head - 90.0) < 1.0, s"got $t")
  }

  test("turnAngles: reflex turns measured as <= 180") {
    val p = Seq(LatLng(0, 12), LatLng(0, 12.5), LatLng(0, 12.0))
    val t = Geo.turnAnglesDeg(p)
    assert(t.head > 179.0 && t.head <= 180.0)
  }

  test("turnAngles: fewer than 3 points yields none") {
    assert(Geo.turnAnglesDeg(Seq(LatLng(0, 0), LatLng(1, 1))).isEmpty)
  }

  test("turnStats: counts positions and >45 turns") {
    val p = Seq(LatLng(0, 12), LatLng(0, 12.5), LatLng(0.5, 12.5), LatLng(0.5, 13.0))
    val s = Geo.turnStats(p)
    assert(s.cnt == 4)
    assert(s.over45 == 2)
    assert(s.maxRot > 89.0 && s.maxRot < 91.0)
    assert(s.avgRot > 0.0)
  }

  test("turnStats: degenerate path") {
    val s = Geo.turnStats(Seq(LatLng(0, 0)))
    assert(s.cnt == 1 && s.avgRot == 0.0 && s.maxRot == 0.0 && s.over45 == 0)
  }
}
