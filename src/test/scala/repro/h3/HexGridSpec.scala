package repro.h3

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.geo.{Geo, LatLng}
import scala.util.Random

class HexGridSpec extends AnyFunSuite with SparkSpec {

  test("edgeM matches H3 published averages within 2%") {
    // H3 average edge lengths (meters) for res 6..10.
    val h3 = Map(6 -> 3724.6, 7 -> 1406.5, 8 -> 531.4, 9 -> 200.8, 10 -> 75.9)
    for ((r, e) <- h3) {
      val got = HexGrid.edgeM(r)
      assert(math.abs(got - e) / e < 0.02, s"res $r: got $got expected $e")
    }
  }

  test("edgeM follows aperture-7 scaling") {
    for (r <- 1 to 12)
      assert(math.abs(HexGrid.edgeM(r - 1) / HexGrid.edgeM(r) - math.sqrt(7.0)) < 1e-9)
  }

  test("edgeM rejects out-of-range resolutions") {
    intercept[IllegalArgumentException](HexGrid.edgeM(-1))
    intercept[IllegalArgumentException](HexGrid.edgeM(16))
  }

  test("encode/decode roundtrip") {
    val rnd = new Random(11)
    for (_ <- 1 to 500) {
      val res = rnd.nextInt(16)
      val q   = rnd.nextInt(2000000) - 1000000
      val r   = rnd.nextInt(2000000) - 1000000
      val c   = HexGrid.encode(res, q, r)
      assert(HexGrid.resolution(c) == res)
      assert(HexGrid.axialQ(c) == q)
      assert(HexGrid.axialR(c) == r)
    }
  }

  test("encode rejects coordinate overflow") {
    intercept[IllegalArgumentException](HexGrid.encode(9, 1 << 23, 0))
  }

  test("latLngToCell rejects non-finite and out-of-range positions, naming them") {
    val rnd = new Random(16)
    def coord(limit: Double): Double = rnd.nextInt(6) match {
      case 0 => Double.NaN
      case 1 => Double.PositiveInfinity
      case 2 => Double.NegativeInfinity
      case 3 => limit + 1e-9 + rnd.nextDouble() * 1000
      case 4 => -limit - 1e-9 - rnd.nextDouble() * 1000
      case _ => (rnd.nextDouble() * 2 - 1) * limit
    }
    for (_ <- 1 to 500) {
      val p   = LatLng(coord(90.0), coord(180.0))
      val res = rnd.nextInt(16)
      val bad = !(math.abs(p.lat) <= 90.0 && math.abs(p.lon) <= 180.0)
      if (bad) {
        val e = intercept[IllegalArgumentException](HexGrid.latLngToCell(p, res))
        assert(e.getMessage.contains(p.toString), e.getMessage)
      } else if (res <= 10) assert(HexGrid.resolution(HexGrid.latLngToCell(p, res)) == res)
    }
    // The range's own edges are accepted.
    for (lat <- Seq(-90.0, 90.0); lon <- Seq(-180.0, 180.0))
      assert(HexGrid.resolution(HexGrid.latLngToCell(LatLng(lat, lon), 6)) == 6)
  }

  test("project/unproject roundtrip") {
    val rnd = new Random(12)
    for (_ <- 1 to 200) {
      val p = LatLng(rnd.nextDouble() * 160 - 80, rnd.nextDouble() * 340 - 170)
      val (x, y) = HexGrid.project(p)
      val q = HexGrid.unproject(x, y)
      assert(math.abs(q.lat - p.lat) < 1e-9 && math.abs(q.lon - p.lon) < 1e-9)
    }
  }

  test("cell center is within circumradius of any contained point") {
    val rnd = new Random(13)
    for (res <- 6 to 10; _ <- 1 to 100) {
      val p = LatLng(35 + rnd.nextDouble() * 25, 5 + rnd.nextDouble() * 20)
      val c = HexGrid.latLngToCell(p, res)
      val d = Geo.haversineM(p, HexGrid.cellCenter(c))
      // Circumradius = edge length; sinusoidal shear can stretch slightly.
      assert(d <= HexGrid.edgeM(res) * 1.35, s"res $res: point $d m from center")
    }
  }

  test("cell assignment is stable: center maps back to the same cell") {
    val rnd = new Random(14)
    for (res <- 6 to 10; _ <- 1 to 100) {
      val p = LatLng(35 + rnd.nextDouble() * 25, 5 + rnd.nextDouble() * 20)
      val c = HexGrid.latLngToCell(p, res)
      assert(HexGrid.latLngToCell(HexGrid.cellCenter(c), res) == c)
    }
  }

  test("nearby points at the same resolution share or neighbor cells") {
    val p = LatLng(55.5, 11.5)
    val q = Geo.destination(p, 45.0, 10.0) // 10 m away
    val (cp, cq) = (HexGrid.latLngToCell(p, 9), HexGrid.latLngToCell(q, 9))
    assert(HexGrid.gridDistance(cp, cq) <= 1)
  }

  test("gridDistance: zero to itself, symmetric, triangle inequality") {
    val rnd = new Random(15)
    for (_ <- 1 to 200) {
      def cell() = HexGrid.latLngToCell(
        LatLng(50 + rnd.nextDouble() * 8, 8 + rnd.nextDouble() * 6), 8)
      val (a, b, c) = (cell(), cell(), cell())
      assert(HexGrid.gridDistance(a, a) == 0)
      assert(HexGrid.gridDistance(a, b) == HexGrid.gridDistance(b, a))
      assert(HexGrid.gridDistance(a, c) <=
        HexGrid.gridDistance(a, b) + HexGrid.gridDistance(b, c))
    }
  }

  test("gridDistance across resolutions is rejected") {
    val a = HexGrid.latLngToCell(LatLng(55, 11), 8)
    val b = HexGrid.latLngToCell(LatLng(55, 11), 9)
    intercept[IllegalArgumentException](HexGrid.gridDistance(a, b))
  }

  test("gridDistance scales with metric distance") {
    val a = LatLng(55.0, 11.0)
    for (res <- 7 to 10) {
      val b = Geo.destination(a, 90.0, 10000.0)
      val d = HexGrid.gridDistance(HexGrid.latLngToCell(a, res), HexGrid.latLngToCell(b, res))
      // 10 km should span roughly 10000 / (edge * sqrt(3)) cells (hex width).
      val expect = 10000.0 / (HexGrid.edgeM(res) * math.sqrt(3.0))
      assert(d >= expect * 0.5 && d <= expect * 2.0, s"res $res: $d cells vs ~$expect")
    }
  }

  test("ring(0) is the cell itself; ring(k) has 6k cells") {
    val c = HexGrid.latLngToCell(LatLng(55.5, 11.5), 8)
    assert(Rings.ring(c, 0) == Seq(c))
    for (k <- 1 to 5) {
      val ring = Rings.ring(c, k)
      assert(ring.size == 6 * k)
      assert(ring.distinct.size == ring.size)
      assert(ring.forall(x => HexGrid.gridDistance(c, x) == k))
    }
  }

  test("rings partition a disk: all cells within distance k appear once") {
    val c   = HexGrid.latLngToCell(LatLng(55.5, 11.5), 8)
    val all = (0 to 3).flatMap(Rings.ring(c, _))
    assert(all.distinct.size == all.size)
    assert(all.size == 1 + 6 + 12 + 18)
  }

  test("the cell column agrees with latLngToCell") {
    import org.apache.spark.sql.functions._
    import spark.implicits._
    val pts = Seq((55.5, 11.5), (55.6, 11.4), (54.3, 10.1)).toDF("lat", "lon")
    val got = pts.select(HexGrid.cellOf(col("lat"), col("lon"), lit(9)).as("c"))
      .collect().map(_.getLong(0))
    val exp = Seq(LatLng(55.5, 11.5), LatLng(55.6, 11.4), LatLng(54.3, 10.1))
      .map(HexGrid.latLngToCell(_, 9))
    assert(got.toSeq == exp)
  }

  test("distinct positions across a lane map to many distinct cells at high res") {
    val lane = Geo.densify(Seq(LatLng(54.32, 10.14), LatLng(55.0, 11.0)), 200.0)
    val cells = lane.map(HexGrid.latLngToCell(_, 9)).distinct
    assert(cells.size > lane.size / 4, s"${cells.size} cells for ${lane.size} points")
  }
}
