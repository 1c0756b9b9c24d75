package repro.geo

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** The imputers' endpoint filter against its definition, two full
  * haversines: vertices at and around 1 m from an endpoint and at the
  * latitude pre-test's threshold, offset in latitude, in longitude and in
  * both, at 0° and 70° latitude.
  */
class EndpointFilterSpec extends AnyFunSuite {

  private def reference(p: LatLng, from: LatLng, to: LatLng): Boolean =
    Geo.haversineM(p, from) > 1.0 && Geo.haversineM(p, to) > 1.0

  /** Offsets (dLat, dLon) in degrees from an endpoint at latitude `lat`. */
  private def offsets(lat: Double): Seq[(String, Double, Double)] = {
    val mLat = Geo.toDeg(1.0 / Geo.EarthRadiusM)          // degrees of latitude per metre
    val mLon = mLat / math.cos(Geo.toRad(lat))            // degrees of longitude per metre
    val t = Geo.ApartLatDeg
    val metres = for (d <- Seq(0.5, 1.0, 1.5); s <- Seq(-1.0, 1.0)) yield Seq(
      (s"$d m lat", s * d * mLat, 0.0),
      (s"$d m lon", 0.0, s * d * mLon),
      (s"$d m both", s * d * mLat / math.sqrt(2), s * d * mLon / math.sqrt(2)))
    val threshold = for (dt <- Seq(math.nextDown(t), t, math.nextUp(t)); s <- Seq(-1.0, 1.0)) yield Seq(
      (s"threshold $dt lat", s * dt, 0.0),
      (s"threshold $dt lon", 0.0, s * dt),
      (s"threshold $dt both", s * dt, s * dt),
      (s"threshold $dt lat, 0.5 m lon", s * dt, 0.5 * mLon))
    (metres ++ threshold).flatten :+ (("the endpoint itself", 0.0, 0.0))
  }

  test("the filter decides as two full haversines at and around 1 m, and at the threshold") {
    for (lat <- Seq(0.0, 70.0, -70.0)) {
      val e = LatLng(lat, 11.0)
      val far = LatLng(lat + 0.5, 11.5)
      for ((what, dLat, dLon) <- offsets(lat)) {
        val p = LatLng(lat + dLat, 11.0 + dLon)
        for ((from, to) <- Seq((e, far), (far, e), (e, e))) {
          assert(new EndpointFilter(from, to).keeps(p.lat, p.lon) == reference(p, from, to),
            s"lat $lat, $what: $p between $from and $to")
        }
      }
      // The offsets reach both decisions, on the pre-test's side and off it.
      val keeps = offsets(lat).map { case (_, dLat, dLon) => new EndpointFilter(e, far).keeps(lat + dLat, 11.0 + dLon) }
      assert(keeps.contains(true) && keeps.contains(false))
    }
  }

  test("0.5 m from an endpoint is dropped, 1.5 m and the threshold are kept") {
    for (lat <- Seq(0.0, 70.0)) {
      val e = LatLng(lat, 11.0); val f = new EndpointFilter(e, LatLng(lat + 0.5, 11.5))
      for (brg <- Seq(0.0, 45.0, 90.0, 180.0, 270.0)) {
        val near = Geo.destination(e, brg, 0.5); val off = Geo.destination(e, brg, 1.5)
        assert(!f.keeps(near.lat, near.lon), s"lat $lat bearing $brg: 0.5 m kept")
        assert(f.keeps(off.lat, off.lon), s"lat $lat bearing $brg: 1.5 m dropped")
      }
      assert(f.keeps(lat + Geo.ApartLatDeg, 11.0) && f.keeps(lat - Geo.ApartLatDeg, 11.0))
    }
  }

  test("the filter decides as two full haversines on random vertices near the endpoints") {
    val rnd = new Random(17)
    for (_ <- 1 to 20000) {
      val from = LatLng(rnd.nextDouble() * 170 - 85, rnd.nextDouble() * 360 - 180)
      val to = if (rnd.nextBoolean()) from else Geo.destination(from, rnd.nextDouble() * 360, rnd.nextDouble() * 30)
      val anchor = if (rnd.nextBoolean()) from else to
      val p = Geo.destination(anchor, rnd.nextDouble() * 360, rnd.nextDouble() * 25)
      assert(new EndpointFilter(from, to).keeps(p.lat, p.lon) == reference(p, from, to), s"$p between $from and $to")
    }
  }
}
