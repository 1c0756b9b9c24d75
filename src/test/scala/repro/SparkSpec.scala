package repro

import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Prep

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit).
  */
trait SparkSpec extends AnyFunSuite {
  lazy val spark: SparkSession = SparkSpec.shared
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = Prep.session("repro")
    // One line in test output that tells whether the cgroup derivation
    // saw the real memory limit.
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
