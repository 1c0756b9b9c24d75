package perfbench

import java.io.File
import java.lang.management.ManagementFactory
import org.apache.spark.sql.SparkSession
import repro.exp.Prep
import scala.util.Random

final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean)

/** State shared by one run: the session, the options, the report being
  * filled and the tracer (traced runs only).
  */
final class Run(val spark: SparkSession, val opts: Opts, val dir: File) {
  val report = new Report
  val tracer: Tracer = if (opts.trace) new Tracer else null

  /** Seeds of the gap sets, drawn from the run's seed. */
  def gapSeeds(n: Int): IndexedSeq[Long] = {
    val r = new Random(opts.seed)
    IndexedSeq.fill(n)(r.nextLong())
  }

  private val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
  private var timedFrom  = 0L

  /** Wrap a call in a span when tracing; call it plainly otherwise. */
  def span[T](name: String, request: Long = -1L)(body: => T): T =
    if (tracer == null) body else tracer.span(name, request)(body)

  /** Ends set-up: everything since the JVM started counts as `setup_s`. */
  def startTimed(): Unit = {
    report.metric("setup_s", (System.currentTimeMillis() - jvmStartMs) / 1e3, "s")
    timedFrom = System.nanoTime()
  }

  def elapsedS: Double = (System.nanoTime() - timedFrom) / 1e9

  /** A readable line, stamped with the seconds since the JVM started. */
  def say(msg: String): Unit =
    println(f"[${opts.workload} ${(System.currentTimeMillis() - jvmStartMs) / 1e3}%7.2f s] $msg")
}

/** Benchmark entry point:
  * `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
  * Prints readable lines, then the JSON result as the last line of stdout.
  * Exits 1 when a correctness or determinism check fails.
  */
object Main {
  private def parse(args: Array[String]): Opts = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, sys.error(s"missing --$k"))
    val o = Opts(need("workload"), need("seed").toLong, need("seconds").toInt, need("trace") == "1")
    require(Workloads.all.contains(o.workload),
      s"unknown workload ${o.workload}; known: ${Workloads.all.keys.toSeq.sorted.mkString(", ")}")
    require(o.seconds >= 1, "--seconds must be at least 1")
    o
  }

  def main(args: Array[String]): Unit = {
    val opts = parse(args)
    // Keep every file Spark writes inside the benchmark's build directory.
    val dir = new File(".bench_build").getAbsoluteFile
    System.setProperty("spark.local.dir", new File(dir, "spark-local").getPath)
    System.setProperty("spark.sql.warehouse.dir", new File(dir, "spark-warehouse").toURI.toString)
    val spark = Prep.session(s"perfbench-${opts.workload}")
    val run   = new Run(spark, opts, dir)
    try Workloads.all(opts.workload)(run)
    finally spark.stop()
    if (opts.trace) run.tracer.write(new File(dir, s"trace/${opts.workload}-seed${opts.seed}.tsv"))
    Metrics.complete(run.report, opts.trace)
    println(run.report.json)
    if (!run.report.correct) sys.exit(1)
  }
}
