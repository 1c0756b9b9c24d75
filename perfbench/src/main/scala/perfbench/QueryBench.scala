package perfbench

import repro.baselines.GTI
import repro.core.{AStar, Habit}
import repro.eval.{DTW, Gap}
import repro.geo.{Geo, LatLng, RDP}
import repro.h3.HexGrid

/** The query path over a fixed gap set: HABIT, and GTI when given, impute
  * every gap in a closed loop on one thread. Per-query latency is the
  * median of each gap's repeats; p50/p99 are taken over distinct gaps.
  */
final class QueryBench(run: Run, gaps: IndexedSeq[Gap], val habit: Habit, gti: Option[GTI]) {
  private val n = gaps.size
  private val methods: IndexedSeq[(String, (LatLng, LatLng) => IndexedSeq[LatLng])] =
    IndexedSeq[(String, (LatLng, LatLng) => IndexedSeq[LatLng])]("HABIT" -> habit.impute) ++
      gti.map(g => "GTI" -> (g.impute _)).toSeq
  // Paths of the first measured pass, per method; later passes must match.
  private val paths = Array.fill(methods.size)(new Array[IndexedSeq[LatLng]](n))

  /** Untimed: a full collection compacts the graph into one heap layout,
    * then one pass over every gap lets the JIT compile the query path, and
    * one eval pass the DTW scoring (the first eval pass ran 20-40 % slower
    * than the next ones without it).
    */
  def warmUp(): Unit = {
    System.gc()
    for (g <- gaps; (_, f) <- methods) f(g.from, g.to)
    for (g <- gaps) DTW.pathErrorM(habit.impute(g.from, g.to), g.truth)
  }

  /** One pass over every gap; returns the impute time (ns) per method and
    * gap. The first pass records the paths, later ones compare with them.
    */
  private def pass(record: Boolean): Array[Array[Long]] = {
    val ns = Array.ofDim[Long](methods.size, n)
    var i = 0
    while (i < n) {
      val g = gaps(i)
      var k = 0
      while (k < methods.size) {
        val t0 = System.nanoTime()
        val p =
          try methods(k)._2(g.from, g.to)
          catch { case e: Exception =>
            run.report.failed += 1
            Console.err.println(s"${methods(k)._1} threw on gap $i: $e")
            null
          }
        ns(k)(i) = System.nanoTime() - t0
        run.report.attempted += 1
        if (record) paths(k)(i) = p
        else run.report.check(p == paths(k)(i), s"${methods(k)._1} gave another path on a repeat of gap $i")
        k += 1
      }
      i += 1
    }
    ns
  }

  /** DTW score (m) of every recorded path of method k. */
  private def score(k: Int): Array[Double] = {
    val d = new Array[Double](n)
    for (i <- 0 until n if paths(k)(i) != null) d(i) = DTW.pathErrorM(paths(k)(i), gaps(i).truth)
    d
  }

  /** One eval pass: HABIT imputes and DTW-scores every gap it imputed in
    * the recording pass; returns the pass's wall time (s) and the scores.
    */
  private def evalPass(): (Double, Array[Double]) = {
    val d = new Array[Double](n)
    val t0 = System.nanoTime()
    var i = 0
    while (i < n) {
      if (paths(0)(i) != null) {
        val g = gaps(i)
        d(i) = DTW.pathErrorM(habit.impute(g.from, g.to), g.truth)
      }
      i += 1
    }
    ((System.nanoTime() - t0) / 1e9, d)
  }

  /** Timed: one recording pass, then rounds of one eval pass and one
    * impute-only pass until `seconds` have passed, at least three rounds.
    * `eval_s` is the median of the eval passes, so a burst of host load
    * during one pass does not set it.
    */
  def measure(seconds: Double): Unit = {
    val t0 = System.nanoTime()
    val samples = scala.collection.mutable.ArrayBuffer(pass(record = true))
    val evals = scala.collection.mutable.ArrayBuffer.empty[Double]
    var dtw: Array[Double] = null
    while (evals.size < 3 || (System.nanoTime() - t0) / 1e9 < seconds) {
      val (s, d) = evalPass()
      evals += s
      run.report.attempted += (0 until n).count(paths(0)(_) != null)
      if (dtw == null) dtw = d
      else run.report.check(d.sameElements(dtw), "HABIT gave another DTW score on a repeat of the gap set")
      samples += pass(record = false)
    }
    check()

    for (k <- methods.indices) {
      val name = methods(k)._1
      val perGap = (0 until n).map(i => Stats.median(samples.map(_(k)(i) / 1e3).toSeq))
      val p50 = Stats.pct(perGap, 0.5); val p99 = Stats.pct(perGap, 0.99)
      val fails = fallbacks(k)
      val passP50 = samples.map(s => f"${Stats.pct(s(k).toSeq.map(_ / 1e3), 0.5)}%.1f").mkString(" ")
      run.say(s"$name p50 per pass (us): $passP50")
      run.say(f"$name gaps=$n samples_per_gap=${samples.size} p50_us=$p50%.1f p99_us=$p99%.1f " +
        f"fail_ratio=${fails.toDouble / n}%.4f ($fails/$n)")
      if (k == 0) {
        // Only HABIT is scored here; GTI's DTW is a per-layer metric of the traced run.
        val ok = (0 until n).filter(paths(0)(_) != null)
        val evalS = Stats.median(evals.toSeq)
        val dtwMed = Stats.median(ok.map(dtw(_))); val dtwMean = Stats.mean(ok.map(dtw(_)))
        run.say(s"HABIT eval passes (s): ${evals.map(e => f"$e%.3f").mkString(" ")}")
        run.say(f"HABIT eval_s=$evalS%.3f dtw_median_m=$dtwMed%.1f dtw_mean_m=$dtwMean%.1f (n=${ok.size})")
        run.report.metric("query_p50_us", p50, "us")
        run.report.metric("query_p99_us", p99, "us")
        run.report.metric("eval_s", evalS, "s")
        run.report.metric("dtw_median_m", dtwMed, "m")
        run.report.metric("dtw_mean_m", dtwMean, "m")
      }
    }
  }

  /** Every path is non-empty, finite, and runs from the gap's `from` to
    * its `to`.
    */
  private def check(): Unit =
    for (k <- methods.indices; i <- 0 until n if paths(k)(i) != null) {
      val p = paths(k)(i); val g = gaps(i); val m = methods(k)._1
      run.report.check(p.nonEmpty, s"$m: empty path for gap $i")
      run.report.check(p.forall(q => java.lang.Double.isFinite(q.lat) && java.lang.Double.isFinite(q.lon)),
        s"$m: non-finite coordinate in gap $i")
      run.report.check(p.nonEmpty && p.head == g.from && p.last == g.to, s"$m: gap $i path does not join its endpoints")
    }

  /** Straight-line results, detected outside any timed loop; only a path
    * of the two endpoints can be one. HABIT falls back when A* finds no path
    * between the snapped endpoints (RDP may also reduce a graph path to the
    * endpoints, so A* is asked again); GTI returns only the two endpoints
    * when Dijkstra finds no path (or, rarely, when every path point lies
    * within 1 m of an endpoint), counted as well.
    */
  private def fallbacks(k: Int): Int = (0 until n).count { i =>
    val g = gaps(i); val r = habit.config.res
    paths(k)(i) != null && paths(k)(i).size == 2 && (methods(k)._1 != "HABIT" || (for {
      s <- habit.graph.nearestNode(HexGrid.latLngToCell(g.from, r))
      e <- habit.graph.nearestNode(HexGrid.latLngToCell(g.to, r))
      p <- AStar.shortestPath(habit.graph, s, e)
    } yield p).isEmpty)
  }

  def digests: Seq[(String, String)] = methods.indices.map(k => s"paths ${methods(k)._1}" -> Digest.paths(paths(k).toSeq))

  // Counters recorded at the span boundaries of the traced HABIT pass.
  private val snapCells = new Array[Double](2 * n)   // endpoint cell → snapped node, in cells
  private val pathCells = new Array[Double](n)       // A* cells, -1 when A* found no path or did not run
  private val rdpIn     = new Array[Double](n)
  private val rdpOut    = new Array[Double](n)
  private var offGraph  = 0

  /** HABIT's steps called one by one, each in its own span, mirroring
    * `Habit.impute` with median projection.
    */
  private def tracedHabit(tr: Tracer, i: Int, from: LatLng, to: LatLng): IndexedSeq[LatLng] =
    tr.span("core.Habit.impute", i) {
      val r = habit.config.res; val graph = habit.graph
      val cf = tr.span("h3.HexGrid.latLngToCell", i)(HexGrid.latLngToCell(from, r))
      val ct = tr.span("h3.HexGrid.latLngToCell", i)(HexGrid.latLngToCell(to, r))
      val s  = tr.span("core.MotionGraph.nearestNode", i)(graph.nearestNode(cf))
      val e  = tr.span("core.MotionGraph.nearestNode", i)(graph.nearestNode(ct))
      for ((c, snapped, j) <- Seq((cf, s, 2 * i), (ct, e, 2 * i + 1))) {
        if (!graph.nodes.contains(c)) offGraph += 1
        snapCells(j) = snapped.fold(0)(HexGrid.gridDistance(c, _)).toDouble
      }
      val cells = for (a <- s; b <- e; p <- tr.span("core.AStar.shortestPath", i)(AStar.shortestPath(graph, a, b)))
        yield p
      pathCells(i) = cells.fold(-1)(_.size).toDouble
      val mid = cells.fold(IndexedSeq.empty[LatLng])(_.map { c =>
        tr.span("core.MotionGraph.medianLatLng", i)(graph.medianLatLng(c))
      })
      val interior = mid.filter(p => Geo.haversineM(p, from) > 1.0 && Geo.haversineM(p, to) > 1.0)
      val in  = from +: interior :+ to
      val out = tr.span("geo.RDP.simplify", i)(RDP.simplify(in, habit.config.toleranceM))
      rdpIn(i) = in.size; rdpOut(i) = out.size
      out
    }

  /** Impute and score every gap, untraced; records the paths. */
  private def untracedPass(): Double = {
    val t0 = System.nanoTime()
    for (i <- 0 until n; k <- methods.indices) {
      val g = gaps(i)
      paths(k)(i) = methods(k)._2(g.from, g.to)
      DTW.pathErrorM(paths(k)(i), g.truth)
    }
    (System.nanoTime() - t0) / 1e9
  }

  /** The same pass with every layer call in a span. */
  private def tracedPass(tr: Tracer): (Double, Array[Array[IndexedSeq[LatLng]]]) = {
    offGraph = 0
    val t0 = System.nanoTime()
    val out = Array.fill(methods.size)(new Array[IndexedSeq[LatLng]](n))
    for (i <- 0 until n) {
      val g = gaps(i)
      out(0)(i) = tracedHabit(tr, i, g.from, g.to)
      tr.span("eval.DTW.pathErrorM", i)(DTW.pathErrorM(out(0)(i), g.truth))
      gti.foreach { m =>
        out(1)(i) = tr.span("baselines.GTI.impute", i)(m.impute(g.from, g.to))
        tr.span("eval.DTW.pathErrorM", i)(DTW.pathErrorM(out(1)(i), g.truth))
      }
    }
    ((System.nanoTime() - t0) / 1e9, out)
  }

  /** Untraced and traced passes, alternated twice; returns the faster of
    * each (untraced s, traced s) and the number of traced paths that differ
    * from the untraced ones, and reports the query path's layer metrics
    * from the last traced pass.
    */
  def traced(): (Double, Double, Int) = {
    val tr = run.tracer
    var untraced, traced = Double.MaxValue
    var mismatch = 0
    var first = 0
    for (_ <- 1 to 2) {
      untraced = math.min(untraced, untracedPass())
      first = tr.size
      val (t, out) = tracedPass(tr)
      traced = math.min(traced, t)
      mismatch += methods.indices.map(k => (0 until n).count(i => out(k)(i) != paths(k)(i))).sum
    }
    run.report.attempted += 4L * n * methods.size
    check()
    val self = tr.selfNs
    val blocking = (first until tr.size).map(self(_)).sum / 1e9
    run.say(f"query path: span self times sum to $blocking%.3f s of the last traced pass")
    // Off the blocking path: GTI's snapping, called on its own.
    gti.foreach(m => for (i <- 0 until n) tr.span("baselines.GTI.nearestNode", i)(m.nearestNode(gaps(i).from)))

    val rep = run.report
    val spans = (first until tr.size).groupBy(tr.name)
    def us(name: String) = spans.getOrElse(name, IndexedSeq.empty).map(tr.durationNs(_) / 1e3)
    def timing(name: String, p99: Boolean): Unit = {
      rep.metric(s"$name.us_p50", Stats.pct(us(name), 0.5), "us")
      if (p99) rep.metric(s"$name.us_p99", Stats.pct(us(name), 0.99), "us")
    }
    Seq("h3.HexGrid.latLngToCell", "core.MotionGraph.medianLatLng", "geo.RDP.simplify",
        "eval.DTW.pathErrorM", "baselines.GTI.nearestNode").foreach(timing(_, p99 = false))
    Seq("core.MotionGraph.nearestNode", "core.AStar.shortestPath", "baselines.GTI.impute").foreach(timing(_, p99 = true))

    val astar = us("core.AStar.shortestPath").size
    rep.metric("core.MotionGraph.nearestNode.offgraph_ratio", offGraph.toDouble / (2 * n), "ratio")
    rep.metric("core.MotionGraph.nearestNode.snap_cells_p99", Stats.pct(snapCells.toSeq, 0.99), "count")
    rep.metric("core.AStar.shortestPath.path_cells_p50", Stats.pct(pathCells.filter(_ >= 0).toSeq, 0.5), "count")
    rep.metric("core.AStar.shortestPath.none_ratio", (astar - pathCells.count(_ >= 0)).toDouble / math.max(1, astar), "ratio")
    rep.metric("geo.RDP.simplify.vertices_in_p50", Stats.pct(rdpIn.toSeq, 0.5), "count")
    rep.metric("geo.RDP.simplify.vertices_out_p50", Stats.pct(rdpOut.toSeq, 0.5), "count")
    rep.metric("core.Habit.impute.fail_ratio", fallbacks(0).toDouble / n, "ratio")
    val cellsDtw = (0 until n).flatMap(i => methods.indices.map { k =>
      Geo.densify(paths(k)(i), DTW.DensifyM).size.toDouble * Geo.densify(gaps(i).truth, DTW.DensifyM).size
    }).sum
    rep.metric("eval.DTW.pathErrorM.mcells", cellsDtw / 1e6, "Mcells")
    gti.foreach { _ =>
      rep.metric("baselines.GTI.impute.path_points_p50", Stats.pct(paths(1).map(_.size.toDouble).toSeq, 0.5), "count")
      rep.metric("baselines.GTI.impute.fail_ratio", fallbacks(1).toDouble / n, "ratio")
      rep.metric("baselines.GTI.impute.dtw_median_m", Stats.median(score(1).toSeq), "m")
    }
    (untraced, traced, mismatch)
  }
}
