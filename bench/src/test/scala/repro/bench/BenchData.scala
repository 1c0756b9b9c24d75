package repro.bench

import repro.SparkSpec
import repro.exp.Prep
import repro.exp.Prep.Prepared

/** Shared bench-scale datasets, built once per JVM (the bench suites run
  * sequentially in one forked JVM).
  *
  * Scale: the paper's datasets are 0.8–4.4 M positions; these analogues
  * are ~10–20x smaller so a full table reproduction stays in minutes on a
  * laptop-class container. The scale-down is recorded per table in
  * EXPERIMENTS.md; shapes (ratios between methods/configurations), not
  * absolute numbers, are the reproduction target.
  */
object BenchData {
  lazy val dan: Prepared  = Prep.dan(SparkSpec.shared)
  lazy val kiel: Prepared = Prep.kiel(SparkSpec.shared)
  lazy val sar: Prepared  = Prep.sar(SparkSpec.shared)
}
