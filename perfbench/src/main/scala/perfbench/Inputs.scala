package perfbench

import java.util.SplittableRandom

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.TraceStore
import repro.exp.{Harness, Workloads}
import repro.mobility.ImParams
import repro.spindex.SpIndex

/** A benchmark workload: SYN traces, searched from memory or through the
  * paged store.
  */
final case class Workload(name: String, paged: Boolean)

object Workload {

  /** syn: long SYN traces, so mask pruning dominates query time.
    * syn-paged: the syn index over a store that holds a quarter of the
    * entities, so the fetch layer is on the query path; syn is its control.
    */
  val All: Seq[Workload] = Seq(
    Workload("syn", paged = false),
    Workload("syn-paged", paged = true),
  )

  def named(name: String): Workload =
    All.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name'; expected one of ${All.map(_.name).mkString(", ")}"))
}

/** Workload inputs: base cells from the program's generators, and the
  * query sequence.
  */
object Inputs {

  val Side = 64
  val Horizon = 240

  /** The sp-index and the (entity, t, loc) base-cell DataFrame of SYN. */
  def generator(spark: SparkSession, n: Int, seed: Long): (SpIndex, DataFrame) =
    Workloads.syn(spark, Workloads.SynConfig(
      nEntities = n, side = Side, im = ImParams(horizon = Horizon), seed = seed))

  /** The SYN base cells as a cached, materialized DataFrame, and the
    * seconds the generator took.
    */
  def cells(spark: SparkSession, n: Int, seed: Long): (SpIndex, DataFrame, Double) = {
    val (sp, generated) = generator(spark, n, seed)
    val t0 = System.nanoTime()
    val df = generated.cache()
    df.count()
    (sp, df, (System.nanoTime() - t0) / 1e9)
  }

  /** The seeded query sequence. Eligible entities are those
    * `Harness.pickQueries` accepts (at least 5 base cells). They are sorted
    * by trace length and cut into 2^b equal strata; query i comes from the
    * stratum whose index is i with its b bits reversed, so every prefix of
    * 2^j queries holds one query from each of 2^j equal slices of the length
    * distribution. The pick inside a stratum is uniform, so each eligible
    * entity is equally likely to be chosen. Query latency tracks trace
    * length closely, so this keeps short runs from drifting with the seed.
    */
  def querySequence(store: TraceStore, seed: Long): IndexedSeq[Long] = {
    val m = store.sp.m
    val byLength = Harness.pickQueries(store, Int.MaxValue).sortBy(e => (store.sizes(e)(m - 1), e))
    require(byLength.nonEmpty, "no entity has enough cells to be a query")
    val bits = 31 - Integer.numberOfLeadingZeros(byLength.size)
    val strata = 1 << bits
    val rng = new SplittableRandom(seed)
    (0 until strata).map { i =>
      val s = if (bits == 0) 0 else Integer.reverse(i) >>> (32 - bits)
      val lo = s.toLong * byLength.size / strata
      val hi = (s + 1).toLong * byLength.size / strata
      byLength((lo + rng.nextLong(hi - lo)).toInt)
    }
  }
}
