package repro.baseline

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.{Measure, TraceStore}

/** Brute-force comparator (the paper's strawman in §3): score the query
  * against every entity and sort. Serves three roles: (1) the baseline
  * whose cost motivates the index, (2) ground truth for exactness tests,
  * (3) the Spark-vs-DuckDB oracle subject.
  */
object BruteForce {

  /** Spark full scan: DataFrame (entity, degree) for every entity
    * with non-zero overlap with the query.
    *
    * @param levelCells DataFrame (entity, level, cell) — see [[repro.core.Cells.levelCells]]
    */
  def degreesDf(
      spark: SparkSession,
      levelCells: DataFrame,
      qEntity: Long,
      measure: Measure,
      sp: repro.spindex.SpIndex,
  ): DataFrame = {
    import spark.implicits._
    val m = sp.m
    val qRows = levelCells
      .filter($"entity" === qEntity)
      .select("level", "cell")
      .as[(Int, Long)]
      .collect()
    require(qRows.nonEmpty, s"query entity $qEntity has no trace")
    val byLevel = qRows.groupBy(_._1)
    val qCells = Array.tabulate(m)(li => byLevel.getOrElse(li + 1, Array.empty).map(_._2))
    val qSizes = qCells.map(_.length)
    val bcQ = spark.sparkContext.broadcast(qCells.map(_.toSet))
    val bcM = spark.sparkContext.broadcast(measure)
    levelCells
      .select("entity", "level", "cell")
      .as[(Long, Int, Long)]
      .filter(_._1 != qEntity)
      .groupByKey(_._1)
      .mapGroups { (e, rows) =>
        val ov = new Array[Int](m)
        val sb = new Array[Int](m)
        rows.foreach { case (_, l, c) =>
          sb(l - 1) += 1
          if (bcQ.value(l - 1).contains(c)) ov(l - 1) += 1
        }
        (e, bcM.value.degree(ov, qSizes, sb))
      }
      .filter(_._2 > 0.0)
      .toDF("entity", "degree")
  }

  /** Driver full scan over a TraceStore: all (entity, degree) pairs sorted
    * by (degree desc, entity asc), query excluded. Zero-degree entities
    * included so rankings are total.
    */
  def rankAll(store: TraceStore, measure: Measure, q: Long): IndexedSeq[(Long, Double)] =
    store.entities.iterator
      .filter(_ != q)
      .map(e => (e, store.degree(measure, e, q)))
      .toIndexedSeq
      .sortBy { case (e, d) => (-d, e) }

  /** Driver top-k. */
  def topK(store: TraceStore, measure: Measure, q: Long, k: Int): Seq[(Long, Double)] =
    rankAll(store, measure, q).take(k)
}
