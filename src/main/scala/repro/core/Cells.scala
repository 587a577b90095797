package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.spindex.SpIndex

/** ST-cell encoding and per-level cell-set construction (§3.1).
  *
  * A base ST-cell is `(t, loc)` with `loc` a base-unit Morton rank; a
  * level-`l` cell is `(t, unit)` with `unit` the level-`l` ancestor of some
  * base unit. Cells are packed into a Long as `t << 24 | unit`; `encode`
  * rejects `t < 0` and unit ids outside `[0, 2^24)`, which would corrupt
  * the packing.
  */
object Cells {

  val UnitBits = 24
  val UnitMask: Long = (1L << UnitBits) - 1

  def encode(t: Int, unit: Int): Long = {
    if (t < 0 || unit < 0 || unit > UnitMask)
      throw new IllegalArgumentException(s"cell (t=$t, unit=$unit) outside t >= 0, unit in [0, 2^$UnitBits)")
    (t.toLong << UnitBits) | unit
  }
  def timeOf(cell: Long): Int = (cell >>> UnitBits).toInt
  def unitOf(cell: Long): Int = (cell & UnitMask).toInt

  /** Distributed ST-cell set sequence: explode base cells to every level.
    *
    * Output columns: `(entity: Long, level: Int, cell: Long)`, distinct —
    * the row-relational form of `seq_e^l` for all entities and levels,
    * suitable for join-based degree computation and the DuckDB oracle.
    */
  def levelCells(spark: SparkSession, cells: DataFrame, sp: SpIndex): DataFrame = {
    import spark.implicits._
    val bc = spark.sparkContext.broadcast(sp)
    cells
      .select("entity", "t", "loc")
      .as[(Long, Int, Int)]
      .flatMap { case (e, t, loc) =>
        val s = bc.value
        (1 to s.m).iterator.map(l => (e, l, encode(t, s.ancestor(l, loc))))
      }
      .toDF("entity", "level", "cell")
      .distinct()
  }

  /** Roll one entity's base cells up to per-level sorted distinct arrays.
    * `result(l-1)` = sorted distinct encoded level-`l` cells.
    */
  def rollup(base: Array[(Int, Int)], sp: SpIndex): Array[Array[Long]] =
    Array.tabulate(sp.m) { li =>
      val l = li + 1
      base.map { case (t, loc) => encode(t, sp.ancestor(l, loc)) }.distinct.sorted
    }

  /** Intersection size of two sorted distinct Long arrays (two-pointer). */
  def intersectCount(a: Array[Long], b: Array[Long]): Int = {
    var i = 0; var j = 0; var n = 0
    while (i < a.length && j < b.length) {
      if (a(i) < b(j)) i += 1
      else if (a(i) > b(j)) j += 1
      else { n += 1; i += 1; j += 1 }
    }
    n
  }
}
