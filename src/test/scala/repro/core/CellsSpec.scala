package repro.core

import repro.SparkSpec
import repro.mobility.{ImModel, ImParams}
import repro.spindex.SpIndex

/** ST-cell encoding and level rollup (§3.1, Example 3.1). */
class CellsSpec extends SparkSpec {

  test("encode/timeOf/unitOf round-trip") {
    for (t <- Seq(0, 1, 719, 100000); u <- Seq(0, 1, 4095, (1 << 24) - 1)) {
      val c = Cells.encode(t, u)
      assert(Cells.timeOf(c) == t && Cells.unitOf(c) == u, s"t=$t u=$u")
    }
  }

  test("encode rejects a negative time and unit ids outside [0, 2^24)") {
    for ((t, u) <- Seq((-1, 0), (Int.MinValue, 5), (0, -1), (3, 1 << 24), (3, Int.MaxValue)))
      intercept[IllegalArgumentException](Cells.encode(t, u))
    assert(Cells.unitOf(Cells.encode(Int.MaxValue, (1 << 24) - 1)) == (1 << 24) - 1)
  }

  test("encoding preserves ordering by (t, unit)") {
    assert(Cells.encode(1, 5) < Cells.encode(2, 0))
    assert(Cells.encode(1, 5) < Cells.encode(1, 6))
  }

  test("Example 3.1: rollup builds seq^1 from seq^2 via parents") {
    val pe = repro.PaperExample
    // e has presence at L1 (loc 0) at T1 and L3 (loc 2) at T2.
    val seq = Cells.rollup(Array((0, 0), (1, 2)), pe.sp)
    val l5 = pe.sp.ancestor(1, 0)
    val l6 = pe.sp.ancestor(1, 2)
    assert(seq(1).toSet == Set(Cells.encode(0, 0), Cells.encode(1, 2)))
    assert(seq(0).toSet == Set(Cells.encode(0, l5), Cells.encode(1, l6)))
  }

  test("rollup deduplicates coarse cells from sibling base cells") {
    val pe = repro.PaperExample
    // L1 and L2 share parent L5; same time => one level-1 cell.
    val seq = Cells.rollup(Array((0, 0), (0, 1)), pe.sp)
    assert(seq(1).length == 2)
    assert(seq(0).length == 1)
  }

  test("rollup output is sorted and distinct at every level") {
    val sp = SpIndex.build(16, 3, 2.0, 1.0)
    val cells = ImModel.simulate(9L, 16, ImParams(horizon = 80), seed = 5)
    val seq = Cells.rollup(cells, sp)
    seq.foreach { arr =>
      assert(arr.toSeq == arr.toSeq.distinct.sorted)
    }
    // Coarser levels can only shrink or keep the cell count.
    assert(seq.zip(seq.tail).forall { case (coarse, fine) => coarse.length <= fine.length })
  }

  test("intersectCount equals set intersection size") {
    val rng = new java.util.SplittableRandom(1)
    for (_ <- 0 until 20) {
      val a = Array.fill(rng.nextInt(30))(rng.nextLong(100)).distinct.sorted
      val b = Array.fill(rng.nextInt(30))(rng.nextLong(100)).distinct.sorted
      assert(Cells.intersectCount(a, b) == a.toSet.intersect(b.toSet).size)
    }
  }

  test("levelCells DataFrame agrees with driver rollup") {
    import spark.implicits._
    val sp = SpIndex.build(16, 3, 2.0, 1.0)
    val local = (0L until 10L).map(e => e -> ImModel.simulate(e, 16, ImParams(horizon = 30), seed = 8)).toMap
    val df = local.toSeq
      .flatMap { case (e, cs) => cs.map { case (t, loc) => (e, t, loc) } }
      .toDF("entity", "t", "loc")
    val got = Cells.levelCells(spark, df, sp)
      .as[(Long, Int, Long)]
      .collect()
      .groupBy(r => (r._1, r._2))
      .view.mapValues(_.map(_._3).sorted.toSeq).toMap
    local.foreach { case (e, cs) =>
      val seq = Cells.rollup(cs, sp)
      for (l <- 1 to sp.m)
        assert(got((e, l)) == seq(l - 1).toSeq, s"entity $e level $l")
    }
  }
}
