package repro.exp

import repro.SparkSpec
import repro.core.{AdmMeasure, TopKSearcher}

/** The shared experiment harness used by every bench suite. */
class HarnessSpec extends SparkSpec {

  test("build produces a consistent pipeline end to end") {
    val (sp, cells) = Workloads.syn(spark, Workloads.SynConfig(nEntities = 60, side = 16, im = repro.mobility.ImParams(horizon = 120)))
    val built = Harness.build(spark, sp, cells, nh = 8)
    assert(built.store.entities.size == 60)
    assert(built.tree.size == 60)
    assert(built.buildMillis >= 0)
  }

  test("pickQueries is deterministic, within the entity set, and respects minCells") {
    val (sp, cells) = Workloads.syn(spark, Workloads.SynConfig(nEntities = 50, side = 16, im = repro.mobility.ImParams(horizon = 120)))
    val built = Harness.build(spark, sp, cells, nh = 4)
    val qs = Harness.pickQueries(built.store, 10)
    assert(qs == Harness.pickQueries(built.store, 10))
    assert(qs.size == 10)
    assert(qs.forall(built.store.contains))
    assert(qs.forall(q => built.store.sizes(q)(sp.m - 1) >= 5))
  }

  test("measurePe aggregates over queries and stays in range") {
    val (sp, cells) = Workloads.syn(spark, Workloads.SynConfig(nEntities = 80, side = 16, im = repro.mobility.ImParams(horizon = 120)))
    val built = Harness.build(spark, sp, cells, nh = 16)
    val searcher = new TopKSearcher(built.tree, built.store, built.hasher, AdmMeasure(sp.m, 1, 1))
    val stats = Harness.measurePe(searcher, built.store, Harness.pickQueries(built.store, 8), k = 3)
    assert(stats.avgPe >= 0.0 && stats.avgPe <= 1.0)
    assert(stats.avgChecked >= 0 && stats.avgChecked <= 80)
    assert(stats.avgKthDegree >= 0.0 && stats.avgKthDegree <= 1.0)
  }

  test("real workload builds through the same harness") {
    val (sp, cells) = Workloads.real(spark, Workloads.RealConfig(nEntities = 40, side = 16, horizon = 120))
    val built = Harness.build(spark, sp, cells, nh = 8)
    assert(built.store.entities.size == 40)
    assert(built.tree.size == 40)
  }

  test("printTable renders an aligned markdown table") {
    // Smoke: must not throw and must include the title.
    val out = new java.io.ByteArrayOutputStream()
    Console.withOut(out) {
      Harness.printTable("demo", Seq("a", "bb"), Seq(Seq("1", "2"), Seq("333", "4")))
    }
    val s = out.toString
    assert(s.contains("### demo"))
    assert(s.contains("| 333 | 4"))
  }
}
