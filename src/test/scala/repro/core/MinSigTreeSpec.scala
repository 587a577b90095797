package repro.core

import repro.{PaperExample, SparkSpec}
import repro.mobility.{ImModel, ImParams}
import repro.spindex.SpIndex

/** MinSigTree construction (Algorithm 1, §3.2.2), the Figure 1 example, and
  * incremental updates (§3.2.3).
  */
class MinSigTreeSpec extends SparkSpec {

  private def paperTree: MinSigTree = {
    val pe = PaperExample
    val sigs = pe.traces.map { case (e, cs) => e -> Signatures.computeLocal(cs, pe.sp, pe.hasher) }
    MinSigTree.fromLocal(sigs, pe.sp, nh = 2)
  }

  test("Figure 1: level-1 groups are N1={e_d}, N2={e_a,e_b,e_c}") {
    val pe = PaperExample
    val t = paperTree
    val n1 = t.root.children(0) // routing index 1 (0-based 0)
    val n2 = t.root.children(1)
    def allEntities(n: SigNode): Set[Long] =
      if (n.isLeaf) n.entities.toSet else n.children.values.flatMap(allEntities).toSet
    assert(allEntities(n1) == Set(pe.eD))
    assert(allEntities(n2) == Set(pe.eA, pe.eB, pe.eC))
  }

  test("Figure 1: materialized group signature values match the paper") {
    val t = paperTree
    val n1 = t.root.children(0)
    val n2 = t.root.children(1)
    assert(n1.sigVal == 3) // SIG_N1 = <3,1>, routing value 3
    assert(n2.sigVal == 2) // SIG_N2 = <1,2>, routing value 2
    // Level 2 (with the paper's sig_d^2 typo corrected to <3,2>, see
    // PaperExample): e_d routes on index 1 with value 3; N21 = {e_a,e_c}
    // value min(5,4)=4; N22 = {e_b} value 5.
    assert(n1.children(0).sigVal == 3)
    assert(n2.children(0).sigVal == 4)
    assert(n2.children(1).sigVal == 5)
  }

  test("Figure 1: leaves are {e_d}, N21={e_a,e_c}, N22={e_b}") {
    val pe = PaperExample
    val t = paperTree
    assert(t.root.children(0).children(0).entities.toSet == Set(pe.eD))
    assert(t.root.children(1).children(0).entities.toSet == Set(pe.eA, pe.eC))
    assert(t.root.children(1).children(1).entities.toSet == Set(pe.eB))
  }

  private def buildRandom(nEntities: Int, nh: Int, seed: Long): (SpIndex, Map[Long, Array[(Int, Int)]], AdditiveHasher, MinSigTree) = {
    val sp = SpIndex.build(16, 3, 2.0, 1.0)
    val traces = (0L until nEntities.toLong)
      .map(e => e -> ImModel.simulate(e, 16, ImParams(horizon = 40), seed))
      .toMap
    val h = new AdditiveHasher(sp, nh, seed + 1)
    val sigs = traces.map { case (e, cs) => e -> Signatures.computeLocal(cs, sp, h) }
    (sp, traces, h, MinSigTree.fromLocal(sigs, sp, nh))
  }

  test("every entity lands in exactly one leaf") {
    val (_, traces, _, tree) = buildRandom(80, 8, 21)
    def leafEntities(n: SigNode): Seq[Long] =
      if (n.isLeaf) n.entities.toSeq else n.children.values.flatMap(leafEntities).toSeq
    val all = leafEntities(tree.root)
    assert(all.size == traces.size)
    assert(all.toSet == traces.keySet)
    assert(tree.size == traces.size)
  }

  test("node sigVal is the min of members' routed values; levels increase down the tree") {
    val (sp, traces, h, tree) = buildRandom(60, 8, 22)
    val sigs = traces.map { case (e, cs) => e -> Signatures.computeLocal(cs, sp, h) }
    def check(n: SigNode, depth: Int): Unit = {
      if (n.level > 0) {
        assert(n.level == depth)
        def members(x: SigNode): Seq[Long] =
          if (x.isLeaf) x.entities.toSeq else x.children.values.flatMap(members).toSeq
        val vals = members(n).map(e => sigs(e)((n.level - 1) * h.nh + n.routing))
        assert(n.sigVal == vals.min, s"level ${n.level} routing ${n.routing}")
        // Routing is the argmax of each member's level signature.
        members(n).foreach { e =>
          val (ridx, _) = Signatures.routing(sigs(e), sp.m, h.nh)
          assert(ridx(n.level - 1) == n.routing)
        }
      }
      n.children.values.foreach(check(_, depth + 1))
    }
    check(tree.root, 0)
  }

  test("node count and leaf count are bounded by |E| * m and |E|") {
    val (sp, traces, _, tree) = buildRandom(100, 8, 23)
    assert(tree.leafCount <= traces.size)
    assert(tree.nodeCount <= traces.size * sp.m)
    assert(tree.approxBytes > 0)
  }

  test("more hash functions gives at least as many leaves (finer grouping)") {
    val (_, _, _, small) = buildRandom(100, 2, 24)
    val (_, _, _, large) = buildRandom(100, 32, 24)
    assert(large.leafCount >= small.leafCount)
  }

  test("remove deletes the entity and prunes empty branches") {
    val (_, traces, _, tree) = buildRandom(50, 8, 25)
    val before = tree.nodeCount
    traces.keys.take(10).foreach(tree.remove)
    assert(tree.size == traces.size - 10)
    assert(tree.nodeCount <= before)
    def leafEntities(n: SigNode): Seq[Long] =
      if (n.isLeaf) n.entities.toSeq else n.children.values.flatMap(leafEntities).toSeq
    assert(leafEntities(tree.root).toSet == traces.keySet.drop(10))
    // No empty leaves remain.
    def noEmptyLeaf(n: SigNode): Boolean =
      if (n.isLeaf) n.entities.nonEmpty else n.children.values.forall(noEmptyLeaf)
    assert(noEmptyLeaf(tree.root))
  }

  test("remove of an unknown entity throws") {
    val (_, _, _, tree) = buildRandom(10, 4, 26)
    intercept[NoSuchElementException](tree.remove(999L))
  }

  test("update relocates an entity to the leaf matching its new signature") {
    val (sp, traces, h, tree) = buildRandom(50, 8, 27)
    val e = 0L
    val newCells = ImModel.simulate(777L, 16, ImParams(horizon = 40), 99)
    val newSig = Signatures.computeLocal(newCells, sp, h)
    tree.update(e, newSig)
    val (ridx, _) = Signatures.routing(newSig, sp.m, h.nh)
    var n = tree.root
    ridx.foreach(r => n = n.children(r))
    assert(n.entities.contains(e))
    assert(tree.size == traces.size)
  }

  test("insert rejects duplicate entities") {
    val (sp, traces, h, tree) = buildRandom(10, 4, 28)
    val sig = Signatures.computeLocal(traces(0L), sp, h)
    intercept[IllegalArgumentException](tree.insert(0L, sig))
  }

  test("insert rejects a signature of the wrong length") {
    val (sp, traces, h, tree) = buildRandom(10, 4, 32)
    val sig = Signatures.computeLocal(traces(0L), sp, h)
    for (bad <- Seq(sig.dropRight(1), sig ++ sig.take(1), Array.empty[Int]))
      intercept[IllegalArgumentException](tree.insert(100L, bad))
    assert(tree.size == traces.size && !tree.entityPath.contains(100L))
  }

  test("insert and update reject an empty trace's all-Int.MaxValue signature") {
    val (sp, traces, h, tree) = buildRandom(10, 4, 33)
    val empty = Signatures.computeLocal(Array.empty[(Int, Int)], sp, h)
    assert(empty.forall(_ == Int.MaxValue))
    intercept[IllegalArgumentException](tree.insert(100L, empty))
    intercept[IllegalArgumentException](tree.update(0L, empty))
    assert(tree.entityPath.contains(0L) && !tree.entityPath.contains(100L))
    // One finite coordinate is a valid signature.
    val oneCell = empty.clone()
    oneCell(oneCell.length - 1) = 7
    tree.insert(101L, oneCell)
    assert(tree.size == traces.size + 1)
  }

  test("fromCells (Spark) builds the same tree as the driver path") {
    import spark.implicits._
    val (sp, traces, h, driverTree) = buildRandom(40, 8, 29)
    val df = traces.toSeq
      .flatMap { case (e, cs) => cs.map { case (t, loc) => (e, t, loc) } }
      .toDF("entity", "t", "loc")
    val sparkTree = MinSigTree.fromCells(spark, df, sp, h)
    assert(sparkTree.toRows.toSet == driverTree.toRows.toSet)
  }

  test("bulk update: re-inserting all entities with fresh traces keeps the tree consistent") {
    val (sp, traces, h, tree) = buildRandom(40, 8, 31)
    traces.keys.foreach { e =>
      val cells = ImModel.simulate(e + 1000, 16, ImParams(horizon = 40), 5)
      tree.update(e, Signatures.computeLocal(cells, sp, h))
    }
    assert(tree.size == traces.size)
    def leafEntities(n: SigNode): Seq[Long] =
      if (n.isLeaf) n.entities.toSeq else n.children.values.flatMap(leafEntities).toSeq
    assert(leafEntities(tree.root).size == traces.size)
  }
}
