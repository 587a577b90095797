package repro.core

import repro.SparkSpec
import repro.mobility.{ImModel, ImParams}
import repro.spindex.SpIndex

/** The per-cell scan `QueryContext` used before its sorted-run kernel: for
  * every cell still alive at a level ≥ the node's, read the cell's hash
  * under each of the node's coordinates until one certifies absence. Kept
  * here as the oracle the kernel is checked against.
  */
object ReferenceScan {

  /** hashes(l-1)(i)(u) = h_u^l of the query's i-th level-l cell. */
  def hashes(ctx: QueryContext): Array[Array[Array[Int]]] =
    Array.tabulate(ctx.sp.m) { li =>
      ctx.qLevel(li).map { c =>
        Array.tabulate(ctx.hasher.nh)(u => ctx.hasher.unit(u, li + 1, Cells.timeOf(c), Cells.unitOf(c)))
      }
    }

  def prune(
      hashes: Array[Array[Array[Int]]],
      parent: Array[Array[Boolean]],
      level: Int,
      coords: Array[Int],
  ): Array[Array[Boolean]] =
    Array.tabulate(parent.length) { li =>
      if (li < level - 1) parent(li)
      else Array.tabulate(parent(li).length) { c =>
        parent(li)(c) && coords.grouped(2).forall { case Array(u, v) => hashes(li)(c)(u) >= v }
      }
    }

  def upperBound(ctx: QueryContext, masks: Array[Array[Boolean]]): Double = {
    val surv = masks.map(_.count(identity))
    ctx.measure.degree(surv, surv, ctx.qSizes)
  }
}

/** Differential check of `QueryContext`'s packed-mask kernel against
  * [[ReferenceScan]]: every node of random trees, equal masks and
  * bit-equal Theorem 4.1 bounds.
  */
class BoundKernelSpec extends SparkSpec {

  private val side = 16

  /** Packed mask → per-level Boolean masks, by the documented layout:
    * level l's cells start at word Σ_{j<l} ⌈|q^j|/64⌉.
    */
  private def unpack(ctx: QueryContext, mask: Array[Long]): Array[Array[Boolean]] = {
    val off = ctx.qSizes.scanLeft(0)((o, n) => o + (n + 63) / 64)
    assert(mask.length == off.last)
    Array.tabulate(ctx.sp.m)(li =>
      Array.tabulate(ctx.qSizes(li))(i => (mask(off(li) + i / 64) >>> (i % 64) & 1L) == 1L))
  }

  private def same(a: Array[Array[Boolean]], b: Array[Array[Boolean]]): Boolean =
    a.length == b.length && a.indices.forall(li => a(li).sameElements(b(li)))

  private def bits(d: Double): Long = java.lang.Double.doubleToRawLongBits(d)

  /** Walks every node below `root`, pruning with the kernel and with the
    * reference side by side; returns the number of nodes compared.
    */
  private def walkAndCompare(ctx: QueryContext, tree: MinSigTree, extra: Seq[SigNode]): Int = {
    val hashes = ReferenceScan.hashes(ctx)
    var compared = 0
    def check(node: SigNode, ref: Array[Array[Boolean]], packed: Array[Long]): (Array[Array[Boolean]], Array[Long]) = {
      val coords = node.topCoords(tree.pruneCoords)
      val refChild = ReferenceScan.prune(hashes, ref, node.level, coords)
      val dst = new Array[Long](ctx.words)
      ctx.prune(packed, dst, node.level, coords)
      val where = s"node level ${node.level} routing ${node.routing}"
      assert(same(unpack(ctx, dst), refChild), s"kernel mask differs at $where")
      assert(same(ctx.pruneMasks(ref, node, tree.pruneCoords), refChild), s"Boolean adapter differs at $where")
      val want = bits(ReferenceScan.upperBound(ctx, refChild))
      assert(bits(ctx.bound(dst)) == want, s"kernel bound differs at $where")
      assert(bits(ctx.upperBound(refChild)) == want, s"Boolean bound differs at $where")
      compared += 1
      (refChild, dst)
    }
    def walk(n: SigNode, ref: Array[Array[Boolean]], packed: Array[Long]): Unit =
      n.children.valuesIterator.foreach { c =>
        val (r, p) = check(c, ref, packed)
        walk(c, r, p)
      }
    val full = ctx.fullMask()
    assert(same(unpack(ctx, full), ctx.freshMasks()))
    assert(ctx.freshMasks().map(_.length).sameElements(ctx.qSizes) && ctx.freshMasks().forall(_.forall(identity)))
    walk(tree.root, ctx.freshMasks(), full)
    // Extra nodes, each pruned from the root's mask.
    extra.foreach(n => check(n, ctx.freshMasks(), full))
    compared
  }

  for (nh <- Seq(2, 8, 64, 256); m <- Seq(1, 3, 4)) {
    test(s"packed kernel equals the per-cell scan on every node [nh=$nh, m=$m]") {
      val sp = SpIndex.build(side, m, 2.0, 1.0)
      val seed = 1000L + nh * 10 + m
      // Horizons of 24, 100 and 200 hours: one-, two- and four-word masks.
      val traces = (0L until 36L).map { e =>
        e -> ImModel.simulate(e, side, ImParams(horizon = Seq(24, 100, 200)((e % 3).toInt)), seed)
      }.toMap
      val store = TraceStore.fromLocal(traces, sp)
      val h = new AdditiveHasher(sp, nh, seed + 7)
      val tree = MinSigTree.fromLocal(traces.map { case (e, cs) => e -> Signatures.computeLocal(cs, sp, h) }, sp, nh)
      val measure = if (nh % 128 == 0) AdmMeasure(m, 0.5, 2) else AdmMeasure(m, 1, 1)
      // A node whose minSig is all Int.MaxValue at every level: it prunes
      // every cell at its level and below.
      val dead = (1 to m).map { l =>
        val n = new SigNode(l, 0)
        n.merge(Array.fill(nh)(Int.MaxValue), 0, nh)
        n
      }
      val queries = Seq(0L, 1L, 2L, 5L)
      val sizes = queries.map(q => store.levelCells(q, m).length)
      assert(sizes.exists(_ > 64) && sizes.exists(_ > 128), s"query sizes $sizes")
      for (q <- queries) {
        val ctx = QueryContext(store, h, measure, q)
        assert(walkAndCompare(ctx, tree, dead) == tree.nodeCount + m)
        // The same query with one level emptied (at m = 1, the only one).
        val hollow = ctx.qLevel.clone()
        hollow(m / 2) = Array.empty[Long]
        walkAndCompare(new QueryContext(sp, h, measure, hollow), tree, dead)
      }
    }
  }
}
