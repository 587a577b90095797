package perfbench

import scala.collection.mutable

import repro.core.{CellHasher, Measure, MinSigTree, QueryContext, SigNode, TraceSource}

/** Facts about a MinSigTree read from outside, by walking `tree.root`. */
object IndexWalk {

  /** Bytes charged per node besides its signature: object header, level,
    * routing index and the references to signature, children and members.
    */
  val NodeHeaderBytes = 48

  /** Bytes charged per stored entity id. */
  val EntityBytes = 8

  /** @param nodes     nodes per level; `nodes(0)` is the virtual root
    * @param leafSizes member count of every leaf
    * @param bytes     the benchmark's byte model of the live tree
    */
  final case class Shape(nodes: Array[Int], leafSizes: Array[Int], bytes: Long) {
    def leaves: Int = leafSizes.length
    def singletonFrac: Double = Stats.ratio(leafSizes.count(_ == 1), leaves)
    /** Mean children per level-(l-1) node, i.e. the fan-out into level l. */
    def fanout(l: Int): Double = Stats.ratio(nodes(l), nodes(l - 1))
  }

  def shape(tree: MinSigTree): Shape = {
    val nodes = new Array[Int](tree.sp.m + 1)
    val leafSizes = mutable.ArrayBuffer.empty[Int]
    var bytes = 0L
    def rec(n: SigNode): Unit = {
      nodes(n.level) += 1
      bytes += NodeHeaderBytes + (if (n.minSig == null) 0 else n.minSig.length * 4L)
      if (n.isLeaf) {
        leafSizes += n.entities.size
        bytes += n.entities.size.toLong * EntityBytes
      }
      n.children.valuesIterator.foreach(rec)
    }
    rec(tree.root)
    Shape(nodes, leafSizes.toArray, bytes)
  }

  /** Share of nodes whose `minSig` differs from the element-wise min of
    * their current members' level signatures in `sigs`.
    */
  def staleFraction(tree: MinSigTree, sigs: collection.Map[Long, Array[Int]]): Double = {
    val nh = tree.nh
    var nodes = 0
    var stale = 0
    def rec(n: SigNode): Seq[Long] = {
      val members: Seq[Long] =
        if (n.isLeaf) n.entities.toSeq else n.children.valuesIterator.flatMap(rec).toSeq
      if (n.level >= 1) {
        val exact = Array.fill(nh)(Int.MaxValue)
        val off = (n.level - 1) * nh
        members.foreach { e =>
          val s = sigs(e)
          var u = 0
          while (u < nh) { if (s(off + u) < exact(u)) exact(u) = s(off + u); u += 1 }
        }
        nodes += 1
        if (!java.util.Arrays.equals(exact, n.minSig)) stale += 1
      }
      members
    }
    rec(tree.root)
    Stats.ratio(stale, nodes)
  }

  /** A member whose exact degree exceeds the bound of its leaf. */
  final case class Violation(entity: Long, degree: Double, bound: Double)

  /** Replays Theorem 4.1's bound for query `q` over the whole tree with the
    * public `QueryContext.pruneMasks` and `upperBound`, carrying the running
    * min from the root down as the searcher does, and returns every leaf
    * member whose exact degree is above its leaf's bound.
    */
  def unsound(
      tree: MinSigTree,
      store: TraceSource,
      hasher: CellHasher,
      measure: Measure,
      q: Long,
  ): Seq[Violation] = {
    val ctx = QueryContext(store, hasher, measure, q)
    val out = mutable.ArrayBuffer.empty[Violation]
    def rec(n: SigNode, masks: Array[Array[Boolean]], bound: Double): Unit =
      if (n.isLeaf) {
        n.entities.foreach { e =>
          if (e != q) {
            val d = store.degree(measure, e, q)
            if (d > bound) out += Violation(e, d, bound)
          }
        }
      } else {
        n.children.valuesIterator.foreach { c =>
          val child = ctx.pruneMasks(masks, c, tree.pruneCoords)
          rec(c, child, math.min(bound, ctx.upperBound(child)))
        }
      }
    rec(tree.root, ctx.freshMasks(), 1.0)
    out.toSeq
  }
}
