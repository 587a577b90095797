package perfbench

import org.apache.commons.math3.special.Beta

/** Summary statistics and the JSON the runner prints. */
object Stats {

  /** Nearest-rank percentile `p` (0 < p ≤ 100) of the samples. */
  def pct(xs: Iterable[Double], p: Double): Double = {
    val s = xs.toArray.sorted
    require(s.nonEmpty, "percentile of no samples")
    s(math.max(0, math.ceil(p / 100 * s.length).toInt - 1))
  }

  /** Harrell–Davis estimate of the `p`-th percentile (0 < p < 100): the
    * mean of all order statistics weighted by a Beta((n+1)q, (n+1)(1-q))
    * distribution, q = p / 100. On a few dozen samples it moves far less
    * between runs than any single order statistic does.
    */
  def hd(xs: Iterable[Double], p: Double): Double = {
    val s = xs.toArray.sorted
    require(s.nonEmpty, "percentile of no samples")
    val n = s.length
    val q = p / 100
    val (a, b) = (q * (n + 1), (1 - q) * (n + 1))
    var prev = 0.0
    var sum = 0.0
    var i = 1
    while (i <= n) {
      val cdf = if (i == n) 1.0 else Beta.regularizedBeta(i.toDouble / n, a, b)
      sum += (cdf - prev) * s(i - 1)
      prev = cdf
      i += 1
    }
    sum
  }

  /** Samples strictly above the nearest-rank `p`-th percentile of `n`. */
  def beyond(n: Int, p: Double): Int = n - math.ceil(p / 100 * n).toInt

  def mean(xs: Iterable[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  def ratio(a: Double, b: Double): Double = if (b == 0) 0.0 else a / b
}

/** A named measurement with its unit. */
final case class Metric(name: String, value: Double, unit: String)

/** Minimal JSON rendering of maps, sequences, strings, numbers and booleans. */
object Json {

  def render(v: Any): String = v match {
    case null => "null"
    case s: String => quote(s)
    case b: Boolean => b.toString
    case i: Int => i.toString
    case l: Long => l.toString
    case d: Double =>
      require(!d.isNaN && !d.isInfinite, s"non-finite number $d")
      if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString else d.toString
    case m: collection.Map[_, _] =>
      m.map { case (k, x) => quote(k.toString) + ":" + render(x) }.mkString("{", ",", "}")
    case xs: Iterable[_] => xs.map(render).mkString("[", ",", "]")
    case other => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    b += '"'
    b.toString
  }

  /** Metrics as `{"name": {"value": v, "unit": u}}`, in the given order. */
  def metrics(ms: Seq[Metric]): collection.Map[String, Any] =
    collection.mutable.LinkedHashMap(ms.map(m => m.name -> collection.mutable.LinkedHashMap("value" -> m.value, "unit" -> m.unit)): _*)
}
