package perfbench

/** Minimal JSON writer for the report (maps keep insertion order when a
  * `ListMap` or `Seq` of pairs is passed).
  */
object Json {
  def apply(x: Any): String = x match {
    case null                 => "null"
    case s: String            => quote(s)
    case b: Boolean           => b.toString
    case d: Double            => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int               => n.toString
    case n: Long              => n.toString
    case m: scala.collection.Map[_, _] =>
      m.map { case (k, v) => quote(k.toString) + ":" + apply(v) }.mkString("{", ",", "}")
    case s: Iterable[_]       => s.map(apply).mkString("[", ",", "]")
    case a: Array[_]          => apply(a.toSeq)
    case other                => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    (b += '"').toString
  }
}
