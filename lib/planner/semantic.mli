(** Chase-based join elimination — the semantic rewrite the metatheory
    pays for.

    Keys the catalog statistics show (a column whose distinct count
    equals the table's row count) become functional dependencies; chasing the
    query's conjunctive core under them and minimizing (Chandra–Merlin)
    can drop relation atoms that plain minimization cannot — a
    key-joined self-join whose second copy only re-reads columns the
    dependency already determines.  A rewrite is adopted only when the
    smaller body is realizable as algebra with the identical schema
    {e and} proves equivalent under the dependencies when translated
    back; anything short of a proof keeps the original query. *)

val fds_of_stats :
  Relational.Algebra.catalog -> Stats.t -> Datalog.Containment.fd list
(** The dependencies the statistics record: for every table column
    with [distinct = rows] (and at least one row), a positional key
    dependency from that column to every other column.  Sound for
    planning because a table's statistics are counted as it is written
    and published with it, and every adopted rewrite is certified
    equivalent under exactly these dependencies. *)

val eliminate_joins :
  Relational.Algebra.catalog ->
  Datalog.Containment.fd list ->
  Relational.Algebra.t ->
  Relational.Algebra.t * int
(** [eliminate_joins catalog fds expr] returns the rewritten expression
    and the number of relation atoms (joins) eliminated — [0] means
    [expr] is returned unchanged.  SPJ subtrees under non-conjunctive
    operators (union, difference, division) are rewritten in place. *)
