(** Plan selection: {!Relational.Optimizer.optimize}'s logical rewrites
    first, then a physical compile that picks access paths (sargable
    conjuncts matched against the index catalog) and join algorithms
    (hash vs merge) by {!Cost}.

    A {!ctx} snapshots the engine's public catalog, with each entry's
    statistics, and the index definitions at creation time, from one
    read of the catalog chain — make one per CLI invocation or test
    scenario, after the tables it should see are saved.  The
    catalog snapshot is {!Indexes.load}'s: planning, heap scans, fence
    scans and index builds all read the chains it names, so a table
    replaced while the context lives is seen at one version. *)

(** Join-algorithm selection override, for tests and the bench: [Auto]
    lets cost decide. *)
type join_force = Auto | Force_hash | Force_merge

type config = {
  optimize : bool;
      (** run the logical rewrite pipeline before compiling (default);
          [false] compiles the query as written — access-path selection
          still happens, which is what makes PL001 demonstrable *)
  semantic : bool;
      (** run {!Semantic.eliminate_joins} after the syntactic rewrites
          (default): joins the chase proves redundant under the
          statistics-recorded key dependencies are dropped before
          physical compilation *)
  force_join : join_force;
  sort_spill : int option;
      (** executor sort-spill threshold in tuples; [None] uses the cost
          model's [sort_mem_tuples] *)
}
(** Planner configuration. *)

val default_config : config
(** [{ optimize = true; semantic = true; force_join = Auto;
    sort_spill = None }]. *)

type instruments = {
  i_queries : Obs.Registry.Counter.t;
  i_executions : Obs.Registry.Counter.t;
  i_index_scans : Obs.Registry.Counter.t;
  i_full_scans : Obs.Registry.Counter.t;
  i_fence_fallbacks : Obs.Registry.Counter.t;
  i_spills : Obs.Registry.Counter.t;
  i_join_eliminations : Obs.Registry.Counter.t;
  i_certify_stages : Obs.Registry.Counter.t;
  i_certify_skipped : Obs.Registry.Counter.t;
  i_certify_failures : Obs.Registry.Counter.t;
}
(** The [plan.*], [semantic.*] and [certify.*] counters, registered on
    the engine's metric registry when the context is created (see
    docs/OBSERVABILITY.md). *)

type ctx
(** A planning context: engine handle, catalog/statistics/index
    snapshot, cost parameters, configuration, instruments. *)

val make : ?config:config -> Storage.Engine.t -> ctx
(** Snapshot a context off an open engine.  Cost parameters come from
    {!Cost.default} sized to the engine's buffer pool. *)

val engine : ctx -> Storage.Engine.t
(** The engine the context was made from. *)

val stats : ctx -> Stats.t
(** The statistics snapshot the context plans with. *)

val indexes : ctx -> Indexes.t
(** The index catalog (and build cache) the context plans with. *)

val params : ctx -> Cost.params
(** The cost parameters in use. *)

val config : ctx -> config
(** The configuration the context was made with. *)

val instruments : ctx -> instruments
(** The [plan.*] counters (the executor bumps them too). *)

val sort_spill : ctx -> int
(** The effective executor sort-spill threshold in tuples. *)

val catalog : ctx -> Relational.Algebra.catalog
(** Schema lookup over the snapshot; raises
    {!Relational.Database.Unknown_relation} on unknown names (the
    exception the CLI maps to exit 2). *)

val plan : ctx -> Relational.Algebra.t -> Physical.t
(** Type-check, optionally rewrite ([plan.optimize] span), run
    chase-based join elimination ([plan.semantic] span), compile with
    access-path and join-algorithm selection, and annotate with
    estimates.  Point, range and open-bound predicates on the leading
    column of a table with fences compile to a {!Physical.Fenced} scan
    instead of a B+tree or hash lookup on that column, whether or not
    such an index is defined; the snapshot says which tables have
    fences.  Scans are priced with the page counts of the statistics
    snapshot, so planning reads no page; only a table an older binary
    wrote, whose entry has no statistics, has its heap chain walked.
    Raises {!Relational.Algebra.Type_error} /
    {!Relational.Database.Unknown_relation} on ill-typed input. *)
