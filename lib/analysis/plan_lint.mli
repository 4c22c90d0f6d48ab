(** Static analysis of physical query plans ([dbmeta lint plan]).

    Diagnostic codes:
    - [PL001] (warning) full scan despite a usable index — a sequential
      scan of a table while an enclosing filter holds a sargable
      conjunct (attribute compared to a constant) that an existing index
      on that table, or its fences (for any comparison but [<>] on the
      leading column of a fenced table), could serve
    - [PL002] (error) cartesian product — a join whose sides share no
      attribute, so every pair of rows is combined
    - [PL003] (warning) estimate divergence — after execution, a node's
      estimated cardinality is more than 8x off its actual row count
      (stale or missing statistics); unexecuted nodes are skipped
    - [PL004] (info) unused projected columns — a non-root projection
      keeps columns no ancestor operator consumes

    The plan is produced by [Planner.Plan.plan] (and, for PL003,
    executed by [Planner.Exec.run] first so the actual row counts are
    filled in). *)

type input = { plan : Planner.Physical.t; indexes : Planner.Indexes.t }
(** What the passes see: the physical plan plus the index catalog the
    planner had available — its definitions, and the catalog snapshot
    that says which tables are fenced (PL001 must know what was on
    offer, not what was chosen). *)

val passes : input Pass.t list
(** The PL pass suite, for {!Pass.run_all} / {!Pass.drive}. *)

val lint : input -> Diagnostic.t list
(** Runs every pass and returns the sorted diagnostics. *)
