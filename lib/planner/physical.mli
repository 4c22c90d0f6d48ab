(** The physical plan algebra: the operator tree the cost-based planner
    chooses and the Volcano executor pulls tuples through.  Every node
    carries its output schema, computed once at compile time, plus a
    mutable annotation slot for the cost model's estimates and the
    executor's actual row counts — the pair [EXPLAIN] renders and the
    PL003 lint compares. *)

(** How a base table is read: a heap scan in chain order, a full B+tree
    walk in key order (what a merge join wants), an index point lookup,
    a B+tree range scan with inclusive, optionally open bounds, or a
    fence scan.  [Fenced] serves inclusive, optionally open bounds on the leading
    column of a table whose chain has fences ({!Storage.Heap.fence}):
    the chain is sorted on that column, so the executor binary-searches
    the fences, starts one page before the first page whose fence
    reaches [lo] (a key repeated across a page boundary may end the page
    before), and stops at the first page whose fence is past [hi].  It
    reads those pages and nothing else — no structure is built.  Equal
    bounds are a point lookup.  When the fences fail validation the
    executor walks the whole chain with the bounds as a filter. *)
type access =
  | Full
  | Ordered of string
  | Point of { attr : string; key : Relational.Value.t; via : Indexes.kind }
  | Range of {
      attr : string;
      lo : Relational.Value.t option;
      hi : Relational.Value.t option;
    }
  | Fenced of {
      attr : string;
      lo : Relational.Value.t option;
      hi : Relational.Value.t option;
    }

type meta = {
  mutable est_rows : float;
  mutable est_cost : float;
  mutable actual_rows : int;
}
(** Per-node annotations: the cost model's output-cardinality and
    cumulative-cost estimates, and the executor's emitted-row count
    ([-1] until the node has run). *)

type t = { node : node; schema : Relational.Schema.t; meta : meta }
(** A plan node: operator, output schema, annotations. *)

(** The operators.  Joins keep their logical left/right orientation (the
    output schema is always [Schema.join left right]); [Hash_join]
    additionally records which side the build table is.  [Sort] exists
    to feed [Merge_join] and spills to temporary runs past the
    configured threshold.  Set operations and division materialize their
    inputs (they are set-valued by definition). *)
and node =
  | Scan of { table : string; access : access; pages : int }
  | Filter of Relational.Algebra.predicate * t
  | Project of string list * t
  | Rename_op of (string * string) list * t
  | Hash_join of { left : t; right : t; on : string list; build_left : bool }
  | Merge_join of { left : t; right : t; on : string list }
  | Nested_product of t * t
  | Sort of { on : string list; input : t }
  | Union_op of t * t
  | Inter_op of t * t
  | Diff_op of t * t
  | Divide_op of t * t
  | Const of (string * Relational.Value.t) list

val fence_point :
  Relational.Value.t option -> Relational.Value.t option ->
  Relational.Value.t option
(** [fence_point lo hi] is [Some v] when a [Fenced] scan's bounds are
    both [v] — a point lookup, estimated, rendered and certified as
    one. *)

val make : node -> Relational.Schema.t -> t
(** Wrap an operator with fresh (zeroed) annotations. *)

val children : t -> t list
(** Direct sub-plans, left to right. *)

val operator_name : t -> string
(** Stable snake_case operator name ([scan], [hash_join], ...) — used as
    the [plan.rows.<op>] metric suffix and the JSON ["op"] field. *)

val label : t -> string
(** One-line human rendering of the node ([filter[gpa >= 3.8]],
    [index point scan students via btree(sid = 2)],
    [index range scan r via fences(k in [10, +inf])], ...). *)

val access_to_string : string -> access -> string
(** [access_to_string table access] is the scan label. *)

val to_text : t -> string
(** The EXPLAIN text format: one indented line per node with its
    {!label} and annotations. *)

val to_json : t -> string
(** The EXPLAIN JSON format: nested objects with [op], [detail],
    [est_rows], [est_cost], [actual_rows] (null until executed), and
    [children] — strict JSON, validated by [test/json_check.ml] in the
    cram suite. *)

val fold : ('a -> t -> 'a) -> 'a -> t -> 'a
(** Pre-order fold over every node of the plan. *)
