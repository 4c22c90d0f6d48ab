(* Static analysis of physical plans: the PL00x suite run by
   [dbmeta lint plan].  The artifact is a compiled (and optionally
   executed) Planner.Physical.t plus the index catalog the planner saw,
   so the passes can ask the questions the planner itself answers —
   "was there a cheaper access path?" — as well as post-execution ones
   the planner cannot ("how wrong were the estimates?"). *)

module R = Relational
module A = R.Algebra
module P = Planner.Physical
module I = Planner.Indexes

type input = { plan : P.t; indexes : I.t }

let subject = P.label

(* Attributes compared against a constant in some conjunct, with the
   comparison (either operand orientation). *)
let sargable_attrs pred =
  List.filter_map
    (function
      | A.Cmp (cmp, A.Attr a, A.Const _) | A.Cmp (cmp, A.Const _, A.Attr a) ->
          Some (cmp, a)
      | _ -> None)
    (A.conjuncts pred)

(* Can some index on [table](attr) serve a conjunct with this
   comparison?  Equality probes work on either kind; inequalities need
   key order, so only a B+tree. *)
let indexed indexes table cmp attr =
  List.exists
    (fun d ->
      d.I.table = table && d.I.attr = attr
      &&
      match cmp with
      | A.Eq -> true
      | A.Lt | A.Le | A.Gt | A.Ge -> d.I.kind = I.Btree
      | A.Ne -> false)
    (I.defs indexes)

(* Can [table]'s fences serve it?  A fenced table's chain is sorted on
   its leading column, so any comparison but [<>] on that column reads
   only the pages that can match.  Fence presence comes from the
   catalog snapshot the plan was made against. *)
let fenced indexes table cmp attr =
  cmp <> A.Ne
  &&
  match I.table indexes table with
  | { Storage.Heap.fences = Some _; schema; _ } -> (
      match R.Schema.attributes schema with a :: _ -> a = attr | [] -> false)
  | _ -> false
  | exception R.Database.Unknown_relation _ -> false

(* PL001: a sequential scan of a table while an enclosing filter holds a
   sargable conjunct an existing index, or the table's fences, could
   have served.  The planner avoids this when selections sit directly
   on the table; the warning fires when they do not (e.g. an unpushed
   selection above a join, visible under [--no-optimize]). *)
let full_scan_pass { plan; indexes } =
  let diags = ref [] in
  let idx = ref (-1) in
  let rec go carried t =
    incr idx;
    let here = !idx in
    (match t.P.node with
    | P.Scan { table; access = P.Full; _ } ->
        let attrs =
          List.sort_uniq String.compare
            (List.filter (R.Schema.mem t.P.schema) (List.map snd carried))
        in
        List.iter
          (fun a ->
            let serves usable =
              List.exists (fun (cmp, b) -> b = a && usable indexes table cmp a) carried
            in
            let what =
              match (serves indexed, serves fenced) with
              | true, false -> Some "an index"
              | false, true -> Some "its fences"
              | true, true -> Some "an index and its fences"
              | false, false -> None
            in
            Option.iter
              (fun what ->
                diags :=
                  Diagnostic.warning ~subject:(subject t) ~loc:here "PL001"
                    (Printf.sprintf
                       "full scan of %s although %s on %S could serve the \
                        enclosing filter"
                       table what a)
                  :: !diags)
              what)
          attrs
    | _ -> ());
    let carried =
      match t.P.node with
      | P.Filter (p, _) -> sargable_attrs p @ carried
      | P.Rename_op _ -> [] (* names change; stop attributing conjuncts *)
      | _ -> carried
    in
    List.iter (go carried) (P.children t)
  in
  go [] plan;
  List.rev !diags

(* PL002: a join with no equi-join attribute — every pair of input rows
   is combined.  Almost always a query bug (a missing shared column), so
   an error. *)
let cartesian_pass { plan; _ } =
  let idx = ref (-1) in
  let diags = ref [] in
  let rec go t =
    incr idx;
    (match t.P.node with
    | P.Nested_product (a, b) ->
        diags :=
          Diagnostic.error ~subject:(subject t) ~loc:!idx "PL002"
            (Printf.sprintf
               "cartesian product: %s x %s share no join attribute"
               (R.Schema.to_string a.P.schema)
               (R.Schema.to_string b.P.schema))
          :: !diags
    | _ -> ());
    List.iter go (P.children t)
  in
  go plan;
  List.rev !diags

(* PL003: after execution, an estimate more than [divergence_factor] off
   the actual row count.  Nodes that never ran (actual_rows < 0) are
   skipped, so the pass is a no-op on unexecuted plans. *)
let divergence_factor = 8.0

let divergence_pass { plan; _ } =
  let idx = ref (-1) in
  let diags = ref [] in
  let rec go t =
    incr idx;
    let actual = t.P.meta.P.actual_rows in
    (if actual >= 0 then
       let est = t.P.meta.P.est_rows in
       let hi = Float.max est (float_of_int actual) in
       let lo = Float.max 1.0 (Float.min est (float_of_int actual)) in
       if hi /. lo > divergence_factor then
         diags :=
           Diagnostic.warning ~subject:(subject t) ~loc:!idx "PL003"
             (Printf.sprintf
                "estimated %.1f rows but produced %d (off by %.0fx): \
                 statistics may be stale"
                est actual (hi /. lo))
           :: !diags);
    List.iter go (P.children t)
  in
  go plan;
  List.rev !diags

(* PL004: a projection (other than the plan root, whose width the query
   dictates) keeps columns no ancestor consumes — wasted copying in
   every tuple that flows through.  Needed attributes are pushed down
   from the root: predicates, join and sort keys add needs; set
   operations and division compare whole tuples, so they need every
   column of their inputs. *)
let rec pred_attrs = function
  | A.True | A.False -> []
  | A.Cmp (_, l, r) ->
      let side = function A.Attr a -> [ a ] | A.Const _ -> [] in
      side l @ side r
  | A.And (p, q) | A.Or (p, q) -> pred_attrs p @ pred_attrs q
  | A.Not p -> pred_attrs p

let unused_projection_pass { plan; _ } =
  let idx = ref (-1) in
  let diags = ref [] in
  let union a b = List.sort_uniq String.compare (a @ b) in
  let restrict needed schema =
    List.filter (fun a -> R.Schema.mem schema a) needed
  in
  let rec go ~root needed t =
    incr idx;
    let here = !idx in
    match t.P.node with
    | P.Scan _ | P.Const _ -> ()
    | P.Filter (p, c) -> go ~root:false (union needed (pred_attrs p)) c
    | P.Project (attrs, c) ->
        (if not root then
           let unused =
             List.filter (fun a -> not (List.mem a needed)) attrs
           in
           if unused <> [] then
             diags :=
               Diagnostic.info ~subject:(subject t) ~loc:here "PL004"
                 (Printf.sprintf "projected column%s %s never used above"
                    (if List.length unused = 1 then "" else "s")
                    (String.concat ", "
                       (List.map (Printf.sprintf "%S") unused)))
               :: !diags);
        go ~root:false attrs c
    | P.Rename_op (m, c) ->
        let back a =
          match List.find_opt (fun (_, n) -> n = a) m with
          | Some (o, _) -> o
          | None -> a
        in
        go ~root:false (List.map back needed) c
    | P.Hash_join { left; right; on; _ } | P.Merge_join { left; right; on } ->
        let n = union needed on in
        go ~root:false (restrict n left.P.schema) left;
        go ~root:false (restrict n right.P.schema) right
    | P.Nested_product (a, b) ->
        go ~root:false (restrict needed a.P.schema) a;
        go ~root:false (restrict needed b.P.schema) b
    | P.Sort { on; input } -> go ~root:false (union needed on) input
    | P.Union_op (a, b)
    | P.Inter_op (a, b)
    | P.Diff_op (a, b)
    | P.Divide_op (a, b) ->
        go ~root:false (R.Schema.attributes a.P.schema) a;
        go ~root:false (R.Schema.attributes b.P.schema) b
  in
  go ~root:true (R.Schema.attributes plan.P.schema) plan;
  List.rev !diags

let passes : input Pass.t list =
  [
    Pass.make "full-scan-despite-index" full_scan_pass;
    Pass.make "cartesian-product" cartesian_pass;
    Pass.make "estimate-divergence" divergence_pass;
    Pass.make "unused-projection" unused_projection_pass;
  ]

let lint input = Pass.run_all passes input
