(* Plan selection: Optimizer.optimize's logical rewrites first, then a
   physical compile that picks access paths (sargable conjuncts against
   the index catalog) and join algorithms (hash vs merge) by cost.

   A context snapshots the engine's public catalog (chain and fence
   roots, statistics) and index definitions at creation time, from one
   read of the catalog — one context per CLI invocation / test
   scenario.  Leading-column
   predicates on a table whose chain carries fences are served by a
   fence scan instead of a B+tree or hash lookup on that column: the
   same rows, from the few pages that can hold them, with nothing to
   build first. *)

module R = Relational
module A = R.Algebra
module P = Physical

type join_force = Auto | Force_hash | Force_merge

type config = {
  optimize : bool;
  semantic : bool;
  force_join : join_force;
  sort_spill : int option;
}

let default_config =
  { optimize = true; semantic = true; force_join = Auto; sort_spill = None }

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

type ctx = {
  eng : Storage.Engine.t;
  stats : Stats.t;
  indexes : Indexes.t;
  params : Cost.params;
  config : config;
  ins : instruments;
}

let make_instruments registry =
  let counter = Obs.Registry.counter registry in
  {
    i_queries = counter ~unit:"queries" ~help:"queries planned" "plan.queries";
    i_executions =
      counter ~unit:"queries" ~help:"physical plans executed" "plan.executions";
    i_index_scans =
      counter ~unit:"scans" ~help:"index access paths chosen"
        "plan.index_scans";
    i_full_scans =
      counter ~unit:"scans" ~help:"sequential scans chosen" "plan.full_scans";
    i_fence_fallbacks =
      counter ~unit:"scans"
        ~help:"fence scans that walked the whole chain (fences failed validation)"
        "plan.fence_fallbacks";
    i_spills =
      counter ~unit:"runs" ~help:"sort runs spilled to temporary files"
        "plan.spills";
    i_join_eliminations =
      counter ~unit:"joins" ~help:"joins dropped by chase-based elimination"
        "semantic.join_eliminations";
    i_certify_stages =
      counter ~unit:"stages" ~help:"rewrite stages checked by the certifier"
        "certify.stages";
    i_certify_skipped =
      counter ~unit:"stages"
        ~help:"certifier stages outside the conjunctive fragment"
        "certify.skipped";
    i_certify_failures =
      counter ~unit:"stages" ~help:"rewrite stages the certifier refuted"
        "certify.failures";
  }

let () = ignore (make_instruments Obs.Registry.declared)

let make ?(config = default_config) eng =
  let indexes = Indexes.load eng in
  {
    eng;
    stats = Stats.of_catalog (Indexes.tables indexes);
    indexes;
    params =
      Cost.default
        ~pool_pages:(Storage.Buffer_pool.capacity (Storage.Engine.pool eng));
    config;
    ins = make_instruments (Storage.Engine.metrics eng);
  }

let engine ctx = ctx.eng
let stats ctx = ctx.stats
let indexes ctx = ctx.indexes
let params ctx = ctx.params
let config ctx = ctx.config
let instruments ctx = ctx.ins

let sort_spill ctx =
  match ctx.config.sort_spill with
  | Some n -> n
  | None -> ctx.params.Cost.sort_mem_tuples

let catalog ctx name = (Indexes.table ctx.indexes name).Storage.Heap.schema

let annotate ctx plan = Cost.annotate ctx.params ctx.stats plan

let cheaper a b =
  if b.P.meta.P.est_cost < a.P.meta.P.est_cost then b else a

(* A scan pays the heap pages the table's catalog entry records, so
   planning reads no page; a table an older binary wrote, whose entry
   has no statistics, has its chain walked. *)
let scan ctx name access =
  let { Storage.Heap.first; schema; _ } = Indexes.table ctx.indexes name in
  let pages =
    match Stats.find ctx.stats name with
    | Some tb -> tb.Stats.pages
    | None -> Storage.Heap.chain_pages (Storage.Engine.pool ctx.eng) ~first
  in
  P.make (P.Scan { table = name; access; pages }) schema

let has_index ctx table attr kind =
  List.exists
    (fun d -> d.Indexes.kind = kind)
    (Indexes.on ctx.indexes ~table ~attr)

(* The leading column of a table whose catalog entry records fences —
   read off the snapshot, so deciding reads no page. *)
let fenced ctx table attr =
  let { Storage.Heap.schema; fences; _ } = Indexes.table ctx.indexes table in
  fences <> None
  && match R.Schema.attributes schema with a :: _ -> a = attr | [] -> false

(* A conjunct of the form <attr> <cmp> <const> (either orientation),
   normalized to the attribute on the left. *)
let sargable schema conjunct =
  let flip = function
    | A.Lt -> A.Gt
    | A.Le -> A.Ge
    | A.Gt -> A.Lt
    | A.Ge -> A.Le
    | (A.Eq | A.Ne) as c -> c
  in
  match conjunct with
  | A.Cmp (cmp, A.Attr a, A.Const v) when R.Schema.mem schema a ->
      Some (cmp, a, v)
  | A.Cmp (cmp, A.Const v, A.Attr a) when R.Schema.mem schema a ->
      Some (flip cmp, a, v)
  | _ -> None

let filter_residual base residual =
  match residual with
  | [] -> base
  | _ -> P.make (P.Filter (A.conjoin residual, base)) base.P.schema

(* Access-path selection for a selection over a base table: the full
   scan plus every index-backed candidate (point lookups for equality
   conjuncts, range scans assembled from inequality bounds), each with
   its residual filter; cost picks.  On the leading column of a fenced
   table the fence scan stands in for the B+tree and hash candidates:
   it returns the same rows without building anything. *)
let select_access ctx name pred =
  let schema = catalog ctx name in
  let conj = A.conjuncts pred in
  let full = filter_residual (scan ctx name P.Full) conj in
  let except c = List.filter (fun c' -> c' != c) conj in
  let point_candidates =
    List.concat_map
      (fun c ->
        match sargable schema c with
        | Some (A.Eq, attr, v) when fenced ctx name attr ->
            [
              filter_residual
                (scan ctx name (P.Fenced { attr; lo = Some v; hi = Some v }))
                (except c);
            ]
        | Some (A.Eq, attr, v) ->
            List.filter_map
              (fun kind ->
                if has_index ctx name attr kind then
                  Some
                    (filter_residual
                       (scan ctx name (P.Point { attr; key = v; via = kind }))
                       (except c))
                else None)
              [ Indexes.Hash; Indexes.Btree ]
        | _ -> [])
      conj
  in
  let range_candidates =
    (* one candidate per btree-indexed or fenced attribute with at least
       one bound; strict bounds stay in the residual (the inclusive range
       is a superset), non-strict bound conjuncts matching the chosen
       bound are consumed *)
    let bounded_attrs =
      List.sort_uniq String.compare
        (List.filter_map
           (fun c ->
             match sargable schema c with
             | Some ((A.Lt | A.Le | A.Gt | A.Ge), a, _)
               when has_index ctx name a Indexes.Btree || fenced ctx name a ->
                 Some a
             | _ -> None)
           conj)
    in
    List.filter_map
      (fun attr ->
        let lo = ref None and hi = ref None in
        let tighten r keep v =
          match !r with
          | None -> r := Some v
          | Some v' -> if keep v v' then r := Some v
        in
        List.iter
          (fun c ->
            match sargable schema c with
            | Some ((A.Ge | A.Gt), a, v) when a = attr ->
                tighten lo (fun a b -> R.Value.compare a b > 0) v
            | Some ((A.Le | A.Lt), a, v) when a = attr ->
                tighten hi (fun a b -> R.Value.compare a b < 0) v
            | _ -> ())
          conj;
        if !lo = None && !hi = None then None
        else
          let consumed c =
            match sargable schema c with
            | Some (A.Ge, a, v) when a = attr -> !lo = Some v
            | Some (A.Le, a, v) when a = attr -> !hi = Some v
            | _ -> false
          in
          let residual = List.filter (fun c -> not (consumed c)) conj in
          let access =
            if fenced ctx name attr then
              P.Fenced { attr; lo = !lo; hi = !hi }
            else P.Range { attr; lo = !lo; hi = !hi }
          in
          Some (filter_residual (scan ctx name access) residual))
      bounded_attrs
  in
  let candidates = full :: (point_candidates @ range_candidates) in
  List.iter (annotate ctx) candidates;
  List.fold_left cheaper (List.hd candidates) (List.tl candidates)

(* Join-algorithm selection.  The merge candidate sorts each side unless
   it is a bare heap scan with a B+tree on the (single) join attribute,
   in which case an index-order scan supplies the order for free. *)
let join_plan ctx left right =
  let shared = R.Schema.common left.P.schema right.P.schema in
  let out_schema = R.Schema.join left.P.schema right.P.schema in
  if shared = [] then
    P.make (P.Nested_product (left, right)) out_schema
  else begin
    let hash build_left =
      P.make (P.Hash_join { left; right; on = shared; build_left }) out_schema
    in
    let merge_input side =
      match (side.P.node, shared) with
      | P.Scan { table; access = P.Full; pages }, [ attr ]
        when has_index ctx table attr Indexes.Btree ->
          P.make
            (P.Scan { table; access = P.Ordered attr; pages })
            side.P.schema
      | _ -> P.make (P.Sort { on = shared; input = side }) side.P.schema
    in
    let merge =
      P.make
        (P.Merge_join
           { left = merge_input left; right = merge_input right; on = shared })
        out_schema
    in
    let best_hash =
      let a = hash true and b = hash false in
      annotate ctx a;
      annotate ctx b;
      cheaper a b
    in
    annotate ctx merge;
    match ctx.config.force_join with
    | Force_hash -> best_hash
    | Force_merge -> merge
    | Auto -> cheaper best_hash merge
  end

let rec compile ctx e =
  match e with
  | A.Rel name -> scan ctx name P.Full
  | A.Singleton bindings ->
      P.make (P.Const bindings)
        (R.Schema.make
           (List.map (fun (a, v) -> (a, R.Value.type_of v)) bindings))
  | A.Select _ ->
      (* collapse stacked selections (push_selections splits conjunctions)
         so access-path selection sees every conjunct at once *)
      let rec peel preds = function
        | A.Select (p, inner) -> peel (A.conjuncts p @ preds) inner
        | core -> (preds, core)
      in
      let preds, core = peel [] e in
      let pred = A.conjoin preds in
      (match core with
      | A.Rel name -> select_access ctx name pred
      | _ ->
          let c = compile ctx core in
          P.make (P.Filter (pred, c)) c.P.schema)
  | A.Project (attrs, inner) ->
      let c = compile ctx inner in
      P.make (P.Project (attrs, c)) (R.Schema.project c.P.schema attrs)
  | A.Rename (m, inner) ->
      let c = compile ctx inner in
      P.make (P.Rename_op (m, c)) (R.Schema.rename c.P.schema m)
  | A.Product (a, b) ->
      let ca = compile ctx a and cb = compile ctx b in
      P.make (P.Nested_product (ca, cb))
        (R.Schema.product ca.P.schema cb.P.schema)
  | A.Join (a, b) -> join_plan ctx (compile ctx a) (compile ctx b)
  | A.Union (a, b) ->
      let ca = compile ctx a and cb = compile ctx b in
      P.make (P.Union_op (ca, cb)) ca.P.schema
  | A.Inter (a, b) ->
      let ca = compile ctx a and cb = compile ctx b in
      P.make (P.Inter_op (ca, cb)) ca.P.schema
  | A.Diff (a, b) ->
      let ca = compile ctx a and cb = compile ctx b in
      P.make (P.Diff_op (ca, cb)) ca.P.schema
  | A.Divide (a, b) ->
      let ca = compile ctx a and cb = compile ctx b in
      let keep =
        List.filter
          (fun attr -> not (R.Schema.mem cb.P.schema attr))
          (R.Schema.attributes ca.P.schema)
      in
      P.make (P.Divide_op (ca, cb)) (R.Schema.project ca.P.schema keep)

let count_access_paths ctx plan =
  P.fold
    (fun () node ->
      match node.P.node with
      | P.Scan { access = P.Full; _ } ->
          Obs.Registry.Counter.incr ctx.ins.i_full_scans
      | P.Scan _ -> Obs.Registry.Counter.incr ctx.ins.i_index_scans
      | _ -> ())
    () plan

let plan ctx expr =
  Obs.Registry.Counter.incr ctx.ins.i_queries;
  (* type the query first: unknown relations and type errors surface
     here, on the original expression, not mid-rewrite *)
  ignore (A.schema_of (catalog ctx) expr : R.Schema.t);
  let logical =
    if ctx.config.optimize then
      Obs.Trace.with_span (Storage.Engine.trace ctx.eng) "plan.optimize"
        (fun () ->
          R.Optimizer.optimize (catalog ctx)
            (Stats.row_stats ctx.stats)
            expr)
    else expr
  in
  let logical =
    if ctx.config.semantic then
      Obs.Trace.with_span (Storage.Engine.trace ctx.eng) "plan.semantic"
        (fun () ->
          let fds = Semantic.fds_of_stats (catalog ctx) ctx.stats in
          let rewritten, dropped =
            Semantic.eliminate_joins (catalog ctx) fds logical
          in
          if dropped > 0 then
            Obs.Registry.Counter.add ctx.ins.i_join_eliminations dropped;
          rewritten)
    else logical
  in
  let physical = compile ctx logical in
  annotate ctx physical;
  count_access_paths ctx physical;
  physical
