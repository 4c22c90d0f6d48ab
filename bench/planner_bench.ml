(* The physical planner measured along its three axes: access-path
   payoff (what one point lookup costs, cold and warm, by access path,
   against a full scan and the legacy materialize-and-eval path), the
   hash-vs-merge join crossover as input size grows, and the planning
   overhead itself.  Every run works on throwaway files in the temp
   directory. *)

module E = Storage.Engine
module A = Relational.Algebra
module P = Planner.Physical
open Relational.Value

let fresh_path =
  let n = ref 0 in
  fun () ->
    incr n;
    let path =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "dbmeta_planner_bench_%d_%d.db" (Unix.getpid ()) !n)
    in
    List.iter
      (fun p -> if Sys.file_exists p then Sys.remove p)
      [ path; E.wal_path path ];
    path

let cleanup path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; E.wal_path path ]

(* n rows, [key] unique, [grp] with [n / 8] distinct values *)
let table ?(prefix = "k") n =
  Relational.Relation.of_list
    (Relational.Schema.make
       [ ("k", TInt); (prefix ^ "payload", TString) ])
    (List.init n (fun i ->
         [ Int i; String (Printf.sprintf "%s%06d" prefix i) ]))

let repeat k f =
  for _ = 1 to k do
    ignore (f () : Relational.Relation.t)
  done

(* Mean milliseconds per call of [f] over [reps] calls. *)
let per_query reps f =
  Bench_util.timed (fun () -> repeat reps f) /. float_of_int reps

let run () =
  Bench_util.header
    "Physical planner: access paths, join algorithms, planning overhead";
  let metrics = Bench_util.fresh_registry () in

  (* --- point lookups: cost per query by access path, cold and warm ------- *)
  (* [r] is sorted on its leading column [k], so a predicate on [k] takes
     the fence scan; [g] (a permutation of [k]) carries a B+tree, rebuilt
     from the whole chain by each new planning context; [payload] has no
     access path but the full scan.  A cold query makes a fresh context
     over a pool emptied of clean pages, as each CLI call starts. *)
  let n = 20_000 in
  let reps = 50 in
  Bench_util.note
    "Point lookups over %d rows, time per query (mean of %d queries):" n reps;
  let path = fresh_path () in
  let eng = E.open_db ~metrics path in
  E.save_table eng "r"
    (Relational.Relation.of_list
       (Relational.Schema.make
          [ ("k", TInt); ("g", TInt); ("payload", TString) ])
       (List.init n (fun i ->
            [ Int i; Int (i * 7919 mod n); String (Printf.sprintf "p%06d" i) ])));
  let idx = Planner.Indexes.load eng in
  Planner.Indexes.create eng idx
    { Planner.Indexes.table = "r"; attr = "g"; kind = Btree };
  let point attr v =
    A.Select (A.Cmp (A.Eq, A.Attr attr, A.Const v), A.Rel "r")
  in
  let q_fence = point "k" (Int (n / 2))
  and q_btree = point "g" (Int (n / 2))
  and q_scan = point "payload" (String (Printf.sprintf "p%06d" (n / 2))) in
  let label q =
    let ctx = Planner.Plan.make eng in
    let rec scan p =
      match p.P.node with
      | P.Scan _ -> P.label p
      | _ -> ( match P.children p with c :: _ -> scan c | [] -> P.label p)
    in
    scan (Planner.Plan.plan ctx q)
  in
  let cold q () =
    Storage.Buffer_pool.drop_clean (E.pool eng);
    let ctx = Planner.Plan.make eng in
    Planner.Exec.run ctx (Planner.Plan.plan ctx q)
  in
  let t_fence_cold = per_query reps (cold q_fence) in
  let t_btree_cold = per_query reps (cold q_btree) in
  (* a probe of a built B+tree costs well under a millisecond, so it is
     kept in microseconds, where three decimals still show it *)
  let us_btree_warm =
    let ctx = Planner.Plan.make eng in
    let plan = Planner.Plan.plan ctx q_btree in
    (* the first run builds the B+tree; the rest probe it *)
    ignore (Planner.Exec.run ctx plan : Relational.Relation.t);
    1000. *. per_query reps (fun () -> Planner.Exec.run ctx plan)
  in
  let t_full = per_query reps (cold q_scan) in
  let t_legacy =
    per_query reps (fun () -> Relational.Eval.eval (E.database eng) q_fence)
  in
  let rows =
    [
      ("fence point lookup, cold", t_fence_cold, "ms", label q_fence);
      ("B+tree point lookup, cold", t_btree_cold, "ms", label q_btree);
      ("B+tree point lookup, warm", us_btree_warm, "us", label q_btree);
      ("full scan, cold", t_full, "ms", label q_scan);
      ("legacy eval path", t_legacy, "ms", "load every table, Eval.eval");
    ]
  in
  E.close eng;
  cleanup path;
  Bench_util.record ~metric:"point_fence_cold_ms" t_fence_cold;
  Bench_util.record ~metric:"point_btree_cold_ms" t_btree_cold;
  Bench_util.record ~metric:"point_btree_warm_us" ~unit:"us" us_btree_warm;
  Bench_util.record ~metric:"point_fullscan_ms" t_full;
  Bench_util.record ~metric:"point_legacy_ms" t_legacy;
  List.iter
    (fun (what, t, unit, how) ->
      Bench_util.note "  %-26s %8s %s  %s" what (Bench_util.f3 t) unit how)
    rows;

  (* --- join algorithms: hash vs merge over index order ------------------- *)
  Bench_util.note "";
  Bench_util.note
    "1:1 equi-join, hash join vs merge join over B+tree-ordered scans:";
  List.iter
    (fun size ->
      let path = fresh_path () in
      let eng = E.open_db path in
      E.save_table eng "a" (table ~prefix:"a" size);
      E.save_table eng "b" (table ~prefix:"b" size);
      let idx = Planner.Indexes.load eng in
      List.iter
        (fun t ->
          Planner.Indexes.create eng idx
            { Planner.Indexes.table = t; attr = "k"; kind = Btree })
        [ "a"; "b" ];
      let join = A.Project ([ "k" ], A.Join (A.Rel "a", A.Rel "b")) in
      let time force =
        let ctx =
          Planner.Plan.make
            ~config:{ Planner.Plan.default_config with force_join = force }
            eng
        in
        let plan = Planner.Plan.plan ctx join in
        ignore (Planner.Exec.run ctx plan : Relational.Relation.t);
        Bench_util.timed (fun () ->
            ignore (Planner.Exec.run ctx plan : Relational.Relation.t))
      in
      let t_hash = time Planner.Plan.Force_hash in
      let t_merge = time Planner.Plan.Force_merge in
      E.close eng;
      cleanup path;
      Bench_util.record ~metric:(Printf.sprintf "join_hash_%d" size) t_hash;
      Bench_util.record ~metric:(Printf.sprintf "join_merge_%d" size) t_merge;
      Bench_util.note "  %6d x %6d rows: hash %s ms, merge %s ms  (%s wins)"
        size size (Bench_util.ms t_hash) (Bench_util.ms t_merge)
        (if t_hash <= t_merge then "hash" else "merge"))
    [ 500; 2_000; 8_000 ];

  (* --- the answer path of a warm join -------------------------------------- *)
  (* A 2,000-row answer: an index range over 20,000 rows hash-joined to a
     500-row table and projected, on one warm planning context.  Its cost
     splits into executing the cursor tree to its rows, making those rows
     the answer set, and projecting that set onto the query's columns and
     rendering it, as [db query] does. *)
  Bench_util.note "";
  let path = fresh_path () in
  let eng = E.open_db path in
  E.save_table eng "r"
    (Relational.Relation.of_list
       (Relational.Schema.make [ ("k", TInt); ("g", TInt); ("payload", TString) ])
       (List.init 20_000 (fun i -> [ Int i; Int (i mod 500); String (Printf.sprintf "p%06d" i) ])));
  E.save_table eng "s"
    (Relational.Relation.of_list
       (Relational.Schema.make [ ("g", TInt); ("name", TString) ])
       (List.init 500 (fun g -> [ Int g; String (Printf.sprintf "n%03d" g) ])));
  let ctx = Planner.Plan.make eng in
  let q =
    A.Project
      ( [ "k"; "name" ],
        A.Select
          ( A.And
              ( A.Cmp (A.Ge, A.Attr "k", A.Const (Int 7_000)),
                A.Cmp (A.Lt, A.Attr "k", A.Const (Int 9_000)) ),
            A.Join (A.Rel "r", A.Rel "s") ) )
  in
  let plan = Planner.Plan.plan ctx q in
  let execute () =
    let c = Planner.Exec.open_cursor ctx plan in
    let rec drain acc =
      match c.Planner.Exec.next () with Some t -> drain (t :: acc) | None -> List.rev acc
    in
    let rows = drain [] in
    c.Planner.Exec.close ();
    rows
  in
  let rows = execute () in
  let answer_set () = Relational.Relation.of_tuples plan.P.schema rows in
  let answer = answer_set () in
  let columns =
    Relational.Schema.attributes
      (Relational.Algebra.schema_of (Planner.Plan.catalog ctx) q)
  in
  let render () = Relational.Relation.to_string (Relational.Relation.project answer columns) in
  let reps = 50 in
  let per f =
    Bench_util.timed (fun () ->
        for _ = 1 to reps do
          ignore (Sys.opaque_identity (f ()))
        done)
    /. float_of_int reps
  in
  let t_execute = per execute in
  let t_set = per answer_set in
  let t_render = per render in
  let t_run = per (fun () -> Planner.Exec.run ctx plan) in
  E.close eng;
  cleanup path;
  Bench_util.record ~metric:"answer_join_execute_ms" t_execute;
  Bench_util.record ~metric:"answer_join_set_ms" t_set;
  Bench_util.record ~metric:"answer_join_render_ms" t_render;
  Bench_util.record ~metric:"answer_join_run_ms" t_run;
  Bench_util.note
    "Warm %d-row hash join, ms per query: execute %s, answer set %s, project and \
     render %s (Exec.run %s)"
    (List.length rows) (Bench_util.f3 t_execute) (Bench_util.f3 t_set)
    (Bench_util.f3 t_render) (Bench_util.f3 t_run);

  (* --- planning overhead ------------------------------------------------- *)
  Bench_util.note "";
  let path = fresh_path () in
  let eng = E.open_db path in
  List.iter
    (fun t -> E.save_table eng t (table ~prefix:t 64))
    [ "a"; "b"; "c" ];
  let ctx = Planner.Plan.make eng in
  let q =
    A.Project
      ( [ "k" ],
        A.Select
          ( A.Cmp (A.Ge, A.Attr "k", A.Const (Int 10)),
            A.Join (A.Join (A.Rel "a", A.Rel "b"), A.Rel "c") ) )
  in
  let plans = 1_000 in
  let t_plan =
    Bench_util.timed (fun () ->
        for _ = 1 to plans do
          ignore (Planner.Plan.plan ctx q : P.t)
        done)
  in
  E.close eng;
  cleanup path;
  let us = t_plan *. 1000.0 /. float_of_int plans in
  Bench_util.record ~metric:"plan_overhead_us" ~unit:"us" us;
  Bench_util.note
    "Planning a filtered 3-way join: %s us per plan (%d plans in %s ms)"
    (Bench_util.f2 us) plans (Bench_util.ms t_plan);

  (* --- chase-based join elimination -------------------------------------- *)
  (* k renamed copies of the same table, all joined on the unique key:
     the statistics prove k -> payload, so the semantic rewrite collapses
     the whole chain to one scan.  Time the executor with the rewrite on
     and off, and the (chase-bearing) planning itself. *)
  Bench_util.note "";
  let n = 4_000 in
  Bench_util.note
    "Key self-join chain over %d rows, semantic rewrite on vs off:" n;
  let path = fresh_path () in
  let eng = E.open_db path in
  E.save_table eng "a" (table ~prefix:"a" n);
  let chain k =
    let copy i =
      A.Rename ([ ("apayload", Printf.sprintf "p%d" i) ], A.Rel "a")
    in
    let rec build i acc =
      if i > k then acc else build (i + 1) (A.Join (acc, copy i))
    in
    A.Project ([ "k"; "apayload" ], build 2 (A.Rel "a"))
  in
  let ctx_on = Planner.Plan.make eng in
  let ctx_off =
    Planner.Plan.make
      ~config:{ Planner.Plan.default_config with semantic = false }
      eng
  in
  List.iter
    (fun k ->
      let q = chain k in
      let run ctx =
        let plan = Planner.Plan.plan ctx q in
        ignore (Planner.Exec.run ctx plan : Relational.Relation.t);
        Bench_util.timed (fun () ->
            ignore (Planner.Exec.run ctx plan : Relational.Relation.t))
      in
      let t_on = run ctx_on and t_off = run ctx_off in
      let t_chase =
        let plans = 100 in
        Bench_util.timed (fun () ->
            for _ = 1 to plans do
              ignore (Planner.Plan.plan ctx_on q : P.t)
            done)
        *. 1000.0 /. float_of_int plans
      in
      Bench_util.record ~metric:(Printf.sprintf "join_elim_on_%d" k) t_on;
      Bench_util.record ~metric:(Printf.sprintf "join_elim_off_%d" k) t_off;
      Bench_util.record
        ~metric:(Printf.sprintf "join_elim_plan_us_%d" k)
        ~unit:"us" t_chase;
      Bench_util.note
        "  %d-way: eliminated %s ms vs full %s ms (%sx); chase-bearing plan %s us"
        k (Bench_util.ms t_on) (Bench_util.ms t_off)
        (Bench_util.f2 (t_off /. Float.max t_on 1e-9))
        (Bench_util.f2 t_chase))
    [ 2; 4; 8 ];

  (* --- certify overhead --------------------------------------------------- *)
  let cq = chain 4 in
  let cplan = Planner.Plan.plan ctx_on cq in
  let certs = 100 in
  let t_cert =
    Bench_util.timed (fun () ->
        for _ = 1 to certs do
          ignore (Planner.Certify.certify ctx_on cq cplan : Planner.Certify.report)
        done)
    *. 1000.0 /. float_of_int certs
  in
  E.close eng;
  cleanup path;
  Bench_util.record ~metric:"certify_overhead_us" ~unit:"us" t_cert;
  Bench_util.note
    "Certifying the 4-way chain (all five stages): %s us per query"
    (Bench_util.f2 t_cert);
  ignore metrics
